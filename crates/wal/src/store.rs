//! Byte stores a journal can live in.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::WalError;

/// An append-only byte store with a rewrite escape hatch for snapshots.
///
/// Implementations must make `append` atomic from the *caller's* point of
/// view only in the success case: a crash (or injected fault) mid-append
/// may leave a torn suffix, which [`crate::frame::parse_log`] detects and
/// recovery truncates.
pub trait JournalStore: std::fmt::Debug + Send {
    /// The whole log, front to back.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the backing medium fails.
    fn read(&self) -> Result<Vec<u8>, WalError>;

    /// Appends raw bytes at the end of the log.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the backing medium fails.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;

    /// Replaces the whole log (snapshot compaction, corrupt-tail trim).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the backing medium fails.
    fn reset(&mut self, bytes: &[u8]) -> Result<(), WalError>;

    /// Current log length in bytes.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the backing medium fails.
    fn len(&self) -> Result<u64, WalError>;

    /// `true` when the log is empty.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the backing medium fails.
    fn is_empty(&self) -> Result<bool, WalError> {
        Ok(self.len()? == 0)
    }

    /// Reads `len` bytes starting at `offset`, for paged cold-tier
    /// readers that must not materialise the whole log. Reading past the
    /// end returns the available suffix (possibly empty) rather than an
    /// error, mirroring `pread` semantics.
    ///
    /// The default implementation materialises the whole log via
    /// [`JournalStore::read`]; stores with random access (files) should
    /// override it.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the backing medium fails.
    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>, WalError> {
        let bytes = self.read()?;
        let start = offset.min(bytes.len() as u64) as usize;
        let end = offset.saturating_add(len).min(bytes.len() as u64) as usize;
        Ok(bytes[start..end].to_vec())
    }
}

/// In-memory store over a shared buffer. Cloning yields a second handle on
/// the *same* bytes — exactly what a crash harness needs: drop the server
/// (the "crash"), keep the clone (the "disk"), and recover from it.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemStore {
    /// An empty in-memory log.
    #[must_use]
    pub fn new() -> Self {
        MemStore::default()
    }

    /// A log pre-seeded with `bytes` (e.g. a prefix cut at a record
    /// boundary).
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemStore {
            bytes: Arc::new(Mutex::new(bytes)),
        }
    }

    /// A copy of the current log bytes.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().expect("journal buffer lock").clone()
    }
}

impl JournalStore for MemStore {
    fn read(&self) -> Result<Vec<u8>, WalError> {
        Ok(self.snapshot())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.bytes
            .lock()
            .expect("journal buffer lock")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut buf = self.bytes.lock().expect("journal buffer lock");
        buf.clear();
        buf.extend_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> Result<u64, WalError> {
        Ok(self.bytes.lock().expect("journal buffer lock").len() as u64)
    }

    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>, WalError> {
        let bytes = self.bytes.lock().expect("journal buffer lock");
        let start = offset.min(bytes.len() as u64) as usize;
        let end = offset.saturating_add(len).min(bytes.len() as u64) as usize;
        Ok(bytes[start..end].to_vec())
    }
}

/// When a [`FileStore`] pushes appends past the OS page cache with
/// `sync_all`. `flush()` alone survives a process crash but not power
/// loss; the fsync tax of each policy is measured in E18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync; rely on the OS writing dirty pages eventually.
    Never,
    /// fsync after every append (the durable default).
    #[default]
    EveryAppend,
    /// fsync after every `n`th append; `EveryN(0)` behaves like
    /// [`SyncPolicy::EveryAppend`].
    EveryN(u32),
}

/// File-backed store. Appends go straight to the file; `reset` writes a
/// sibling temp file and renames it into place so a crash during snapshot
/// compaction leaves either the old log or the new one, never a mix.
/// Durability against power loss is governed by [`SyncPolicy`].
///
/// Rename atomicity alone is not enough: until the *parent directory*
/// entry is fsynced, a power cut can resurrect the pre-rename log (the
/// rename lived only in the directory's dirty page). `reset` therefore
/// fsyncs the parent directory after the rename, and the constructor does
/// the same after creating a fresh log file, whenever the sync policy
/// asks for durability at all.
///
/// # Fail-stop appends
///
/// A failed append — and in particular a failed `sync_all` — leaves the
/// durable state *indeterminate*: on Linux a failed fsync may have already
/// dropped the dirty pages and marked them clean, so retrying the fsync
/// can report success over data that never reached the medium (the
/// "fsyncgate" failure mode). The store therefore **wedges** itself after
/// any append error and refuses every later append instead of retrying.
/// The only ways forward are a successful [`FileStore::reset`] (which
/// rewrites the whole log through a fresh temp file, re-establishing a
/// known byte image) or reopening the path and recovering from the
/// durable prefix.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    sync: SyncPolicy,
    appends_since_sync: u32,
    dir_syncs: u64,
    wedged: bool,
}

impl FileStore {
    /// Opens (creating if absent) a file-backed log with an explicit sync
    /// policy.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the file cannot be created.
    pub fn with_sync_policy(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let mut store = FileStore {
            path,
            sync,
            appends_since_sync: 0,
            dir_syncs: 0,
            wedged: false,
        };
        if !store.path.exists() {
            std::fs::File::create(&store.path).map_err(|e| WalError::Io(e.to_string()))?;
            // A freshly created file is only durable once its directory
            // entry is, too.
            store.sync_parent_dir()?;
        }
        Ok(store)
    }

    /// How many times the parent directory has been fsynced (file
    /// creation and every durable `reset`) — observable evidence for the
    /// crash-after-rename tests.
    #[cfg(test)]
    fn dir_syncs(&self) -> u64 {
        self.dir_syncs
    }

    /// `true` once an append (write or fsync) has failed. A wedged store
    /// refuses every further append — never retry an fsync whose failure
    /// left durability indeterminate. A successful [`FileStore::reset`]
    /// clears the wedge because it rewrites the whole log through a fresh
    /// temp file.
    #[cfg(test)]
    fn wedged(&self) -> bool {
        self.wedged
    }

    fn sync_parent_dir(&mut self) -> Result<(), WalError> {
        if self.sync == SyncPolicy::Never {
            return Ok(());
        }
        let parent = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let dir = std::fs::File::open(&parent).map_err(|e| WalError::Io(e.to_string()))?;
        dir.sync_all().map_err(|e| WalError::Io(e.to_string()))?;
        self.dir_syncs += 1;
        Ok(())
    }

    fn should_sync(&mut self) -> bool {
        match self.sync {
            SyncPolicy::Never => false,
            SyncPolicy::EveryAppend | SyncPolicy::EveryN(0) => true,
            SyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= n {
                    self.appends_since_sync = 0;
                    true
                } else {
                    false
                }
            }
        }
    }
}

impl JournalStore for FileStore {
    fn read(&self) -> Result<Vec<u8>, WalError> {
        std::fs::read(&self.path).map_err(|e| WalError::Io(e.to_string()))
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if self.wedged {
            return Err(WalError::Io(format!(
                "file store {} wedged after a failed append: durability indeterminate",
                self.path.display()
            )));
        }
        let result = (|| {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&self.path)
                .map_err(|e| WalError::Io(e.to_string()))?;
            file.write_all(bytes)
                .and_then(|()| file.flush())
                .map_err(|e| WalError::Io(e.to_string()))?;
            if self.should_sync() {
                file.sync_all().map_err(|e| WalError::Io(e.to_string()))?;
            }
            Ok(())
        })();
        if result.is_err() {
            // An error anywhere in the write/flush/fsync chain may have
            // left a partial suffix on the medium; wedge rather than risk
            // an fsync retry papering over dropped dirty pages.
            self.wedged = true;
        }
        result
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, bytes).map_err(|e| WalError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| WalError::Io(e.to_string()))?;
        if self.sync != SyncPolicy::Never {
            let file = std::fs::File::open(&self.path).map_err(|e| WalError::Io(e.to_string()))?;
            file.sync_all().map_err(|e| WalError::Io(e.to_string()))?;
        }
        // The rename itself lives in the directory entry: without this
        // fsync a crash can resurrect the pre-rename log image.
        self.sync_parent_dir()?;
        self.appends_since_sync = 0;
        // The whole log now matches a fully-written, freshly-synced file:
        // the indeterminate bytes a failed append left behind are gone.
        self.wedged = false;
        Ok(())
    }

    fn len(&self) -> Result<u64, WalError> {
        std::fs::metadata(&self.path)
            .map(|m| m.len())
            .map_err(|e| WalError::Io(e.to_string()))
    }

    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>, WalError> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut file = std::fs::File::open(&self.path).map_err(|e| WalError::Io(e.to_string()))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| WalError::Io(e.to_string()))?;
        let mut buf = vec![0u8; usize::try_from(len).map_err(|e| WalError::Io(e.to_string()))?];
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = file
                .read(&mut buf[filled..])
                .map_err(|e| WalError::Io(e.to_string()))?;
            if n == 0 {
                break; // short read past EOF: return the available suffix
            }
            filled += n;
        }
        buf.truncate(filled);
        Ok(buf)
    }
}

/// The shipping log: the one copy of the primary's journal that
/// replication reads. A [`TeeStore`] writes every frame into it in place,
/// and a shipper cuts windows straight from it under its lock
/// ([`LogOutbox::read`]). Cloning yields another handle on the same log.
///
/// The log holds the current generation's base image (the last wholesale
/// rewrite) and the frames appended since, minus the prefix every
/// follower has acknowledged ([`LogOutbox::trim`]). It never drops a frame
/// no follower holds, so a follower that falls behind is lag, never a
/// divergence.
#[derive(Debug, Clone, Default)]
pub struct LogOutbox {
    log: Arc<Mutex<ShippingLog>>,
}

impl LogOutbox {
    /// An empty log at generation 0.
    #[must_use]
    pub fn new() -> Self {
        LogOutbox::default()
    }

    /// Runs `f` on the log; the tee cannot write until it returns, so
    /// every value `f` reads belongs to one consistent state.
    pub fn read<R>(&self, f: impl FnOnce(&ShippingLog) -> R) -> R {
        f(&self.lock())
    }

    /// Drops the held frames before record `upto` of generation `gen`
    /// (every follower holds them). A stale `gen` trims nothing.
    pub fn trim(&self, gen: u64, upto: u64) {
        self.lock().trim(gen, upto);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShippingLog> {
        self.log.lock().expect("shipping log lock")
    }
}

/// The state behind a [`LogOutbox`]. Records are numbered from 0 within a
/// generation; the base image's records are not numbered.
#[derive(Debug, Default)]
pub struct ShippingLog {
    gen: u64,
    base: Vec<u8>,
    base_records: u64,
    /// The held frames, back to back; the first is record `first`.
    tail: Vec<u8>,
    /// `ends[i]` is the byte offset in `tail` just past record `first + i`.
    ends: Vec<usize>,
    first: u64,
}

impl ShippingLog {
    /// The generation: bumped by every wholesale rewrite of the log.
    #[must_use]
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// The image this generation started from.
    #[must_use]
    pub fn base(&self) -> &[u8] {
        &self.base
    }

    /// Frames in the base image.
    #[must_use]
    pub fn base_records(&self) -> u64 {
        self.base_records
    }

    /// Records appended in this generation, trimmed or not.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.first + self.ends.len() as u64
    }

    /// The first record still held: every earlier one was trimmed.
    #[must_use]
    pub fn first_held(&self) -> u64 {
        self.first
    }

    /// Records held, from [`ShippingLog::first_held`] to the end.
    #[must_use]
    pub fn held_records(&self) -> u64 {
        self.ends.len() as u64
    }

    /// Bytes of the held records.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.tail.len()
    }

    /// Up to `max` (at least one) contiguous frames from record `from`,
    /// with their count, as one slice of the tail; `None` when `from` is
    /// trimmed or past the end.
    #[must_use]
    pub fn window(&self, from: u64, max: usize) -> Option<(&[u8], u64)> {
        let i = usize::try_from(from.checked_sub(self.first)?).ok()?;
        if i >= self.ends.len() {
            return None;
        }
        let to = self.ends.len().min(i.saturating_add(max.max(1)));
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        Some((&self.tail[start..self.ends[to - 1]], (to - i) as u64))
    }

    fn append(&mut self, frame: &[u8]) {
        self.tail.extend_from_slice(frame);
        self.ends.push(self.tail.len());
    }

    fn reset(&mut self, image: &[u8]) {
        self.gen += 1;
        self.base.clear();
        self.base.extend_from_slice(image);
        self.base_records = crate::frame::decode_frames(image)
            .map_while(Result::ok)
            .count() as u64;
        self.tail.clear();
        self.ends.clear();
        self.first = 0;
    }

    fn trim(&mut self, gen: u64, upto: u64) {
        if gen != self.gen {
            return;
        }
        let n = usize::try_from(upto.saturating_sub(self.first))
            .map_or(self.ends.len(), |n| n.min(self.ends.len()));
        if n == 0 {
            return;
        }
        let cut = self.ends[n - 1];
        self.tail.drain(..cut);
        self.ends.drain(..n);
        for end in &mut self.ends {
            *end -= cut;
        }
        self.first += n as u64;
    }
}

/// A store wrapper that writes every successful append and rewrite into
/// a [`LogOutbox`] as well — how a replication primary observes its own
/// journal writes in order to ship them. Reads pass straight through.
#[derive(Debug)]
pub struct TeeStore<S: JournalStore> {
    inner: S,
    outbox: LogOutbox,
}

impl<S: JournalStore> TeeStore<S> {
    /// Wraps `inner`, writing every write into `outbox` too.
    #[must_use]
    pub fn new(inner: S, outbox: LogOutbox) -> Self {
        TeeStore { inner, outbox }
    }
}

impl<S: JournalStore> JournalStore for TeeStore<S> {
    fn read(&self) -> Result<Vec<u8>, WalError> {
        self.inner.read()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.inner.append(bytes)?;
        self.outbox.lock().append(bytes);
        Ok(())
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.inner.reset(bytes)?;
        self.outbox.lock().reset(bytes);
        Ok(())
    }

    fn len(&self) -> Result<u64, WalError> {
        self.inner.len()
    }

    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>, WalError> {
        self.inner.read_range(offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_clones_share_bytes() {
        let mut a = MemStore::new();
        let b = a.clone();
        a.append(b"hello").expect("append");
        assert_eq!(b.snapshot(), b"hello");
        assert_eq!(b.len().expect("len"), 5);
    }

    #[test]
    fn mem_store_reset_replaces_contents() {
        let mut s = MemStore::from_bytes(b"old".to_vec());
        s.reset(b"new-bytes").expect("reset");
        assert_eq!(s.snapshot(), b"new-bytes");
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("jaap-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        let mut s = FileStore::with_sync_policy(&path, SyncPolicy::EveryAppend).expect("open");
        assert!(s.is_empty().expect("empty"));
        s.append(b"abc").expect("append");
        s.append(b"def").expect("append");
        assert_eq!(s.read().expect("read"), b"abcdef");
        s.reset(b"zz").expect("reset");
        assert_eq!(s.read().expect("read"), b"zz");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_store_sync_policies_preserve_contents() {
        let dir = std::env::temp_dir().join(format!("jaap-wal-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (name, policy) in [
            ("never.wal", SyncPolicy::Never),
            ("every.wal", SyncPolicy::EveryAppend),
            ("nth.wal", SyncPolicy::EveryN(3)),
        ] {
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            let mut s = FileStore::with_sync_policy(&path, policy).expect("open");
            for i in 0..7u8 {
                s.append(&[i]).expect("append");
            }
            assert_eq!(s.read().expect("read"), vec![0, 1, 2, 3, 4, 5, 6]);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn read_range_clamps_to_log_end() {
        let mut s = MemStore::new();
        s.append(b"0123456789").expect("append");
        assert_eq!(s.read_range(2, 4).expect("range"), b"2345");
        assert_eq!(s.read_range(8, 10).expect("range"), b"89");
        assert_eq!(s.read_range(20, 4).expect("range"), b"");
    }

    #[test]
    fn file_store_read_range_matches_mem_semantics() {
        let dir = std::env::temp_dir().join(format!("jaap-wal-range-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        let mut s = FileStore::with_sync_policy(&path, SyncPolicy::EveryAppend).expect("open");
        s.append(b"0123456789").expect("append");
        assert_eq!(s.read_range(2, 4).expect("range"), b"2345");
        assert_eq!(s.read_range(8, 10).expect("range"), b"89");
        assert_eq!(s.read_range(20, 4).expect("range"), b"");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_store_fsyncs_directory_on_create_and_reset() {
        let dir = std::env::temp_dir().join(format!("jaap-wal-dirsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        let mut s = FileStore::with_sync_policy(&path, SyncPolicy::EveryAppend).expect("open");
        assert_eq!(s.dir_syncs(), 1, "creation must make the entry durable");
        s.append(b"abc").expect("append");
        s.reset(b"zz").expect("reset");
        assert_eq!(s.dir_syncs(), 2, "rename must be followed by a dir fsync");
        // Re-opening an existing log needs no directory work.
        let reopened = FileStore::with_sync_policy(&path, SyncPolicy::EveryAppend).expect("reopen");
        assert_eq!(reopened.dir_syncs(), 0);
        // `Never` opts out of directory durability along with file fsyncs.
        let lazy_path = dir.join("lazy.wal");
        let _ = std::fs::remove_file(&lazy_path);
        let mut lazy = FileStore::with_sync_policy(&lazy_path, SyncPolicy::Never).expect("open");
        lazy.reset(b"x").expect("reset");
        assert_eq!(lazy.dir_syncs(), 0);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&lazy_path);
    }

    #[test]
    fn file_store_wedges_after_a_failed_append_and_reset_recovers() {
        let dir = std::env::temp_dir().join(format!("jaap-wal-wedge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        let mut s = FileStore::with_sync_policy(&path, SyncPolicy::EveryAppend).expect("open");
        s.append(b"abc").expect("append");
        assert!(!s.wedged());
        // Yank the file out from under the store: the next append fails.
        std::fs::remove_file(&path).expect("remove");
        assert!(s.append(b"def").is_err());
        assert!(s.wedged());
        // Restore the medium; the store still refuses — no fsync retry.
        std::fs::File::create(&path).expect("recreate");
        assert!(s.append(b"def").is_err(), "wedged store must not retry");
        assert!(s.wedged());
        // A successful reset rewrites the whole log and clears the wedge.
        s.reset(b"snapshot").expect("reset");
        assert!(!s.wedged());
        s.append(b"tail").expect("append after reset");
        assert_eq!(s.read().expect("read"), b"snapshottail");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tee_store_writes_the_shipping_log() {
        let outbox = LogOutbox::new();
        let inner = MemStore::new();
        let mut tee = TeeStore::new(inner.clone(), outbox.clone());
        let frames = |payloads: &[&[u8]]| -> Vec<u8> {
            payloads
                .iter()
                .flat_map(|p| crate::frame_record(p))
                .collect()
        };
        // Base plus every window from record 0 is the inner store's log.
        let shipped = |outbox: &LogOutbox, window: usize| {
            outbox.read(|log| {
                let mut bytes = log.base().to_vec();
                let mut from = 0;
                while let Some((frames, count)) = log.window(from, window) {
                    bytes.extend_from_slice(frames);
                    from += count;
                }
                assert_eq!(from, log.records());
                (log.gen(), log.base_records(), bytes)
            })
        };
        tee.append(&frames(&[b"one"])).expect("append");
        tee.append(&frames(&[b"two"])).expect("append");
        assert_eq!(shipped(&outbox, 1), (0, 0, inner.snapshot()));
        tee.reset(&frames(&[b"im", b"age"])).expect("reset");
        tee.append(&frames(&[b"three"])).expect("append");
        tee.append(&frames(&[b"four"])).expect("append");
        tee.append(&frames(&[b"five"])).expect("append");
        assert_eq!(shipped(&outbox, 2), (1, 2, inner.snapshot()));
        tee.reset(&frames(&[b"again"])).expect("reset");
        tee.append(&frames(&[b"six"])).expect("append");
        assert_eq!(shipped(&outbox, 8), (2, 1, inner.snapshot()));
        assert_eq!(tee.read().expect("read"), inner.snapshot());
        // Trimming drops only the held prefix of the named generation.
        outbox.trim(1, 1);
        assert_eq!(outbox.read(ShippingLog::held_records), 1);
        outbox.trim(2, 1);
        outbox.read(|log| {
            assert_eq!(
                (log.first_held(), log.held_records(), log.held_bytes()),
                (1, 0, 0)
            );
            assert_eq!(log.window(0, 8), None);
        });
    }
}
