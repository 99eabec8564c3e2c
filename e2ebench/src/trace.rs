//! In-memory spans taken around the benchmark's own calls into each
//! layer, plus the timed journal-store wrapper that observes `jaap-wal`
//! appends from outside the program.
//!
//! A span is `(name, start, end, parent, request id)`. Spans stay in
//! memory while the workload runs and are written out as JSON lines when
//! it ends; the per-layer metrics are derived from them.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jaap_wal::{JournalStore, WalError};

use crate::stats::Summary;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was taken around.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for work not tied to a request).
    pub req: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder. Disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its index (usable as a parent),
    /// or `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Merges spans taken elsewhere (for example by [`WalProbe`]). Each
    /// gets as its parent the latest-starting top-level span (a request,
    /// an admin mutation, a probe…) if that span contains it.
    pub fn adopt(&mut self, name: &'static str, intervals: &[(u64, u64)]) {
        if !self.enabled {
            return;
        }
        let mut owners: Vec<(u64, u64, usize, u64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| (s.start_ns, s.end_ns, i, s.req))
            .collect();
        owners.sort_unstable();
        for &(start, end) in intervals {
            let at = owners.partition_point(|o| o.0 <= start);
            let owner = at.checked_sub(1).map(|i| owners[i]).filter(|o| o.1 >= end);
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent: owner.map(|o| o.2),
                req: owner.map_or(0, |o| o.3),
            });
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Summary of the durations of spans called `name`.
    #[must_use]
    pub fn summary(&self, name: &str) -> Summary {
        Summary::of(&self.durations_us(name))
    }

    /// Total µs of spans named in `names` that lie inside a span called
    /// `window`.
    #[must_use]
    pub fn total_within_us(&self, names: &[&str], window: &str) -> f64 {
        let windows: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.name == window)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .filter(|s| windows.iter().any(|w| w.0 <= s.start_ns && s.end_ns <= w.1))
            .map(Span::us)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        out.flush()
    }
}

/// Shared counters of the journal-store wrapper: bytes and appends
/// always, and append intervals when tracing.
#[derive(Debug)]
pub struct WalProbe {
    epoch: Instant,
    tracing: bool,
    bytes: AtomicU64,
    appends: AtomicU64,
    intervals: Mutex<Vec<(u64, u64)>>,
}

impl WalProbe {
    /// A probe timing appends against `epoch` when `tracing`.
    #[must_use]
    pub fn new(epoch: Instant, tracing: bool) -> Arc<Self> {
        Arc::new(WalProbe {
            epoch,
            tracing,
            bytes: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            intervals: Mutex::new(Vec::new()),
        })
    }

    /// Bytes appended so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Appends so far.
    #[must_use]
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Takes the recorded append intervals.
    #[must_use]
    pub fn take_intervals(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.intervals.lock().expect("wal probe lock"))
    }
}

/// A [`JournalStore`] that forwards to `inner` and reports each append
/// to a [`WalProbe`].
#[derive(Debug)]
pub struct TimedStore<S: JournalStore> {
    inner: S,
    probe: Arc<WalProbe>,
}

impl<S: JournalStore> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, probe: Arc<WalProbe>) -> Self {
        TimedStore { inner, probe }
    }
}

impl<S: JournalStore> JournalStore for TimedStore<S> {
    fn read(&self) -> Result<Vec<u8>, WalError> {
        self.inner.read()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let start = self.probe.tracing.then(Instant::now);
        let result = self.inner.append(bytes);
        if let Some(start) = start {
            let end = Instant::now();
            let ns = |t: Instant| t.saturating_duration_since(self.probe.epoch).as_nanos() as u64;
            self.probe
                .intervals
                .lock()
                .expect("wal probe lock")
                .push((ns(start), ns(end)));
        }
        if result.is_ok() {
            self.probe
                .bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            self.probe.appends.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.inner.reset(bytes)
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
    use jaap_wal::MemStore;

    #[test]
    fn adopt_links_inner_spans_to_their_owner() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let a = epoch + std::time::Duration::from_micros(10);
        let b = epoch + std::time::Duration::from_micros(50);
        let owner = t.record("request", a, b, None, 7).expect("enabled");
        t.adopt("wal.append", &[(20_000, 30_000), (60_000, 70_000)]);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(owner));
        assert_eq!(spans[1].req, 7);
        assert_eq!(spans[2].parent, None);
        assert_eq!(t.summary("request").n, 1);
        assert!((t.summary("request").median - 40.0).abs() < 1e-9);
        t.record("window", epoch, b, None, 0);
        assert!((t.total_within_us(&["request", "wal.append"], "window") - 50.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut t = Tracer::new(false, epoch);
        assert!(t.record("x", epoch, epoch, None, 0).is_none());
        t.adopt("y", &[(0, 1)]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn timed_store_counts_appends() {
        let probe = WalProbe::new(Instant::now(), true);
        let mut s = TimedStore::new(MemStore::new(), Arc::clone(&probe));
        s.append(b"abc").expect("append");
        s.append(b"de").expect("append");
        assert_eq!(probe.bytes(), 5);
        assert_eq!(probe.appends(), 2);
        assert_eq!(probe.take_intervals().len(), 2);
        assert_eq!(s.read().expect("read"), b"abcde".to_vec());
    }
}
