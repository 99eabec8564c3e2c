//! The timed phase of each workload, the admin mutations, replication,
//! recovery and every correctness check. Only calls into the system run
//! here: all signing and issuance happened in [`crate::world`].

use std::path::Path;
use std::time::Instant;

use jaap_coalition::server::{CoalitionServer, ServerDecision};
use jaap_core::memo::MemoStats;
use jaap_obs::MetricsRegistry;
use jaap_wal::{FileStore, SyncPolicy};

use crate::pace::Pace;
use crate::sys;
use crate::trace::Tracer;
use crate::world::{AdminAction, AdminKind, AdminOp, World, MAX_SYNC_ROUNDS};

/// Deltas of the counters and histogram sums the program already exports
/// through `jaap-obs` (read only in traced runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsReading {
    /// `server.phase.crypto_ns` (sum ns, count).
    pub crypto: (u64, u64),
    /// `server.phase.logic_ns`.
    pub logic: (u64, u64),
    /// `server.phase.acl_ns`.
    pub acl: (u64, u64),
    /// `server.replay.hits`.
    pub replay_hits: u64,
    /// `server.crypto.precomp_hits`.
    pub precomp_hits: u64,
    /// `server.crypto.batch_verifies`.
    pub batch_verifies: u64,
    /// `store.reads`.
    pub store_reads: u64,
    /// `store.misses`.
    pub store_misses: u64,
}

impl ObsReading {
    /// Reads the shard's scoped registry.
    #[must_use]
    pub fn read(reg: &MetricsRegistry) -> Self {
        let hist = |name: &str| {
            reg.histogram_snapshot(name)
                .map_or((0, 0), |h| (h.sum, h.count))
        };
        let counter = |name: &str| reg.counter_value(name).unwrap_or(0);
        ObsReading {
            crypto: hist("server.phase.crypto_ns"),
            logic: hist("server.phase.logic_ns"),
            acl: hist("server.phase.acl_ns"),
            replay_hits: counter("server.replay.hits"),
            precomp_hits: counter("server.crypto.precomp_hits"),
            batch_verifies: counter("server.crypto.batch_verifies"),
            store_reads: counter("store.reads"),
            store_misses: counter("store.misses"),
        }
    }

    /// `self - earlier`, field by field.
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        ObsReading {
            crypto: d(self.crypto, earlier.crypto),
            logic: d(self.logic, earlier.logic),
            acl: d(self.acl, earlier.acl),
            replay_hits: self.replay_hits - earlier.replay_hits,
            precomp_hits: self.precomp_hits - earlier.precomp_hits,
            batch_verifies: self.batch_verifies - earlier.batch_verifies,
            store_reads: self.store_reads - earlier.store_reads,
            store_misses: self.store_misses - earlier.store_misses,
        }
    }
}

/// Everything one pass measured, raw.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Decisions of the timed phase (reads or writes; probes excluded).
    pub decisions: u64,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Each step of the timed phase (a `decide` or `decide_batch` call
    /// with its store lookups) as (decisions, µs at the reference pace).
    pub steps: Vec<(usize, f64)>,
    /// Reference kernel times taken over the timed phase, µs.
    pub pace_us: Vec<f64>,
    /// Process CPU time over the timed phase.
    pub cpu_us: f64,
    /// Per-request latency, µs at the reference pace, in offer order.
    pub latencies_us: Vec<f64>,
    /// Journal bytes appended during the timed phase.
    pub journal_bytes: u64,
    /// Journal appends during the timed phase.
    pub journal_appends: u64,
    /// Admin mutation latencies, µs at the reference pace, with their
    /// kind.
    pub admin_us: Vec<(AdminKind, f64)>,
    /// Replication lag after each mutation, ms.
    pub lag_ms: Vec<f64>,
    /// Sync rounds per mutation.
    pub sync_rounds: Vec<usize>,
    /// `CoalitionServer::recover` times, ms at the reference pace.
    pub recover_ms: Vec<f64>,
    /// Records each recovery replayed.
    pub records_replayed: usize,
    /// Operations attempted (decisions, probes, mutations, syncs,
    /// recoveries).
    pub attempted: u64,
    /// Errors plus typed sheds.
    pub failed: u64,
    /// Correctness mismatches (first few kept verbatim).
    pub mismatches: Vec<String>,
    /// Mismatch count.
    pub mismatch_count: u64,
    /// Σ signature checks performed in the timed phase.
    pub checks: u64,
    /// Σ checks served from the verify cache.
    pub cached_checks: u64,
    /// Σ axiom applications.
    pub axioms: u64,
    /// Memo statistics over the timed phase (hits, misses).
    pub memo: (u64, u64),
    /// Registry deltas over the timed phase (traced runs).
    pub obs: Option<ObsReading>,
    /// Store-resident bytes at the end of the timed phase.
    pub resident_bytes: u64,
    /// Pool workers used.
    pub workers: usize,
}

impl RunResult {
    /// An empty result for a pass on `workers` pool workers.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        RunResult {
            workers,
            ..RunResult::default()
        }
    }

    /// Appends every sample and count of `other` (another world's pass
    /// of the same workload) to this result.
    pub fn merge(&mut self, other: RunResult) {
        self.absorb(&other);
        self.decisions += other.decisions;
        self.wall_s += other.wall_s;
        self.steps.extend(other.steps);
        self.pace_us.extend(other.pace_us);
        self.cpu_us += other.cpu_us;
        self.latencies_us.extend(other.latencies_us);
        self.journal_bytes += other.journal_bytes;
        self.journal_appends += other.journal_appends;
        self.admin_us.extend(other.admin_us);
        self.lag_ms.extend(other.lag_ms);
        self.sync_rounds.extend(other.sync_rounds);
        self.recover_ms.extend(other.recover_ms);
        self.records_replayed = other.records_replayed;
        self.checks += other.checks;
        self.cached_checks += other.cached_checks;
        self.axioms += other.axioms;
        self.memo = (self.memo.0 + other.memo.0, self.memo.1 + other.memo.1);
        self.resident_bytes = self.resident_bytes.max(other.resident_bytes);
    }

    /// Adds `other`'s operation counts and mismatches to this result.
    pub fn absorb(&mut self, other: &RunResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatch_count += other.mismatch_count;
        for m in &other.mismatches {
            if self.mismatches.len() < 8 {
                self.mismatches.push(m.clone());
            }
        }
    }

    fn mismatch(&mut self, what: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    /// Counts one decision: a shed or unavailable decision is a failure;
    /// a verdict other than `grant` is a mismatch.
    /// `what` names the decision; it is only formatted on a mismatch.
    fn judge(&mut self, d: &ServerDecision, grant: bool, what: impl Fn() -> String) {
        self.attempted += 1;
        if d.shed.is_some() || d.unavailable {
            self.failed += 1;
            self.mismatch(format!("{}: shed/unavailable: {:?}", what(), d.detail));
        } else if d.granted != grant {
            self.mismatch(format!(
                "{}: granted={} expected {grant} ({:?})",
                what(),
                d.granted,
                d.detail
            ));
        }
    }

    /// Counts the checks, cache hits and axioms a timed decision rests on.
    fn account(&mut self, d: &ServerDecision) {
        self.checks += d.signature_checks as u64;
        self.cached_checks += d.cached_signature_checks as u64;
        self.axioms += d.axiom_applications as u64;
    }

    /// True when every check passed and nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatch_count == 0 && self.failed == 0
    }
}

fn memo_stats(world: &World) -> MemoStats {
    world
        .front
        .shard(0)
        .read(CoalitionServer::derivation_memo_stats)
        .unwrap_or_default()
}

/// Warm-up, part of set-up and outside every timed sample: one read per
/// principal (first sight of every certificate: admission, journal,
/// store rows), then one pass over the read pool or the first replay
/// window's worth of writes, then a replication sync. Returns the pool
/// position the timed phase starts at.
pub fn warm_up(world: &mut World, r: &mut RunResult) -> usize {
    for (i, req) in world.warm.clone().iter().enumerate() {
        let d = world.front.decide(req);
        r.judge(&d, true, || format!("warm-up read {i}"));
    }
    let start = if world.profile.workload.is_read() {
        for k in 0..world.reads.len() {
            match world.fetch_read(k) {
                Ok(req) => {
                    let d = world.front.decide(&req);
                    r.judge(&d, true, || format!("warm-up pool read {k}"));
                }
                Err(e) => {
                    r.attempted += 1;
                    r.failed += 1;
                    r.mismatch(e);
                }
            }
        }
        0
    } else {
        let n = world.profile.capacities.replay.min(world.writes.len());
        for k in 0..n {
            let w = world.writes[k].clone();
            let d = world.front.decide(&w.request);
            r.judge(&d, w.grant, || format!("warm-up write {k}"));
        }
        n
    };
    sync(world, r, None);
    start
}

/// Runs one replication sync; returns (ms, rounds).
fn sync(world: &mut World, r: &mut RunResult, tracer: Option<&mut Tracer>) -> (f64, usize) {
    let t = Instant::now();
    let rounds = world.repl.sync(MAX_SYNC_ROUNDS);
    let end = Instant::now();
    r.attempted += 1;
    if !world.repl.primary.all_caught_up() {
        r.failed += 1;
        r.mismatch(format!("replica not caught up after {rounds} rounds"));
    }
    if let Some(tr) = tracer {
        tr.record("repl.sync", t, end, None, 0);
    }
    ((end - t).as_secs_f64() * 1e3, rounds)
}

/// Presents a probe by the target of a `kind` revocation: granted before
/// the revocation, denied after it.
fn probe(
    world: &World,
    req: &jaap_coalition::request::JointAccessRequest,
    grant: bool,
    kind: AdminKind,
    r: &mut RunResult,
    tracer: &mut Tracer,
) {
    let t = Instant::now();
    let d = world.front.decide(req);
    tracer.record("probe", t, Instant::now(), None, 0);
    let side = if grant { "before" } else { "after" };
    r.judge(&d, grant, || format!("probe {side} {kind:?}"));
}

/// Applies one admin mutation and syncs the replica. A revocation is
/// bracketed by probes of its target: granted just before, denied after.
fn admin(world: &mut World, op: &AdminOp, pace: &Pace, r: &mut RunResult, tracer: &mut Tracer) {
    if let Some(req) = &op.before {
        probe(world, req, true, op.kind, r, tracer);
    }
    let t = Instant::now();
    let outcome: Result<(), String> = match &op.action {
        AdminAction::Crl(crl) => world
            .front
            .admit_crl(crl)
            .into_iter()
            .collect::<Result<(), _>>()
            .map_err(|e| e.to_string()),
        AdminAction::Revoke(rev) => world
            .front
            .admit_attribute_revocation(rev)
            .into_iter()
            .collect::<Result<(), _>>()
            .map_err(|e| e.to_string()),
        AdminAction::Acl(acl) => world
            .front
            .shard(0)
            .with_writer(|s| s.set_acl(jaap_coalition::scenario::OBJECT_O, acl.clone()))
            .map_err(|e| e.to_string()),
        AdminAction::Tick(to) => world.front.advance_clock(*to).map_err(|e| e.to_string()),
    };
    let end = Instant::now();
    tracer.record(op.kind.span(), t, end, None, 0);
    r.attempted += 1;
    if let Err(e) = outcome {
        r.failed += 1;
        r.mismatch(format!("{:?} failed: {e}", op.kind));
    }
    r.admin_us
        .push((op.kind, pace.scale((end - t).as_secs_f64() * 1e6)));
    let (ms, rounds) = sync(world, r, Some(tracer));
    r.lag_ms.push(ms);
    r.sync_rounds.push(rounds);
    if let Some(req) = &op.probe {
        probe(world, req, false, op.kind, r, tracer);
    }
}

/// Recovers a server from the journal at `path`. Returns it with the
/// time `CoalitionServer::recover` took, in ms.
fn recover_from(
    path: &Path,
    world: &World,
    r: &mut RunResult,
    tracer: &mut Tracer,
) -> Option<(CoalitionServer, f64)> {
    r.attempted += 1;
    let t = Instant::now();
    let outcome = FileStore::with_sync_policy(path, SyncPolicy::Never)
        .map_err(|e| e.to_string())
        .and_then(|store| {
            CoalitionServer::recover("P", world.trust.clone(), Box::new(store))
                .map_err(|e| e.to_string())
        });
    let end = Instant::now();
    tracer.record("recover", t, end, None, 0);
    match outcome {
        Ok((server, report)) => {
            r.records_replayed = report.records_replayed;
            if report.truncation.is_some() {
                r.mismatch(format!("recovery truncated: {:?}", report.truncation));
            }
            Some((server, (end - t).as_secs_f64() * 1e3))
        }
        Err(e) => {
            r.failed += 1;
            r.mismatch(format!("recover: {e}"));
            None
        }
    }
}

/// `n` events spread evenly over the `steps` steps of a timed phase: the
/// k-th sits in the middle of the k-th equal share.
struct Slots {
    n: usize,
    steps: usize,
    done: usize,
}

impl Slots {
    fn new(n: usize, steps: usize) -> Self {
        Slots {
            n,
            steps: steps.max(1),
            done: 0,
        }
    }

    /// The index of the next event due before step `i`, if any.
    fn take(&mut self, i: usize) -> Option<usize> {
        let due = self.done < self.n && (2 * self.done + 1) * self.steps / (2 * self.n) <= i;
        due.then(|| {
            self.done += 1;
            self.done - 1
        })
    }
}

/// Work interleaved with a timed phase but left out of its per-decision
/// figures, spread evenly over the phase so that it samples the host over
/// the whole run and not in one burst: the admin mutations (with their
/// syncs and probes), the `recover_ms` samples, which recover the
/// previous world's final journal, and the reference kernel runs that
/// keep the host's pace. Keeps the wall time, CPU time and journal output
/// this work cost.
struct Interleaved<'a> {
    /// Final journal of the previous world, if there is one.
    source: Option<&'a Path>,
    pace: Pace,
    recoveries: Slots,
    admin: Slots,
    wall_s: f64,
    cpu_us: f64,
    bytes: u64,
    appends: u64,
}

impl<'a> Interleaved<'a> {
    fn new(world: &World, source: Option<&'a Path>, steps: usize) -> Self {
        Interleaved {
            source,
            pace: Pace::new(),
            recoveries: Slots::new(world.profile.recover_runs, steps),
            admin: Slots::new(world.admin.len(), steps),
            wall_s: 0.0,
            cpu_us: 0.0,
            bytes: 0,
            appends: 0,
        }
    }

    /// Runs `f` and adds what it cost.
    fn measure(&mut self, world: &mut World, f: impl FnOnce(&mut World, &mut Pace)) {
        let (bytes0, appends0) = (world.wal.bytes(), world.wal.appends());
        let cpu0 = sys::process_cpu_us();
        let t = Instant::now();
        f(world, &mut self.pace);
        self.wall_s += t.elapsed().as_secs_f64();
        self.cpu_us += sys::process_cpu_us() - cpu0;
        self.bytes += world.wal.bytes() - bytes0;
        self.appends += world.wal.appends() - appends0;
    }

    /// Runs the reference kernel if it is due, then the admin mutations
    /// and recoveries due before step `i`.
    fn due(&mut self, world: &mut World, i: usize, r: &mut RunResult, tracer: &mut Tracer) {
        if self.pace.due() {
            self.measure(world, |_, pace| {
                let t = Instant::now();
                pace.run();
                tracer.record("pace", t, Instant::now(), None, 0);
            });
        }
        while let Some(k) = self.admin.take(i) {
            let op = world.admin[k].clone();
            self.measure(world, |w, pace| admin(w, &op, pace, r, tracer));
        }
        let Some(source) = self.source else { return };
        while self.recoveries.take(i).is_some() {
            self.measure(world, |w, pace| {
                if let Some((_, ms)) = recover_from(source, w, r, tracer) {
                    r.recover_ms.push(pace.scale(ms));
                }
            });
        }
    }

    /// Records one step of `decisions` that took `us` of wall time, and
    /// returns its time at the reference pace.
    fn step(&self, r: &mut RunResult, decisions: usize, us: f64) -> f64 {
        let paced = self.pace.scale(us);
        r.steps.push((decisions, paced));
        paced
    }
}

/// A granted read must carry the encrypted object (Figure 2(d)).
fn judge_read(r: &mut RunResult, d: &ServerDecision, what: impl Fn() -> String) {
    if d.granted && d.response.is_none() {
        r.mismatch(format!(
            "{}: granted read without an encrypted response",
            what()
        ));
    }
    r.judge(d, true, what);
}

/// Closed loop, one client: fetch a batch's certificates from the store,
/// decide it, next batch. A batch of 1 goes through `decide`; larger
/// batches through `decide_batch` on `workers` pool workers. Every
/// request of a batch sees the batch's latency.
fn read_loop(
    world: &mut World,
    start: usize,
    workers: usize,
    skipped: &mut Interleaved,
    r: &mut RunResult,
    tracer: &mut Tracer,
) {
    let k_max = world.reads.len();
    let b = world.profile.batch;
    for j in 0..world.profile.requests.div_ceil(b) {
        skipped.due(world, j, r, tracer);
        let id = j as u64 + 1;
        let t0 = Instant::now();
        let mut reqs = Vec::with_capacity(b);
        for i in j * b..((j + 1) * b).min(world.profile.requests) {
            match world.fetch_read((start + i) % k_max) {
                Ok(req) => reqs.push(req),
                Err(e) => {
                    r.attempted += 1;
                    r.failed += 1;
                    r.mismatch(e);
                }
            }
        }
        let t1 = Instant::now();
        let ds = if b == 1 {
            reqs.iter().map(|q| world.front.decide(q)).collect()
        } else {
            world.front.decide_batch(&reqs, workers)
        };
        let t2 = Instant::now();
        let lat = skipped.step(r, ds.len(), (t2 - t0).as_secs_f64() * 1e6);
        if tracer.enabled() {
            let root = tracer.record("request", t0, t2, None, id);
            tracer.record("store.lookup", t0, t1, root, id);
            tracer.record("front.decide", t1, t2, root, id);
        }
        for (i, d) in ds.iter().enumerate() {
            r.latencies_us.push(lat);
            r.account(d);
            judge_read(r, d, || format!("batch {j} read {i}"));
        }
    }
}

/// Closed loop of joint writes.
fn write_loop(
    world: &mut World,
    start: usize,
    skipped: &mut Interleaved,
    r: &mut RunResult,
    tracer: &mut Tracer,
) {
    for i in 0..world.profile.requests {
        skipped.due(world, i, r, tracer);
        let w = &world.writes[(start + i) % world.writes.len()];
        let id = i as u64 + 1;
        let t0 = Instant::now();
        let d = world.front.decide(&w.request);
        let t1 = Instant::now();
        let lat = skipped.step(r, 1, (t1 - t0).as_secs_f64() * 1e6);
        r.latencies_us.push(lat);
        if tracer.enabled() {
            let root = tracer.record("request", t0, t1, None, id);
            tracer.record("front.decide", t0, t1, root, id);
        }
        r.account(&d);
        let grant = w.grant;
        r.judge(&d, grant, || format!("write {i}"));
    }
}

/// Runs one pass on a warmed-up `world` from pool position `start`: the
/// timed phase, final replication and byte comparison, and the
/// live-versus-recovered probe comparison. Spread over the timed phase
/// run the admin mutations and the `recover_ms` samples over `previous`,
/// the final journal of the previous world of the run (a run's first
/// world takes none). Wall time, CPU time and journal output of the
/// timed phase leave out this interleaved work. The world's own final journal is copied to `keep`
/// for the next world. `r` already holds the warm-up's checks;
/// `registry` is the shard's scoped registry in traced runs.
pub fn run(
    world: &mut World,
    start: usize,
    mut r: RunResult,
    tracer: &mut Tracer,
    registry: Option<&MetricsRegistry>,
    previous: Option<&Path>,
    keep: &Path,
) -> RunResult {
    let obs0 = registry.map(ObsReading::read);
    let memo0 = memo_stats(world);
    let (bytes0, appends0) = (world.wal.bytes(), world.wal.appends());
    let cpu0 = sys::process_cpu_us();
    let t0 = Instant::now();
    let steps = world.profile.requests.div_ceil(world.profile.batch.max(1));
    let mut skipped = Interleaved::new(world, previous, steps);
    if world.profile.workload.is_read() {
        let workers = r.workers;
        read_loop(world, start, workers, &mut skipped, &mut r, tracer);
    } else {
        write_loop(world, start, &mut skipped, &mut r, tracer);
    }
    let t1 = Instant::now();
    tracer.record("phase.timed", t0, t1, None, 0);
    r.wall_s = (t1 - t0).as_secs_f64() - skipped.wall_s;
    r.cpu_us = sys::process_cpu_us() - cpu0 - skipped.cpu_us;
    r.journal_bytes = world.wal.bytes() - bytes0 - skipped.bytes;
    r.journal_appends = world.wal.appends() - appends0 - skipped.appends;
    r.decisions = world.profile.requests as u64;
    r.pace_us = std::mem::take(&mut skipped.pace.samples);
    let memo1 = memo_stats(world);
    r.memo = (memo1.hits - memo0.hits, memo1.misses - memo0.misses);
    r.obs = registry.map(|reg| ObsReading::read(reg).since(&obs0.unwrap_or_default()));
    r.resident_bytes = world.store.resident_bytes();

    verify_replica(world, &mut r);
    recover_and_compare(world, keep, &mut r, tracer);
    tracer.adopt("wal.append", &world.wal.take_intervals());
    r
}

/// Final sync, then the replica's log must byte-match the primary's.
fn verify_replica(world: &mut World, r: &mut RunResult) {
    sync(world, r, None);
    let primary = std::fs::read(&world.journal_path).unwrap_or_default();
    let replica = world.repl.replicas[0].store().snapshot();
    if primary.is_empty() || primary != replica {
        r.mismatch(format!(
            "replica log ({} bytes) does not byte-match the primary's ({} bytes)",
            replica.len(),
            primary.len()
        ));
    }
}

/// Copies the final journal to `keep`, recovers a server from the copy,
/// and checks that it answers the probe set exactly like the live one,
/// and both as expected.
fn recover_and_compare(world: &mut World, keep: &Path, r: &mut RunResult, tracer: &mut Tracer) {
    if let Err(e) = std::fs::copy(&world.journal_path, keep) {
        r.attempted += 1;
        r.failed += 1;
        r.mismatch(format!("copy journal: {e}"));
        return;
    }
    let recovered = recover_from(keep, world, r, tracer);
    let Some((mut twin, _)) = recovered else {
        return;
    };
    for (i, p) in world.probes.clone().iter().enumerate() {
        let live = world
            .front
            .shard(0)
            .with_writer(|s| s.handle_request(&p.request));
        let rec = twin.handle_request(&p.request);
        r.judge(&live, p.grant, || format!("live probe {i}"));
        r.judge(&rec, p.grant, || format!("recovered probe {i}"));
        if (live.granted, &live.detail) != (rec.granted, &rec.detail) {
            r.mismatch(format!(
                "probe {i}: live {:?}/{:?} vs recovered {:?}/{:?}",
                live.granted, live.detail, rec.granted, rec.detail
            ));
        }
    }
}
