//! Experiment E15: cost and coverage of the observability layer.
//!
//! Part A prices the instrumentation on the E14 batch-decision scenario:
//! the same pre-signed requests are pushed through `verify_batch` with the
//! metrics registry detached and attached, best-of-N, and the run *fails*
//! if the attached path costs more than 5% throughput — the layer must be
//! cheap enough to leave on.
//!
//! Part B exercises an observed coalition end to end — cached + replayed
//! decisions, plus a lossy networked signing session — and dumps the full
//! registry (per-phase latency histograms, cache/replay/retry counters,
//! per-link network outcomes) as the machine-readable record.
//!
//! Set `E15_PROFILE=smoke` for a seconds-scale run (CI).
//!
//! Machine-readable record: one line, grep `"^E15_JSON "`.

use criterion::{criterion_group, Criterion};
use jaap_bench::{standard_coalition, table_header};
use jaap_coalition::scenario::Coalition;
use jaap_coalition::server::CapacityConfig;
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_crypto::session::SessionConfig;
use jaap_net::FaultPlan;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("E15_PROFILE").is_ok_and(|v| v == "smoke")
}

/// Maximum tolerated throughput overhead of the attached registry.
const MAX_OVERHEAD_PCT: f64 = 5.0;

/// One timed `verify_batch` pass over `requests` against a cold server.
fn batch_ms(
    c: &mut Coalition,
    requests: &[jaap_coalition::request::JointAccessRequest],
    workers: usize,
) -> f64 {
    c.reset_server();
    let started = Instant::now();
    let decisions = c.server_mut().verify_batch(requests, workers);
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    assert!(decisions.iter().all(|d| d.granted), "all writes must grant");
    elapsed
}

struct OverheadPoint {
    bits: usize,
    workers: usize,
    requests: usize,
    off_ms: f64,
    on_ms: f64,
}

impl OverheadPoint {
    fn overhead_pct(&self) -> f64 {
        (self.on_ms - self.off_ms) / self.off_ms * 100.0
    }
}

/// Interleaved best-of-`rounds` comparison: each round times one detached
/// and one attached pass back to back, so drift hits both arms equally.
fn measure_overhead(bits: usize, workers: usize, n_requests: usize, rounds: u32) -> OverheadPoint {
    let mut c = standard_coalition(bits, 0xE15);
    let mut requests = Vec::with_capacity(n_requests);
    for i in 0..n_requests {
        c.advance_time(Time(20 + i as i64)).expect("clock");
        requests.push(
            c.build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
                .expect("request"),
        );
    }
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    for _ in 0..rounds {
        c.disable_metrics();
        off_ms = off_ms.min(batch_ms(&mut c, &requests, workers));
        c.enable_metrics();
        on_ms = on_ms.min(batch_ms(&mut c, &requests, workers));
    }
    OverheadPoint {
        bits,
        workers,
        requests: n_requests,
        off_ms,
        on_ms,
    }
}

/// Part B: an observed coalition worked hard enough that every instrument
/// family shows up in the snapshot. Returns the registry JSON.
fn observed_scenario(bits: usize) -> String {
    let mut c = standard_coalition(bits, 0xE15 + 1);
    let registry = c.enable_metrics();
    c.server_mut().set_replay_protection(true).expect("config");
    c.server_mut()
        .apply_capacity_config(&CapacityConfig {
            replay: 4,
            ..CapacityConfig::default()
        })
        .expect("config");
    c.set_verification_cache(true).expect("config");

    // Cached + replayed decisions: repeats hit the verification cache, the
    // literal duplicate hits the replay window, and the tiny window evicts.
    let mut first = None;
    for i in 0..6 {
        c.advance_time(Time(20 + i)).expect("clock");
        let req = c
            .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
            .expect("request");
        let d = c.server_mut().handle_request(&req);
        assert!(d.granted);
        first.get_or_insert(req);
    }
    let dup = first.expect("at least one request");
    c.server_mut().handle_request(&dup); // evicted by now: re-processed
    let fresh = c
        .build_request(&["User_D1"], Operation::new("read", "Object O"))
        .expect("read");
    let d = c.server_mut().handle_request(&fresh);
    assert!(d.granted);
    c.server_mut().handle_request(&fresh); // genuine replay hit

    // A lossy networked signing session: rounds, retries/backoff and
    // per-link drop/delivery counters land in the same registry.
    c.aa_mut()
        .set_signing_mode(jaap_coalition::aa::SigningMode::Networked);
    c.set_fault_plan(FaultPlan::seeded(0xE15).with_drop(0.25));
    c.set_session_config(SessionConfig::fast());
    c.advance_time(Time(40)).expect("clock");
    let networked = c
        .request_write(&["User_D1", "User_D2"])
        .expect("networked write");
    assert!(networked.granted || networked.unavailable);

    table_header(
        "E15b: observed-coalition snapshot (selected instruments)",
        &["instrument", "value"],
    );
    for name in [
        "server.decisions",
        "server.granted",
        "server.replay.hits",
        "server.replay.evictions",
        "server.cache.hits",
        "server.cache.misses",
        "session.sessions",
        "session.retries",
    ] {
        println!("{} | {}", name, registry.counter_value(name).unwrap_or(0));
    }
    for name in [
        "server.phase.crypto_ns",
        "server.phase.logic_ns",
        "server.decision_ns",
    ] {
        if let Some(snap) = registry.histogram_snapshot(name) {
            println!(
                "{} | n={} p50≤{}ns p99≤{}ns",
                name, snap.count, snap.p50, snap.p99
            );
        }
    }

    // The snapshot must actually contain the pipeline's phases and the
    // cache/retry counters — this is the artifact later PRs report through.
    let json = registry.to_json();
    for needle in [
        "\"server.phase.recency_ns\"",
        "\"server.phase.crypto_ns\"",
        "\"server.phase.logic_ns\"",
        "\"server.phase.acl_ns\"",
        "\"server.decision_ns\"",
        "\"server.cache.hits\"",
        "\"server.replay.hits\"",
        "\"session.rounds\"",
    ] {
        assert!(json.contains(needle), "snapshot missing {needle}");
    }
    json
}

fn print_sweep() {
    let smoke = smoke();
    let (bits, workers, n_requests, rounds): (usize, usize, usize, u32) = if smoke {
        (192, 2, 12, 5)
    } else {
        (1024, 4, 32, 7)
    };

    table_header(
        "E15a: registry overhead on the E14 batch scenario (best-of-N)",
        &["bits", "workers", "requests", "off ms", "on ms", "overhead"],
    );
    let p = measure_overhead(bits, workers, n_requests, rounds);
    println!(
        "{} | {} | {} | {:.2} | {:.2} | {:.2}%",
        p.bits,
        p.workers,
        p.requests,
        p.off_ms,
        p.on_ms,
        p.overhead_pct()
    );
    assert!(
        p.overhead_pct() <= MAX_OVERHEAD_PCT,
        "metrics overhead {:.2}% exceeds the {MAX_OVERHEAD_PCT}% budget",
        p.overhead_pct()
    );

    let registry_json = observed_scenario(if smoke { 192 } else { 512 });

    println!(
        "E15_JSON {{\"experiment\":\"e15_observability\",\"profile\":\"{}\",\"bits\":{},\"workers\":{},\"requests\":{},\"metrics_off_ms\":{:.3},\"metrics_on_ms\":{:.3},\"overhead_pct\":{:.2},\"max_overhead_pct\":{:.1},\"registry\":{}}}",
        if smoke { "smoke" } else { "full" },
        p.bits,
        p.workers,
        p.requests,
        p.off_ms,
        p.on_ms,
        p.overhead_pct(),
        MAX_OVERHEAD_PCT,
        registry_json
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_observability");
    let mut observed = standard_coalition(192, 0xE15 + 2);
    observed.enable_metrics();
    let req = observed
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    group.bench_function("handle_request_metrics_on", |b| {
        b.iter(|| observed.server_mut().handle_request(&req));
    });
    let mut plain = standard_coalition(192, 0xE15 + 2);
    let req = plain
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    group.bench_function("handle_request_metrics_off", |b| {
        b.iter(|| plain.server_mut().handle_request(&req));
    });
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_sweep();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
