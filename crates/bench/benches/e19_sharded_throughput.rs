//! Experiment E19: core scaling of the sharded, lock-free-read coalition
//! front-end.
//!
//! A `ShardedCoalition` partitions disjoint object namespaces across N
//! single-writer shards; decisions run their crypto phase against
//! epoch-versioned immutable snapshots without holding any lock, and a
//! scoped-thread fan-out spreads a mixed batch across cores. The
//! experiment drives a mixed admit/revoke/decide workload — every round
//! admits a revocation through the cross-shard fan-out (forcing a
//! snapshot republish on every shard), then decides a cross-shard request
//! batch — and sweeps the worker count. The workers=1 point of the *same* system
//! is the single-threaded baseline; speedups are relative to it.
//!
//! Scaling is bounded by the host: on a single-core machine every point
//! measures pool overhead only, so the ≥3x-at-≥4-workers assertion is
//! gated on `available_parallelism() >= 4` (and on the full profile —
//! smoke keys are too small for crypto to dominate the serial tail).
//!
//! Set `E19_PROFILE=smoke` for a seconds-scale run (CI).
//! Machine-readable record: one line, grep `"^E19_JSON "`.

use criterion::{criterion_group, Criterion};
use jaap_bench::table_header;
use jaap_coalition::concurrent::ConcurrentServer;
use jaap_coalition::request::{assemble, JointAccessRequest};
use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_coalition::server::CoalitionServer;
use jaap_coalition::shard::ShardedCoalition;
use jaap_core::protocol::{Acl, Operation};
use jaap_core::syntax::{GroupId, Time};
use jaap_pki::attribute::AttributeRevocation;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("E19_PROFILE").is_ok_and(|v| v == "smoke")
}

fn shard_object(i: usize) -> String {
    format!("Object S{i}")
}

/// An independent coalition per shard: its own domains, CAs, AA, and
/// users, so the shard namespaces are disjoint down to the trust roots.
fn shard_coalition(i: usize, key_bits: usize) -> Coalition {
    let names = [format!("S{i}D1"), format!("S{i}D2"), format!("S{i}D3")];
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    CoalitionBuilder::new()
        .domains(&refs)
        .key_bits(key_bits)
        .seed(0xE19 + i as u64)
        .build()
        .expect("shard coalition")
}

fn shard_server(c: &Coalition, i: usize) -> CoalitionServer {
    let mut server = CoalitionServer::new(format!("P{i}"), c.trust_store());
    let mut acl = Acl::new();
    acl.permit(GroupId::new("G_write"), "write");
    acl.permit(GroupId::new("G_read"), "read");
    server.add_object(shard_object(i), acl).expect("add object");
    server.advance_clock(Time(10)).expect("clock");
    server
}

/// A joint request against shard `i`'s object at an explicit time.
fn request_for(c: &Coalition, i: usize, signers: &[String], action: &str) -> JointAccessRequest {
    let users: Vec<_> = signers.iter().map(|n| c.user(n).expect("user")).collect();
    let ids = signers
        .iter()
        .map(|n| c.identity_cert(n).expect("cert").clone())
        .collect();
    let ac = if action == "read" {
        c.read_ac().clone()
    } else {
        c.write_ac().clone()
    };
    assemble(
        &users,
        ids,
        vec![ac],
        vec![],
        Operation::new(action, shard_object(i)),
        Time(10),
    )
    .expect("assemble")
}

/// The mixed cross-shard request batch: quorum writes, under-threshold
/// writes, and reads, round-robined over the shards.
fn build_batch(coalitions: &[Coalition], n: usize) -> Vec<JointAccessRequest> {
    (0..n)
        .map(|k| {
            let s = k % coalitions.len();
            let users: Vec<String> = (1..=3).map(|d| format!("User_S{s}D{d}")).collect();
            match k % 3 {
                0 => request_for(&coalitions[s], s, &users[0..2], "write"),
                1 => request_for(&coalitions[s], s, &users[2..3], "write"),
                _ => request_for(&coalitions[s], s, &users[0..1], "read"),
            }
        })
        .collect()
}

/// Disposable admissions: future-dated revocations of the read attribute.
/// Each is a fresh signed artifact (distinct `from`), admitted through the
/// router fan-out mid-workload; they republish every shard's snapshot but
/// never flip a verdict (the revocation epoch is far in the future).
fn build_revocations(coalitions: &[Coalition], n: usize) -> Vec<AttributeRevocation> {
    (0..n)
        .map(|k| {
            let c = &coalitions[k % coalitions.len()];
            let ac = c.read_ac();
            c.ra()
                .revoke_attribute(
                    &ac.subject,
                    ac.group.clone(),
                    Time(1_000_000 + k as i64),
                    Time(10),
                )
                .expect("revoke")
        })
        .collect()
}

struct Point {
    workers: usize,
    total_ms: f64,
    rps: f64,
}

/// One sweep cell: `rounds` iterations of (fan out one admission, decide
/// the whole batch at `workers`), verdicts checked against the expected
/// pattern every round.
fn run_point(
    router: &ShardedCoalition,
    batch: &[JointAccessRequest],
    revocations: &mut impl Iterator<Item = AttributeRevocation>,
    expected: &[bool],
    rounds: usize,
    workers: usize,
) -> Point {
    let started = Instant::now();
    for _ in 0..rounds {
        let rev = revocations.next().expect("enough revocations");
        let outcomes = router.admit_attribute_revocation(&rev);
        assert!(
            outcomes.iter().any(|o| o.is_ok()),
            "the home shard must admit its revocation"
        );
        let decisions = router.decide_batch(batch, workers);
        for (d, want) in decisions.iter().zip(expected) {
            assert_eq!(d.granted, *want, "verdict changed under concurrency");
        }
    }
    let elapsed = started.elapsed();
    Point {
        workers,
        total_ms: elapsed.as_secs_f64() * 1e3,
        rps: (rounds * batch.len()) as f64 / elapsed.as_secs_f64(),
    }
}

fn print_sweep() {
    let smoke = smoke();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (shards, key_bits, n_requests, rounds, worker_counts): (
        usize,
        usize,
        usize,
        usize,
        &[usize],
    ) = if smoke {
        (2, 192, 8, 3, &[1, 2, 4])
    } else {
        (4, 512, 32, 4, &[1, 2, 4, 8])
    };

    let coalitions: Vec<Coalition> = (0..shards).map(|i| shard_coalition(i, key_bits)).collect();
    let router = ShardedCoalition::new(
        coalitions
            .iter()
            .enumerate()
            .map(|(i, c)| shard_server(c, i))
            .collect(),
    )
    .expect("router");
    let batch = build_batch(&coalitions, n_requests);
    let mut revocations =
        build_revocations(&coalitions, worker_counts.len() * rounds + 1).into_iter();

    // Warmup at workers=1: admits every request's certificate bodies, so
    // all timed cells run against the same steady-state belief sets. The
    // verdict pattern it produces is the reference for every timed round.
    let expected: Vec<bool> = router
        .decide_batch(&batch, 1)
        .iter()
        .map(|d| d.granted)
        .collect();
    assert!(expected.iter().any(|g| *g), "some requests must grant");
    assert!(!expected.iter().all(|g| *g), "some requests must deny");

    println!(
        "(host parallelism: {cores} core{}; {shards} shards, {key_bits}-bit keys)",
        if cores == 1 { "" } else { "s" }
    );
    table_header(
        "E19: sharded mixed admit/revoke/decide throughput",
        &[
            "workers",
            "requests/round",
            "rounds",
            "total ms",
            "req/s",
            "speedup",
        ],
    );
    let mut points = Vec::new();
    for &workers in worker_counts {
        let p = run_point(
            &router,
            &batch,
            &mut revocations,
            &expected,
            rounds,
            workers,
        );
        let baseline = points.first().map_or(p.rps, |b: &Point| b.rps);
        println!(
            "{} | {} | {} | {:.2} | {:.1} | {:.2}x",
            p.workers,
            batch.len(),
            rounds,
            p.total_ms,
            p.rps,
            p.rps / baseline
        );
        points.push(p);
    }

    let baseline_rps = points[0].rps;
    // The scaling gate: only meaningful with real parallelism underneath
    // and with keys big enough that crypto dominates the serial tail.
    let gate = cores >= 4 && !smoke;
    if gate {
        let best = points
            .iter()
            .filter(|p| p.workers >= 4)
            .map(|p| p.rps / baseline_rps)
            .fold(0.0f64, f64::max);
        assert!(
            best >= 3.0,
            "expected >=3x scaling at >=4 workers on a {cores}-core host, got {best:.2}x"
        );
        println!("scaling assertion: PASSED (>=3x at >=4 workers on {cores} cores)");
    } else {
        println!(
            "scaling assertion: SKIPPED ({} — speedups recorded, not asserted)",
            if cores < 4 {
                "host has fewer than 4 cores"
            } else {
                "smoke profile"
            }
        );
    }

    let cells: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"workers\":{},\"total_ms\":{:.3},\"rps\":{:.1},\"speedup\":{:.3}}}",
                p.workers,
                p.total_ms,
                p.rps,
                p.rps / baseline_rps
            )
        })
        .collect();
    println!(
        "E19_JSON {{\"experiment\":\"e19_sharded_throughput\",\"profile\":\"{}\",\"cores\":{cores},\"shards\":{shards},\"key_bits\":{key_bits},\"requests\":{},\"rounds\":{rounds},\"baseline_rps\":{baseline_rps:.1},\"scaling_asserted\":{gate},\"points\":[{}]}}",
        if smoke { "smoke" } else { "full" },
        n_requests,
        cells.join(",")
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e19_sharded_throughput");
    let coalition = CoalitionBuilder::new()
        .key_bits(192)
        .seed(0xE19)
        .build()
        .expect("coalition");
    let req = coalition
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    let server = ConcurrentServer::new(coalition.into_server());
    group.bench_function("snapshot_load_192", |b| {
        b.iter(|| server.snapshot().version());
    });
    group.bench_function("decide_lock_free_192", |b| {
        b.iter(|| server.decide(&req).granted);
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
