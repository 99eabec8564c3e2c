//! Experiment E17: journal overhead, snapshot compaction, and crash
//! recovery wall-clock.
//!
//! The E14 decision workload (rotating 2-of-3 signed writes plus single
//! signer reads against `Object O`) is driven through three pipelines:
//!
//! 1. **plain** — no journal attached; the reference decision rate.
//! 2. **journaled** — every belief-changing event (cert admissions, clock
//!    advances, decisions) is appended to an in-memory WAL *before* it
//!    takes effect. The throughput delta is the durability tax.
//! 3. **recovered** — `CoalitionServer::recover` replays the journal byte
//!    image the crashed server left behind and must produce a server that
//!    decides identically (spot-checked with a probe request).
//!
//! Each cell also compacts the recovered journal with `snapshot_journal`
//! (the audit log is bounded at `requests / 4`, so rotated-out decision
//! records fall out of the snapshot) and times a second recovery from the
//! compacted image.
//!
//! Set `E17_PROFILE=smoke` for a seconds-scale run (CI).
//!
//! Machine-readable record: one line, grep `"^E17_JSON "`.

use criterion::{criterion_group, Criterion};
use jaap_bench::table_header;
use jaap_coalition::request::JointAccessRequest;
use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_coalition::server::{CapacityConfig, CoalitionServer, ServerDecision};
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_wal::MemStore;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("E17_PROFILE").is_ok_and(|v| v == "smoke")
}

/// One measured workload-size cell.
struct Cell {
    requests: usize,
    plain_rps: f64,
    journaled_rps: f64,
    overhead_pct: f64,
    journal_bytes: u64,
    recover_ms: f64,
    records_replayed: usize,
    snapshot_bytes: u64,
    snapshot_recover_ms: f64,
    snapshot_records: usize,
}

/// The E14 batch: writes signed by rotating 2-of-3 signer pairs and reads
/// by single signers.
fn build_batch(c: &Coalition, n: usize) -> Vec<JointAccessRequest> {
    let users = ["User_D1", "User_D2", "User_D3"];
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                c.build_request(&[users[i % 3]], Operation::new("read", "Object O"))
            } else {
                c.build_request(
                    &[users[i % 3], users[(i + 1) % 3]],
                    Operation::new("write", "Object O"),
                )
            }
            .expect("request")
        })
        .collect()
}

/// Drives `requests` through the scenario server, returning wall-clock
/// decisions/sec and the grant outcomes.
fn run_pass(c: &mut Coalition, requests: &[JointAccessRequest]) -> (f64, Vec<bool>) {
    let started = Instant::now();
    let grants: Vec<bool> = requests
        .iter()
        .map(|r| c.server_mut().handle_request(r).granted)
        .collect();
    let rps = requests.len() as f64 / started.elapsed().as_secs_f64();
    (rps, grants)
}

/// Recovers a server from `store`, timing replay wall-clock.
fn timed_recover(c: &Coalition, store: MemStore) -> (CoalitionServer, f64, usize) {
    let started = Instant::now();
    let (recovered, report) =
        CoalitionServer::recover("P", c.trust_store(), Box::new(store)).expect("recover");
    let recover_ms = started.elapsed().as_secs_f64() * 1e3;
    (recovered, recover_ms, report.records_replayed)
}

/// The recovered twin must answer `probe` exactly like the live server.
fn assert_probe(
    recovered: &mut CoalitionServer,
    probe: &JointAccessRequest,
    live: &ServerDecision,
) {
    let d = recovered.handle_request(probe);
    assert_eq!(
        d.granted, live.granted,
        "recovered server must answer the probe like the live server"
    );
    assert_eq!(d.detail, live.detail, "probe detail must match");
}

fn measure_cell(c: &mut Coalition, requests: &[JointAccessRequest], audit_cap: usize) -> Cell {
    let audit_sized = CapacityConfig {
        audit: audit_cap,
        ..CapacityConfig::default()
    };
    // Reference pass: no journal.
    c.reset_server();
    c.server_mut()
        .apply_capacity_config(&audit_sized)
        .expect("config");
    let (plain_rps, plain_grants) = run_pass(c, requests);
    let probe = &requests[0];
    let live_probe = c.server_mut().handle_request(probe);

    // Journaled pass: identical workload, WAL-before-effect.
    c.reset_server();
    c.server_mut()
        .apply_capacity_config(&audit_sized)
        .expect("config");
    let store = MemStore::new();
    let handle = store.clone();
    c.server_mut()
        .attach_journal(Box::new(store))
        .expect("attach");
    let (journaled_rps, journaled_grants) = run_pass(c, requests);
    assert_eq!(
        plain_grants, journaled_grants,
        "journaling must not change decisions"
    );
    let bytes = handle.snapshot();
    let journal_bytes = bytes.len() as u64;

    // Crash: recover from the byte image the "dead" server left behind.
    // The recovery store's buffer is shared with `recovered_handle`, so
    // the in-place snapshot rewrite below is observable from outside.
    let recovery_store = MemStore::from_bytes(bytes);
    let recovered_handle = recovery_store.clone();
    let (mut recovered, recover_ms, records_replayed) = timed_recover(c, recovery_store);

    // Compact, then recover a second time from the compacted image.
    recovered.snapshot_journal().expect("snapshot");
    let snapshot_bytes = recovered
        .journal_len_bytes()
        .expect("len")
        .expect("journal attached");
    assert!(
        snapshot_bytes < journal_bytes,
        "snapshot must compact the log ({snapshot_bytes} >= {journal_bytes})"
    );
    let compacted = recovered_handle.snapshot();
    assert_probe(&mut recovered, probe, &live_probe);
    let (mut from_snapshot, snapshot_recover_ms, snapshot_records) =
        timed_recover(c, MemStore::from_bytes(compacted));
    assert_probe(&mut from_snapshot, probe, &live_probe);

    Cell {
        requests: requests.len(),
        plain_rps,
        journaled_rps,
        overhead_pct: (plain_rps / journaled_rps - 1.0) * 100.0,
        journal_bytes,
        recover_ms,
        records_replayed,
        snapshot_bytes,
        snapshot_recover_ms,
        snapshot_records,
    }
}

fn print_sweep() {
    let smoke = smoke();
    let (bits, sizes): (usize, &[usize]) = if smoke {
        (96, &[8, 16])
    } else {
        (192, &[32, 128])
    };

    let mut c: Coalition = CoalitionBuilder::new()
        .key_bits(bits)
        .seed(0xE17)
        .build()
        .expect("coalition");
    c.advance_time(Time(20)).expect("clock");

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "(host parallelism: {cores} core{})",
        if cores == 1 { "" } else { "s" }
    );
    table_header(
        "E17: durability tax and crash-recovery wall-clock — plain vs journaled vs recovered",
        &[
            "requests",
            "plain req/s",
            "journaled req/s",
            "overhead %",
            "log bytes",
            "recover ms",
            "records",
            "snap bytes",
            "snap recover ms",
        ],
    );
    let mut cells = Vec::new();
    for &n in sizes {
        let requests = build_batch(&c, n);
        let cell = measure_cell(&mut c, &requests, (n / 4).max(2));
        println!(
            "{} | {:.1} | {:.1} | {:.1} | {} | {:.2} | {} | {} | {:.2}",
            cell.requests,
            cell.plain_rps,
            cell.journaled_rps,
            cell.overhead_pct,
            cell.journal_bytes,
            cell.recover_ms,
            cell.records_replayed,
            cell.snapshot_bytes,
            cell.snapshot_recover_ms
        );
        cells.push(cell);
    }

    for cell in &cells {
        assert!(cell.records_replayed > 0, "recovery must replay records");
        assert!(cell.snapshot_records > 0, "compacted image must replay too");
    }
    let headline = cells.last().expect("cells");
    println!(
        "\nlargest cell: {:.1}% append overhead, {:.2} ms recovery of {} records, \
         snapshot compaction {} -> {} bytes",
        headline.overhead_pct,
        headline.recover_ms,
        headline.records_replayed,
        headline.journal_bytes,
        headline.snapshot_bytes
    );

    let cell_json: Vec<String> = cells
        .iter()
        .map(|p| {
            format!(
                "{{\"requests\":{},\"plain_rps\":{:.1},\"journaled_rps\":{:.1},\"overhead_pct\":{:.2},\"journal_bytes\":{},\"recover_ms\":{:.3},\"records_replayed\":{},\"snapshot_bytes\":{},\"snapshot_recover_ms\":{:.3},\"snapshot_records\":{}}}",
                p.requests,
                p.plain_rps,
                p.journaled_rps,
                p.overhead_pct,
                p.journal_bytes,
                p.recover_ms,
                p.records_replayed,
                p.snapshot_bytes,
                p.snapshot_recover_ms,
                p.snapshot_records
            )
        })
        .collect();
    println!(
        "E17_JSON {{\"experiment\":\"e17_recovery\",\"profile\":\"{}\",\"cores\":{},\"bits\":{},\"cells\":[{}]}}",
        if smoke { "smoke" } else { "full" },
        cores,
        bits,
        cell_json.join(",")
    );
}

fn bench(c: &mut Criterion) {
    let mut coalition: Coalition = CoalitionBuilder::new()
        .key_bits(96)
        .seed(0xE17)
        .build()
        .expect("coalition");
    coalition.advance_time(Time(20)).expect("clock");
    let req = coalition
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");

    let mut group = c.benchmark_group("e17_recovery");
    group.bench_function("decision_plain", |b| {
        b.iter(|| coalition.server_mut().handle_request(&req));
    });

    // A small fixed log for the recovery benchmark: 8 decisions deep.
    coalition.reset_server();
    let fixed = MemStore::new();
    let fixed_handle = fixed.clone();
    coalition
        .server_mut()
        .attach_journal(Box::new(fixed))
        .expect("attach");
    for _ in 0..8 {
        coalition.server_mut().handle_request(&req);
    }
    let bytes = fixed_handle.snapshot();
    let trust = coalition.trust_store();

    // A fresh journal for the append-overhead benchmark (it grows with
    // the iteration count, so it must not feed the recovery bench).
    coalition.reset_server();
    coalition
        .server_mut()
        .attach_journal(Box::new(MemStore::new()))
        .expect("attach");
    group.bench_function("decision_journaled", |b| {
        b.iter(|| coalition.server_mut().handle_request(&req));
    });

    group.bench_function("recover_8_decision_log", |b| {
        b.iter(|| {
            CoalitionServer::recover(
                "P",
                trust.clone(),
                Box::new(MemStore::from_bytes(bytes.clone())),
            )
            .expect("recover")
        });
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
