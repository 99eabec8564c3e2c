//! Experiment E18: replication lag under network faults, failover
//! wall-clock, and the fsync durability tax.
//!
//! The E14 decision workload (rotating 2-of-3 signed writes plus single
//! signer reads against `Object O`) runs on a journaled primary whose
//! store is teed into a replication outbox. Two replicas follow over a
//! `jaap-net` mesh with seeded drop/duplicate faults. Three measurements:
//!
//! 1. **replication lag vs fault rate** — after every decision the
//!    harness runs ship → apply → ack rounds until both replicas have
//!    acknowledged the whole log; the average number of rounds and the
//!    per-record ship wall-clock quantify how loss stretches the
//!    replication pipeline. Messages shipped (append windows plus
//!    snapshots) are reported next to records acknowledged, since one
//!    window carries many records.
//! 2. **failover time** — the primary is "crashed" and the designated
//!    replica is promoted through the recovery replay path
//!    (`Replica::promote`, a higher fencing term); the clock runs from
//!    the crash to the first probe decision, which must match the live
//!    primary's answer to the same probe.
//! 3. **fsync tax** — `FileStore` append throughput under
//!    `SyncPolicy::{Never, EveryAppend, EveryN(8)}` for one fixed-size
//!    framed record, the durability spectrum from §5e's flush-only
//!    default to power-loss-safe.
//!
//! Set `E18_PROFILE=smoke` for a seconds-scale run (CI).
//!
//! Machine-readable record: one line, grep `"^E18_JSON "`.

use criterion::{criterion_group, Criterion};
use jaap_bench::table_header;
use jaap_coalition::replication::{Primary, Replica, ReplicationNet, DEFAULT_SHIP_WINDOW};
use jaap_coalition::request::JointAccessRequest;
use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_net::{FaultPlan, ReplMessage};
use jaap_wal::{
    frame_record_with_term, FileStore, JournalStore, LogOutbox, MemStore, SyncPolicy, TeeStore,
};
use std::time::Instant;

const N_REPLICAS: usize = 2;
const PRIMARY_TERM: u64 = 1;
const MAX_ROUNDS_PER_OP: usize = 64;

fn smoke() -> bool {
    std::env::var("E18_PROFILE").is_ok_and(|v| v == "smoke")
}

/// One measured fault-rate cell.
struct Cell {
    drop_prob: f64,
    requests: usize,
    records_acked: u64,
    messages_shipped: u64,
    avg_sync_rounds: f64,
    ship_us_per_record: f64,
    catchups: u64,
    net_dropped: u64,
    failover_ms: f64,
    records_replayed: usize,
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

fn measure_cell(bits: usize, requests: usize, drop_prob: f64) -> Cell {
    let mut c: Coalition = CoalitionBuilder::new()
        .key_bits(bits)
        .seed(0xE18)
        .build()
        .expect("coalition");
    c.advance_time(Time(20)).expect("clock");
    let batch = build_batch(&c, requests);

    let outbox = LogOutbox::new();
    c.server_mut()
        .attach_journal(Box::new(TeeStore::new(MemStore::new(), outbox.clone())))
        .expect("attach");
    c.server_mut().set_journal_term(PRIMARY_TERM);
    let plan = FaultPlan::seeded(0xE18)
        .with_drop(drop_prob)
        .with_duplicate(drop_prob / 2.0);
    let mut net = ReplicationNet::new(PRIMARY_TERM, N_REPLICAS, outbox, plan).expect("net");

    // Bootstrap snapshot first, so per-op rounds measure appends only.
    net.sync(MAX_ROUNDS_PER_OP);
    assert!(net.primary.all_caught_up(), "bootstrap must converge");

    let mut total_rounds = 0usize;
    let shipping_started = Instant::now();
    for req in &batch {
        let _ = c.server_mut().handle_request(req);
        total_rounds += net.sync(MAX_ROUNDS_PER_OP);
        assert!(
            net.primary.all_caught_up(),
            "per-op replication must converge (drop={drop_prob})"
        );
    }
    let ship_elapsed = shipping_started.elapsed();

    // The live answer to the probe, shipped before the crash so both
    // sides hold byte-identical logs at failover time.
    let probe = &batch[0];
    let live = c.server_mut().handle_request(probe);
    net.sync(MAX_ROUNDS_PER_OP);
    assert!(net.primary.all_caught_up(), "probe record must replicate");

    let primary_stats = net.primary.stats();
    let net_dropped = net.net_handle().stats().messages_dropped;

    // Crash the primary: all that survives is the replicas. Promote the
    // designated one and time crash -> first correct probe decision.
    let trust = c.trust_store();
    let failover_started = Instant::now();
    let (mut promoted, report) = net.replicas[0]
        .promote("P", trust, PRIMARY_TERM + 1)
        .expect("promote");
    let decision = promoted.handle_request(probe);
    let failover_ms = failover_started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        decision.granted, live.granted,
        "promoted replica must answer the probe like the live primary"
    );
    assert_eq!(decision.detail, live.detail, "probe detail must match");

    Cell {
        drop_prob,
        requests,
        records_acked: primary_stats.acked_records,
        messages_shipped: primary_stats.shipped,
        avg_sync_rounds: total_rounds as f64 / requests as f64,
        ship_us_per_record: ship_elapsed.as_secs_f64() * 1e6 / requests as f64,
        catchups: primary_stats.catchups,
        net_dropped,
        failover_ms,
        records_replayed: report.records_replayed,
    }
}

/// Appends/sec for `appends` fixed-size framed records under `policy`.
fn fsync_rate(dir: &std::path::Path, name: &str, policy: SyncPolicy, appends: usize) -> f64 {
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let mut store = FileStore::with_sync_policy(&path, policy).expect("open");
    let frame = frame_record_with_term(PRIMARY_TERM, &[0xAB; 256]);
    let started = Instant::now();
    for _ in 0..appends {
        store.append(&frame).expect("append");
    }
    let rate = appends as f64 / started.elapsed().as_secs_f64();
    let len = store.len().expect("len");
    assert_eq!(len, (frame.len() * appends) as u64, "log length mismatch");
    let _ = std::fs::remove_file(&path);
    rate
}

fn print_sweep() {
    let smoke = smoke();
    let (bits, requests, fsync_appends): (usize, usize, usize) = if smoke {
        (96, 12, 256)
    } else {
        (192, 48, 2048)
    };
    let drop_probs = [0.0, 0.1, 0.3];

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "(host parallelism: {cores} core{})",
        if cores == 1 { "" } else { "s" }
    );
    table_header(
        "E18: replication lag vs fault rate, failover wall-clock, fsync tax",
        &[
            "drop p",
            "requests",
            "acked recs",
            "msgs shipped",
            "avg rounds",
            "ship µs/rec",
            "catchups",
            "net dropped",
            "failover ms",
            "replayed",
        ],
    );
    let mut cells = Vec::new();
    for &p in &drop_probs {
        let cell = measure_cell(bits, requests, p);
        println!(
            "{:.2} | {} | {} | {} | {:.2} | {:.1} | {} | {} | {:.2} | {}",
            cell.drop_prob,
            cell.requests,
            cell.records_acked,
            cell.messages_shipped,
            cell.avg_sync_rounds,
            cell.ship_us_per_record,
            cell.catchups,
            cell.net_dropped,
            cell.failover_ms,
            cell.records_replayed
        );
        cells.push(cell);
    }

    for cell in &cells {
        assert!(cell.records_replayed > 0, "failover must replay records");
        assert!(cell.avg_sync_rounds >= 1.0, "each record takes a round");
    }
    assert!(
        cells[0].net_dropped == 0 && cells.last().expect("cells").net_dropped > 0,
        "the fault sweep must actually inject loss"
    );

    let tmp = std::env::temp_dir().join(format!("jaap-e18-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("mkdir");
    let never_aps = fsync_rate(&tmp, "never.wal", SyncPolicy::Never, fsync_appends);
    let every_aps = fsync_rate(&tmp, "every.wal", SyncPolicy::EveryAppend, fsync_appends);
    let every8_aps = fsync_rate(&tmp, "every8.wal", SyncPolicy::EveryN(8), fsync_appends);
    let _ = std::fs::remove_dir(&tmp);
    println!(
        "\nfsync tax ({fsync_appends} appends of one framed 256 B record): \
         Never {never_aps:.0}/s | EveryAppend {every_aps:.0}/s | EveryN(8) {every8_aps:.0}/s"
    );

    let lossiest = cells.last().expect("cells");
    println!(
        "worst cell (drop={:.2}): {:.2} sync rounds/record, {:.2} ms failover to first \
         correct decision",
        lossiest.drop_prob, lossiest.avg_sync_rounds, lossiest.failover_ms
    );

    let cell_json: Vec<String> = cells
        .iter()
        .map(|p| {
            format!(
                "{{\"drop_prob\":{:.2},\"requests\":{},\"records_acked\":{},\"messages_shipped\":{},\"avg_sync_rounds\":{:.3},\"ship_us_per_record\":{:.1},\"catchups\":{},\"net_dropped\":{},\"failover_ms\":{:.3},\"records_replayed\":{}}}",
                p.drop_prob,
                p.requests,
                p.records_acked,
                p.messages_shipped,
                p.avg_sync_rounds,
                p.ship_us_per_record,
                p.catchups,
                p.net_dropped,
                p.failover_ms,
                p.records_replayed
            )
        })
        .collect();
    println!(
        "E18_JSON {{\"experiment\":\"e18_replication\",\"profile\":\"{}\",\"cores\":{},\"bits\":{},\"replicas\":{},\"cells\":[{}],\"fsync\":{{\"appends\":{},\"record_bytes\":256,\"never_aps\":{:.0},\"every_append_aps\":{:.0},\"every8_aps\":{:.0}}}}}",
        if smoke { "smoke" } else { "full" },
        cores,
        bits,
        N_REPLICAS,
        cell_json.join(","),
        fsync_appends,
        never_aps,
        every_aps,
        every8_aps
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e18_replication");

    // Ship one default-sized window of 128 B records through the
    // Primary/Replica state machines directly (no mesh): the pure protocol
    // cost of an append round trip, one validation pass and one store
    // write for the whole window.
    let outbox = LogOutbox::new();
    let mut primary = Primary::new(PRIMARY_TERM, 1, outbox.clone());
    let mut replica = Replica::new(0);
    let window = DEFAULT_SHIP_WINDOW as u64;
    let frames: Vec<u8> = (0..window)
        .flat_map(|_| frame_record_with_term(PRIMARY_TERM, &[0x5A; 128]))
        .collect();
    let mut offset = 0u64;
    group.bench_function("ship_one_window_direct", |b| {
        b.iter(|| {
            let msg = ReplMessage::Append {
                term: PRIMARY_TERM,
                gen: 0,
                offset,
                frames: frames.clone(),
                count: window,
            };
            let reply = replica.on_message(&msg);
            primary.on_reply(0, &reply);
            offset += window;
        });
    });

    // Promotion of a small shipped log: recovery replay + fencing bump.
    let mut coalition: Coalition = CoalitionBuilder::new()
        .key_bits(96)
        .seed(0xE18)
        .build()
        .expect("coalition");
    coalition.advance_time(Time(20)).expect("clock");
    let outbox = LogOutbox::new();
    coalition
        .server_mut()
        .attach_journal(Box::new(TeeStore::new(MemStore::new(), outbox.clone())))
        .expect("attach");
    coalition.server_mut().set_journal_term(PRIMARY_TERM);
    let mut net = ReplicationNet::new(PRIMARY_TERM, 1, outbox, FaultPlan::reliable()).expect("net");
    let req = coalition
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    for _ in 0..8 {
        coalition.server_mut().handle_request(&req);
    }
    net.sync(MAX_ROUNDS_PER_OP);
    assert!(net.primary.all_caught_up());
    let trust = coalition.trust_store();
    let mut term = PRIMARY_TERM;
    group.bench_function("promote_8_decision_log", |b| {
        b.iter(|| {
            term += 1;
            net.replicas[0]
                .promote("P", trust.clone(), term)
                .expect("promote")
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
