//! Experiment E22: overload resilience and fail-stop poison semantics.
//!
//! **Phase A (overload).** A concurrent coalition front-end with a
//! bounded in-flight admission gate and per-request deadline budgets is
//! calibrated for closed-loop capacity, then driven open-loop twice at
//! the same base rate: once flat (the control) and once with a
//! square-wave 2× overdrive burst layered on top. The run *fails*
//! unless every arrival is accounted for (served or typed shed), the
//! overdriven goodput holds at least 85% of the control's, the excess
//! comes back as typed `Overloaded`/`DeadlineExceeded` sheds (never a
//! policy Deny, never an untyped error), and accepted-decision p99
//! stays inside the deadline budget — the reject-don't-queue claim.
//!
//! **Phase B (poison).** A journaled serial server runs scripted
//! mutations against a fault-injecting store whose Nth append fsync
//! fails after a short write. The run *fails* unless the server poisons
//! exactly at the scheduled fault, every later mutation refuses with
//! `JournalPoisoned`, every later decision sheds typed (Indeterminate,
//! not Deny), no post-failure effect lands, recovery replays only the
//! durable prefix (the recovered log is byte-identical to a prefix of
//! the faulted medium), and the recovered server is
//! decision-for-decision identical to a never-faulted twin that ran
//! exactly the completed operations.
//!
//! Set `E22_PROFILE=smoke` for the seconds-scale run (CI).
//!
//! Machine-readable record: one line, grep `"^E22_JSON "`.

use std::time::Duration;

use criterion::{criterion_group, Criterion};
use jaap_bench::loadgen::BurstProfile;
use jaap_bench::overload::{calibrate_capacity, run_overload, OverloadConfig, OverloadReport};
use jaap_bench::{standard_coalition, table_header};
use jaap_coalition::concurrent::ConcurrentServer;
use jaap_coalition::request::{assemble, JointAccessRequest};
use jaap_coalition::scenario::{Coalition, OBJECT_O};
use jaap_coalition::server::{CoalitionServer, ServerDecision, ShedReason};
use jaap_coalition::CoalitionError;
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_obs::MetricsRegistry;
use jaap_wal::{FaultyStore, MemStore, StoreFaultPlan};

fn smoke() -> bool {
    std::env::var("E22_PROFILE").is_ok_and(|v| v == "smoke")
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct Profile {
    name: &'static str,
    key_bits: usize,
    /// Closed-loop decisions used to calibrate single-rate capacity.
    calib_requests: usize,
    /// Arrivals offered per open-loop run (control and overdriven).
    requests: usize,
    /// Admission-gate slots.
    inflight: usize,
    /// Open-loop driver lanes (above `inflight` so bursts hit the gate).
    lanes: usize,
    /// Per-request deadline budget.
    deadline: Duration,
    /// Square-wave half period for the overdriven run.
    half_period: Duration,
    /// Base rate as a fraction of calibrated capacity.
    base_frac: f64,
    /// Overdriven goodput floor as a fraction of control goodput.
    goodput_floor: f64,
}

fn profile() -> Profile {
    if smoke() {
        Profile {
            name: "smoke",
            key_bits: 192,
            calib_requests: 600,
            requests: 2_400,
            inflight: 1,
            lanes: 3,
            deadline: Duration::from_millis(50),
            half_period: Duration::from_millis(50),
            base_frac: 0.75,
            goodput_floor: 0.85,
        }
    } else {
        Profile {
            name: "full",
            key_bits: 192,
            calib_requests: 50_000,
            requests: 400_000,
            inflight: (cores() / 2).max(2),
            lanes: cores() + 2,
            deadline: Duration::from_millis(20),
            half_period: Duration::from_millis(250),
            base_frac: 0.85,
            goodput_floor: 0.85,
        }
    }
}

/// What phase A measured, for the JSON line.
struct OverloadOutcome {
    capacity_rps: f64,
    base_rps: f64,
    control: OverloadReport,
    overdrive: OverloadReport,
}

fn print_report(label: &str, r: &OverloadReport) {
    println!(
        "{label} | {} | {} | {} | {} | {} | {} | {} | {} | {:.0}",
        r.offered,
        r.granted,
        r.denied,
        r.shed_overloaded,
        r.shed_deadline,
        r.accepted_p50_us,
        r.accepted_p99_us,
        r.accepted_max_us,
        r.accepted_rps,
    );
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn phase_a(p: &Profile) -> OverloadOutcome {
    let mut c = standard_coalition(p.key_bits, 0xE22);
    // The pool repeats requests, so replay dedup would serve duplicates
    // from the replay window and price nothing.
    c.server_mut().set_replay_protection(false).expect("config");
    c.server_mut().set_verification_cache(true).expect("config");
    c.server_mut().set_crypto_precomp(true).expect("config");
    let read = |c: &Coalition, who: &str| {
        c.build_request(&[who], Operation::new("read", OBJECT_O))
            .expect("read request")
    };
    let pool = vec![
        read(&c, "User_D1"),
        read(&c, "User_D2"),
        read(&c, "User_D3"),
        // One signer below the 2-of-3 write threshold: a policy Deny,
        // kept in the mix so sheds must stay distinguishable from it.
        c.build_request(&["User_D3"], Operation::new("write", OBJECT_O))
            .expect("write request"),
    ];
    let server = ConcurrentServer::new(c.into_server());
    let registry = MetricsRegistry::new();
    server.set_metrics(&registry);
    server.set_inflight_limit(p.inflight);

    // Calibrate closed-loop capacity with exactly as many lanes as gate
    // slots (no admission rejects distort the figure); this also warms
    // the verification cache for both open-loop runs.
    let capacity_rps = calibrate_capacity(&server, &pool, p.calib_requests, p.inflight);
    let base_rps = p.base_frac * capacity_rps;

    let control = run_overload(
        &server,
        &pool,
        &OverloadConfig {
            requests: p.requests,
            rate_per_sec: base_rps,
            burst: None,
            deadline: Some(p.deadline),
            lanes: p.lanes,
        },
    );
    let overdrive = run_overload(
        &server,
        &pool,
        &OverloadConfig {
            requests: p.requests,
            rate_per_sec: base_rps,
            burst: Some(BurstProfile {
                overdrive: 2.0,
                half_period: p.half_period,
            }),
            deadline: Some(p.deadline),
            lanes: p.lanes,
        },
    );

    table_header(
        &format!(
            "E22 phase A: 2x square-wave overdrive vs flat control ({} profile, capacity {:.0} rps, base {:.0} rps)",
            p.name, capacity_rps, base_rps
        ),
        &[
            "run",
            "offered",
            "granted",
            "denied",
            "shed overload",
            "shed deadline",
            "p50 us",
            "p99 us",
            "max us",
            "goodput rps",
        ],
    );
    print_report("control", &control);
    print_report("overdrive", &overdrive);

    // The experiment's invariants, asserted in-bench.
    let deadline_us = u64::try_from(p.deadline.as_micros()).expect("deadline fits");
    for (label, r) in [("control", &control), ("overdrive", &overdrive)] {
        assert_eq!(
            r.accepted() + r.shed(),
            r.offered,
            "{label}: every arrival is served or shed, never dropped"
        );
        assert_eq!(
            r.shed_other, 0,
            "{label}: sheds are Overloaded/DeadlineExceeded only"
        );
        assert!(
            r.accepted_p99_us <= deadline_us,
            "{label}: accepted p99 {}us exceeds the {}us deadline budget — the gate queued instead of rejecting",
            r.accepted_p99_us,
            deadline_us
        );
    }
    // Scheduler noise on a small shared box can shed a handful of
    // control arrivals; the load-bearing claim is the relative goodput
    // floor below, so the control only has to *mostly* serve.
    assert!(
        control.accepted() as f64 >= 0.80 * control.offered as f64,
        "control run at {:.0} rps (75% of capacity) must mostly serve: {} of {}",
        base_rps,
        control.accepted(),
        control.offered
    );
    assert!(
        overdrive.shed() > 0,
        "2x overdrive against a full gate must shed"
    );
    assert!(
        overdrive.accepted_rps >= p.goodput_floor * control.accepted_rps,
        "overdriven goodput {:.0} rps fell below {:.0}% of the control's {:.0} rps",
        overdrive.accepted_rps,
        p.goodput_floor * 100.0,
        control.accepted_rps
    );
    // The gate's instruments and the lock-free shed audit agree with
    // the per-lane tallies.
    let shed_overloaded = control.shed_overloaded + overdrive.shed_overloaded;
    let shed_deadline = control.shed_deadline + overdrive.shed_deadline;
    assert_eq!(
        registry
            .counter_value("server.shed.overloaded")
            .unwrap_or(0),
        shed_overloaded as u64,
        "server.shed.overloaded counter tracks the gate"
    );
    assert_eq!(
        registry.counter_value("server.shed.deadline").unwrap_or(0),
        shed_deadline as u64,
        "server.shed.deadline counter tracks the phase gates"
    );
    assert_eq!(
        registry.gauge_value("server.inflight").unwrap_or(-1),
        0,
        "server.inflight returns to zero once the drivers drain"
    );
    let shed_lines = server.shed_audit();
    assert_eq!(
        shed_lines.len(),
        (control.shed() + overdrive.shed()).min(1024),
        "every shed is audited (into the bounded ring)"
    );
    assert!(
        shed_lines.iter().all(|e| e.shed.is_some() && !e.granted),
        "audited sheds stay typed — distinguishable from policy denials"
    );

    OverloadOutcome {
        capacity_rps,
        base_rps,
        control,
        overdrive,
    }
}

/// What phase B measured, for the JSON line.
struct PoisonOutcome {
    completed_ops: usize,
    refused_mutations: usize,
    shed_decisions: usize,
    records_replayed: usize,
    truncated_bytes: u64,
    durable_bytes: u64,
    recovered_bytes: u64,
    probes_matched: usize,
}

/// A pre-poison scripted mutation, replayable against the twin.
enum Mutation {
    Advance(Time),
    Content(Vec<u8>),
}

fn apply_mutation(server: &mut CoalitionServer, m: &Mutation) -> Result<(), CoalitionError> {
    match m {
        Mutation::Advance(to) => server.advance_clock(*to),
        Mutation::Content(bytes) => server.set_content(OBJECT_O, bytes.clone()),
    }
}

/// Builds a joint request at an explicit time (post-recovery probes must
/// stamp the time themselves, not the scenario server's clock).
fn probe_request(c: &Coalition, signers: &[&str], action: &str, at: Time) -> JointAccessRequest {
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
        Operation::new(action, OBJECT_O),
        at,
    )
    .expect("assemble probe")
}

fn assert_same_decision(ours: &ServerDecision, twins: &ServerDecision, ctx: &str) {
    assert_eq!(ours.granted, twins.granted, "granted diverged: {ctx}");
    assert_eq!(ours.detail, twins.detail, "detail diverged: {ctx}");
    assert_eq!(
        ours.axiom_applications, twins.axiom_applications,
        "axiom count diverged: {ctx}"
    );
    assert_eq!(
        ours.signature_checks, twins.signature_checks,
        "signature checks diverged: {ctx}"
    );
    assert_eq!(
        ours.cached_signature_checks, twins.cached_signature_checks,
        "cached checks diverged: {ctx}"
    );
    assert_eq!(
        ours.unavailable, twins.unavailable,
        "unavailable diverged: {ctx}"
    );
    assert_eq!(ours.shed, twins.shed, "shed reason diverged: {ctx}");
}

/// The append index whose fsync fails (0-based, counted from the first
/// post-attach mutation; the bootstrap snapshot goes through `reset`).
const FAIL_AFTER: u64 = 5;

#[allow(clippy::too_many_lines)]
fn phase_b() -> PoisonOutcome {
    let mut c = standard_coalition(192, 0xE22 + 7);
    c.server_mut().set_replay_protection(true).expect("config");
    let medium = MemStore::new();
    let handle = medium.clone();
    let faulty = FaultyStore::new(
        medium,
        StoreFaultPlan::seeded(0xE22).with_sync_fail_after(FAIL_AFTER),
    )
    .expect("fault plan");
    c.server_mut()
        .attach_journal(Box::new(faulty))
        .expect("attach journal");

    // Scripted mutations — one journal append each — until the
    // scheduled fsync failure poisons the server.
    let mut completed: Vec<Mutation> = Vec::new();
    let mut next_t = c.server().now().0 + 1;
    let mut poisoned_at: Option<usize> = None;
    for i in 0..(FAIL_AFTER as usize + 4) {
        let m = if i % 3 == 2 {
            Mutation::Content(vec![u8::try_from(i).expect("small"); 8])
        } else {
            let m = Mutation::Advance(Time(next_t));
            next_t += 1;
            m
        };
        match apply_mutation(c.server_mut(), &m) {
            Ok(()) => completed.push(m),
            Err(CoalitionError::JournalPoisoned(_)) => {
                poisoned_at = Some(i);
                break;
            }
            Err(e) => panic!("unexpected pre-poison error: {e}"),
        }
    }
    assert_eq!(
        poisoned_at,
        Some(FAIL_AFTER as usize),
        "the scheduled fsync failure poisons exactly the {FAIL_AFTER}th mutation"
    );
    assert!(
        c.server().poisoned().is_some(),
        "poison is sticky state, not a one-shot error"
    );
    let clock_at_poison = c.server().now();
    let content_at_poison = c
        .server()
        .objects()
        .iter()
        .find(|o| o.name == OBJECT_O)
        .expect("object")
        .content
        .clone();

    // Every later mutation refuses typed; no effect lands.
    let mut refused_mutations = 0usize;
    for m in [
        Mutation::Advance(Time(next_t + 10)),
        Mutation::Content(vec![0xEE; 8]),
    ] {
        match apply_mutation(c.server_mut(), &m) {
            Err(CoalitionError::JournalPoisoned(_)) => refused_mutations += 1,
            other => panic!("poisoned server accepted a mutation: {other:?}"),
        }
    }
    assert_eq!(
        c.server().now(),
        clock_at_poison,
        "no post-poison clock effect"
    );

    // Every later decision sheds typed: Indeterminate, not Deny.
    let mut shed_decisions = 0usize;
    for signers in [&["User_D1"][..], &["User_D2"][..]] {
        let req = probe_request(&c, signers, "read", clock_at_poison);
        let d = c.server_mut().handle_request(&req);
        assert_eq!(d.shed, Some(ShedReason::JournalPoisoned), "typed shed");
        assert!(d.unavailable && !d.granted, "Indeterminate, not Deny");
        shed_decisions += 1;
    }

    // Recover from the durable prefix: the faulted append short-wrote a
    // torn tail, which replay must truncate, never apply.
    let durable = handle.snapshot();
    let recovery_medium = MemStore::from_bytes(durable.clone());
    let recovered_handle = recovery_medium.clone();
    let (mut recovered, report) =
        CoalitionServer::recover("P", c.trust_store(), Box::new(recovery_medium))
            .expect("recover from durable prefix");
    let recovered_bytes = recovered_handle.snapshot();
    assert!(
        recovered_bytes.len() <= durable.len()
            && recovered_bytes[..] == durable[..recovered_bytes.len()],
        "the recovered log is byte-identical to a prefix of the faulted medium"
    );

    // A never-faulted twin: a fresh server configured exactly as the
    // journaled one was at attach, replaying only the completed script.
    let mut twin = CoalitionServer::new("P", c.trust_store());
    twin.add_object(OBJECT_O, c.server().objects()[0].acl.clone())
        .expect("twin object");
    twin.advance_clock(Time(10)).expect("twin clock");
    twin.set_replay_protection(true).expect("config");
    for m in &completed {
        apply_mutation(&mut twin, m).expect("twin replay");
    }

    assert_eq!(recovered.now(), twin.now(), "clocks agree after recovery");
    assert_eq!(
        recovered.now(),
        clock_at_poison,
        "recovery stops at the durable prefix"
    );
    assert_eq!(
        recovered.objects(),
        twin.objects(),
        "object state (ACL, version, content) agrees after recovery"
    );
    assert_eq!(
        recovered.objects()[0].content,
        content_at_poison,
        "the failed append's content never landed"
    );

    // Probe workload: the recovered server and the twin must decide
    // identically — grant, deny, and replay-protection behaviour alike.
    let probe_t = Time(clock_at_poison.0 + 5);
    recovered
        .advance_clock(probe_t)
        .expect("recovered journal is writable again");
    twin.advance_clock(probe_t).expect("twin clock");
    let mut probes_matched = 0usize;
    let reread = probe_request(&c, &["User_D1"], "read", probe_t);
    let probes = [
        (
            "granted read",
            probe_request(&c, &["User_D1"], "read", probe_t),
        ),
        (
            "granted 2-of-3 write",
            probe_request(&c, &["User_D1", "User_D2"], "write", probe_t),
        ),
        (
            "denied 1-of-3 write",
            probe_request(&c, &["User_D3"], "write", probe_t),
        ),
        ("replayed read", reread),
    ];
    for (ctx, req) in &probes {
        let ours = recovered.handle_request(req);
        let twins = twin.handle_request(req);
        assert_same_decision(&ours, &twins, ctx);
        probes_matched += 1;
    }

    table_header(
        "E22 phase B: fail-stop poison and durable-prefix recovery",
        &[
            "completed ops",
            "refused mutations",
            "shed decisions",
            "records replayed",
            "truncated bytes",
            "durable bytes",
            "recovered bytes",
            "probes matched",
        ],
    );
    println!(
        "{} | {} | {} | {} | {} | {} | {} | {}",
        completed.len(),
        refused_mutations,
        shed_decisions,
        report.records_replayed,
        report.truncated_bytes,
        durable.len(),
        recovered_bytes.len(),
        probes_matched,
    );

    PoisonOutcome {
        completed_ops: completed.len(),
        refused_mutations,
        shed_decisions,
        records_replayed: report.records_replayed,
        truncated_bytes: report.truncated_bytes,
        durable_bytes: durable.len() as u64,
        recovered_bytes: recovered_bytes.len() as u64,
        probes_matched,
    }
}

fn print_sweep() {
    let p = profile();
    let a = phase_a(&p);
    let b = phase_b();

    println!(
        "E22_JSON {{\"experiment\":\"e22_overload\",\"profile\":\"{}\",\"cores\":{},\"key_bits\":{},\"requests\":{},\"inflight\":{},\"lanes\":{},\"deadline_ms\":{},\"capacity_rps\":{:.0},\"base_rps\":{:.0},\"control_goodput_rps\":{:.0},\"control_p99_us\":{},\"control_shed\":{},\"overdrive_goodput_rps\":{:.0},\"overdrive_p99_us\":{},\"overdrive_granted\":{},\"overdrive_denied\":{},\"overdrive_shed_overloaded\":{},\"overdrive_shed_deadline\":{},\"goodput_floor\":{},\"poison_completed_ops\":{},\"poison_refused_mutations\":{},\"poison_shed_decisions\":{},\"recovery_records_replayed\":{},\"recovery_truncated_bytes\":{},\"durable_bytes\":{},\"recovered_bytes\":{},\"probes_matched\":{}}}",
        p.name,
        cores(),
        p.key_bits,
        p.requests,
        p.inflight,
        p.lanes,
        p.deadline.as_millis(),
        a.capacity_rps,
        a.base_rps,
        a.control.accepted_rps,
        a.control.accepted_p99_us,
        a.control.shed(),
        a.overdrive.accepted_rps,
        a.overdrive.accepted_p99_us,
        a.overdrive.granted,
        a.overdrive.denied,
        a.overdrive.shed_overloaded,
        a.overdrive.shed_deadline,
        p.goodput_floor,
        b.completed_ops,
        b.refused_mutations,
        b.shed_decisions,
        b.records_replayed,
        b.truncated_bytes,
        b.durable_bytes,
        b.recovered_bytes,
        b.probes_matched,
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e22_overload");
    let mut coalition = standard_coalition(192, 0xE22 + 9);
    coalition
        .server_mut()
        .set_replay_protection(false)
        .expect("config");
    coalition
        .server_mut()
        .set_verification_cache(true)
        .expect("config");
    let req = coalition
        .build_request(&["User_D1"], Operation::new("read", OBJECT_O))
        .expect("request");
    let server = ConcurrentServer::new(coalition.into_server());
    server.set_inflight_limit(1);
    group.bench_function("admitted_decision", |b| {
        b.iter(|| server.decide(&req));
    });
    group.bench_function("gate_reject", |b| {
        // Hold the only slot so every decide sheds at the gate: prices
        // the lock-free reject path itself.
        let _hold = server.acquire_slot().expect("empty gate");
        b.iter(|| server.decide(&req));
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
