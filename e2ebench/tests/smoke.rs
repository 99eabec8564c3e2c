//! Smoke-size runs of every workload loop and check: small counts and
//! 512-bit coalition keys, the same code paths as a measured run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use jaap_e2ebench::config::{Profile, Workload};
use jaap_e2ebench::drive::{self, RunResult};
use jaap_e2ebench::report::{self, Micro};
use jaap_e2ebench::trace::Tracer;
use jaap_e2ebench::world::World;
use jaap_obs::MetricsRegistry;

fn dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("run")
        .join(format!("test-{tag}-{}", std::process::id()))
}

/// Builds, warms up and runs one smoke world in `dir(tag)`, tampered
/// with by `tamper`, with `registry` attached when given and spans taken
/// by `tracer` from `epoch`. It recovers
/// `previous` during its timed phase; its own final journal is kept next
/// to its directory, and the path returned.
fn pass(
    workload: Workload,
    tag: &str,
    registry: Option<&MetricsRegistry>,
    previous: Option<&Path>,
    (epoch, tracer): (Instant, &mut Tracer),
    tamper: impl FnOnce(&mut World),
) -> (RunResult, PathBuf) {
    let profile = Profile::smoke(workload);
    let mut world = World::build(profile, 11, &dir(tag), epoch, registry.is_some());
    if let Some(reg) = registry {
        world.front.set_metrics(reg);
    }
    tamper(&mut world);
    let mut r = RunResult::new(profile.workers);
    let start = drive::warm_up(&mut world, &mut r);
    let scoped = registry.map(|reg| reg.scoped("shard.0."));
    let keep = dir(tag).with_extension("journal");
    let r = drive::run(
        &mut world,
        start,
        r,
        tracer,
        scoped.as_ref(),
        previous,
        &keep,
    );
    (r, keep)
}

/// Runs a lead smoke world, then the world under test, which recovers the
/// lead's final journal during its timed phase; returns the result of the
/// world under test and the tracer it filled.
fn smoke(
    workload: Workload,
    tag: &str,
    traced: bool,
    tamper: impl FnOnce(&mut World),
) -> (RunResult, Tracer) {
    let epoch = Instant::now();
    let lead_tag = format!("{tag}-lead");
    let (lead, lead_journal) = pass(
        workload,
        &lead_tag,
        None,
        None,
        (epoch, &mut Tracer::new(false, epoch)),
        |_| {},
    );
    assert!(lead.correct(), "lead mismatches: {:?}", lead.mismatches);
    assert!(
        lead.recover_ms.is_empty(),
        "a first world takes no recovery samples"
    );
    let registry = MetricsRegistry::new();
    let mut tracer = Tracer::new(traced, epoch);
    let (r, journal) = pass(
        workload,
        tag,
        traced.then_some(&registry),
        Some(&lead_journal),
        (epoch, &mut tracer),
        tamper,
    );
    for path in [lead_journal, journal] {
        std::fs::remove_file(path).expect("remove kept journal");
    }
    (r, tracer)
}

fn assert_clean(r: &RunResult, profile: &Profile) {
    assert!(r.correct(), "mismatches: {:?}", r.mismatches);
    assert_eq!(r.failed, 0);
    assert_eq!(r.decisions, profile.requests as u64);
    assert_eq!(r.latencies_us.len(), profile.requests);
    let stepped: usize = r.steps.iter().map(|s| s.0).sum();
    assert_eq!(stepped, profile.requests);
    assert!(!r.pace_us.is_empty(), "the reference kernel never ran");
    assert_eq!(r.admin_us.len(), profile.admin_ops);
    assert_eq!(r.lag_ms.len(), profile.admin_ops);
    assert_eq!(r.recover_ms.len(), profile.recover_runs);
    assert!(r.records_replayed > 0);
    assert!(r.journal_bytes > 0 && r.journal_appends > 0);
    for m in report::timed_metrics(r) {
        assert!(
            m.value > 0.0,
            "{} must be positive, got {}",
            m.name,
            m.value
        );
    }
}

/// A re-presented pool entry must not find its derivation memoized: each
/// timed read runs the derivation, as a freshly signed one would.
fn assert_no_memo_hits(r: &RunResult, profile: &Profile) {
    assert_eq!(r.memo.0, 0, "memo hits in the timed read phase");
    // One lookup per timed read and per revocation probe (two for each
    // revocation spread over the phase).
    assert_eq!(r.memo.1, r.decisions + 2 * profile.revocations() as u64);
}

#[test]
fn measured_pools_outsize_the_replay_window_and_the_memo() {
    for workload in [
        Workload::ReadHot,
        Workload::ReadCold,
        Workload::JointWriteDurable,
    ] {
        for p in [Profile::new(workload, 10), Profile::smoke(workload)] {
            let memo = p.capacities.derivation_memo.expect("memo bound");
            assert!(
                p.pool >= 2 * memo,
                "{}: pool {} memo {memo}",
                workload.name(),
                p.pool
            );
            assert!(p.pool >= 2 * p.capacities.replay);
        }
    }
}

#[test]
fn read_hot_smoke_is_correct() {
    let profile = Profile::smoke(Workload::ReadHot);
    let (r, _) = smoke(Workload::ReadHot, "hot", false, |_| {});
    assert_clean(&r, &profile);
    assert_no_memo_hits(&r, &profile);
    // Two of three checks of a warmed-up hot read come from the cache.
    assert_eq!(r.checks + r.cached_checks, 3 * r.decisions);
    assert_eq!(r.cached_checks, 2 * r.decisions);
}

#[test]
fn read_cold_smoke_is_correct_and_misses_the_cache() {
    let profile = Profile::smoke(Workload::ReadCold);
    let (r, _) = smoke(Workload::ReadCold, "cold", false, |_| {});
    assert_clean(&r, &profile);
    assert_no_memo_hits(&r, &profile);
    assert!(
        r.cached_checks * 4 < r.checks,
        "cold reads must mostly verify"
    );
}

#[test]
fn joint_write_smoke_is_correct() {
    let profile = Profile::smoke(Workload::JointWriteDurable);
    let (r, _) = smoke(Workload::JointWriteDurable, "write", false, |_| {});
    assert_clean(&r, &profile);
    // One journal record per write; the interleaved mutations and probes
    // are left out of the timed phase's counts.
    assert_eq!(r.journal_appends as usize, profile.requests);
    assert!(profile.revocations() > 0);
}

#[test]
fn every_revocation_strikes_its_own_target() {
    for workload in [
        Workload::ReadHot,
        Workload::ReadCold,
        Workload::JointWriteDurable,
    ] {
        let profile = Profile::smoke(workload);
        let world = World::build(
            profile,
            5,
            &dir(&format!("targets-{}", workload.name())),
            Instant::now(),
            false,
        );
        assert_eq!(
            world.names.len(),
            profile.principals + profile.revocations()
        );
        let targets: Vec<&str> = world
            .admin
            .iter()
            .filter_map(|op| {
                let before = op.before.as_ref()?;
                let after = op.probe.as_ref().expect("a revocation has both probes");
                assert_eq!(
                    before.statements[0].principal,
                    after.statements[0].principal
                );
                assert!(before.at < after.at);
                Some(after.statements[0].principal.as_str())
            })
            .collect();
        assert_eq!(targets.len(), profile.revocations());
        let mut distinct = targets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), targets.len(), "a target was revoked twice");
        let readers = &world.names[..profile.principals];
        assert!(
            targets.iter().all(|t| !readers.iter().any(|r| r == t)),
            "a reader was revoked"
        );
    }
}

#[test]
fn traced_smoke_derives_every_per_layer_metric() {
    let profile = Profile::smoke(Workload::ReadHot);
    let (t, tracer) = smoke(Workload::ReadHot, "traced", true, |_| {});
    assert!(t.correct(), "mismatches: {:?}", t.mismatches);
    let (u, _) = smoke(Workload::ReadHot, "untraced", false, |_| {});
    let m = report::per_layer(&t, &tracer, &u, None, Micro::default(), profile.batch);
    let get = |n: &str| {
        m.iter()
            .find(|x| x.name == n)
            .unwrap_or_else(|| panic!("missing {n}"))
            .value
    };
    assert!(get("front.decide_us") > 0.0);
    assert!(get("crypto.phase_us_per_decision") > 0.0);
    assert!(get("wal.append_us") > 0.0);
    assert!(get("crypto.cached_share") >= 0.6);
    assert_eq!(get("server.replay_hit_ratio"), 0.0);
    assert_eq!(get("crypto.batch_verifies"), 0.0);
    assert!(tracer
        .spans()
        .iter()
        .any(|s| s.name == "wal.append" && s.parent.is_some()));
    let path = dir("traced-spans").with_extension("jsonl");
    std::fs::create_dir_all(path.parent().expect("parent")).expect("run dir");
    tracer.write_jsonl(&path).expect("write spans");
    let lines = std::fs::read_to_string(&path).expect("read spans");
    assert_eq!(lines.lines().count(), tracer.spans().len());
    std::fs::remove_file(&path).expect("remove spans");
}

#[test]
fn a_wrong_expected_verdict_is_caught() {
    let (r, _) = smoke(Workload::JointWriteDurable, "tampered", false, |w| {
        for e in &mut w.writes {
            e.grant = !e.grant;
        }
    });
    assert!(!r.correct());
    assert!(r.mismatch_count > 0);
}

/// Drops only the last revocation of a smoke world of `workload`, then
/// requires its probe to flag it.
fn dropped_revocation_is_caught(workload: Workload) {
    use jaap_e2ebench::world::{acl_variant, AdminAction, AdminKind};
    let tag = format!("no-revoke-{}", workload.name());
    let (r, _) = smoke(workload, &tag, false, |w| {
        let last = w
            .admin
            .iter_mut()
            .rev()
            .find(|op| matches!(op.kind, AdminKind::Crl | AdminKind::Revoke))
            .expect("a revocation");
        last.action = AdminAction::Acl(acl_variant(0));
    });
    assert_eq!(r.failed, 0);
    assert!(
        r.mismatches.iter().any(|m| m.starts_with("probe after")),
        "a probe after a revocation that never happened is granted and must be flagged: {:?}",
        r.mismatches
    );
}

#[test]
fn a_dropped_later_revocation_is_caught_by_its_probe() {
    dropped_revocation_is_caught(Workload::ReadHot);
    dropped_revocation_is_caught(Workload::JointWriteDurable);
}
