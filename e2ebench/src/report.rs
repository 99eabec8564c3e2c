//! Turns raw pass results and spans into the named end-to-end and
//! per-layer metrics, and prints the result line.

use crate::drive::RunResult;
use crate::stats::{ratio, Summary};
use crate::trace::Tracer;
use crate::world::AdminKind;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Spread note printed next to the value (samples, quartiles).
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    }
}

fn median_note(s: &Summary) -> String {
    format!(
        "median of n={} (q1 {:.4}, q3 {:.4}, iqr/median {:.4})",
        s.n,
        s.q1,
        s.q3,
        s.spread()
    )
}

/// Decisions per window of [`paced_throughput`].
const WINDOW: usize = 128;

/// Decisions per second at the reference pace in the median window of
/// 128 or more consecutive decisions, with the window count. A
/// median over windows, not decisions over the whole phase: a few
/// stretches of stalled fsyncs on the shared disk would otherwise move
/// the figure from run to run.
#[must_use]
pub fn paced_throughput(r: &RunResult) -> (f64, usize) {
    let mut rates = Vec::new();
    let (mut n, mut us) = (0, 0.0);
    for &(d, t) in &r.steps {
        n += d;
        us += t;
        if n >= WINDOW {
            rates.push(ratio(n as f64 * 1e6, us));
            (n, us) = (0, 0.0);
        }
    }
    if rates.is_empty() && n > 0 {
        rates.push(ratio(n as f64 * 1e6, us));
    }
    (Summary::of(&rates).median, rates.len())
}

/// The end-to-end metrics that come from the timed phase and what follows
/// it (everything except `setup_s`). Times are at the reference pace
/// ([`crate::pace`]), except `replica_lag_ms`, which is mostly timer
/// sleep, and `cpu_us_per_decision`, which stays raw CPU time so that
/// work the program adds on other threads shows whatever the pace.
#[must_use]
pub fn timed_metrics(r: &RunResult) -> Vec<Metric> {
    let lat_sum = Summary::of(&r.latencies_us);
    let admin: Vec<f64> = r.admin_us.iter().map(|a| a.1).collect();
    let admin = Summary::of(&admin);
    let lag = Summary::of(&r.lag_ms);
    let rec = Summary::of(&r.recover_ms);
    let dec = r.decisions as f64;
    let (thr, windows) = paced_throughput(r);
    vec![
        metric(
            "throughput_dps",
            thr,
            "1/s_at_ref",
            format!(
                "median of {windows} windows; raw {:.1} 1/s over the phase ({} decisions in {:.3} s); reference kernel median {:.1} us",
                ratio(dec, r.wall_s),
                r.decisions,
                r.wall_s,
                Summary::of(&r.pace_us).median
            ),
        ),
        metric(
            "latency_p50_us",
            lat_sum.median,
            "us_at_ref",
            median_note(&lat_sum),
        ),
        metric(
            "latency_p75_us",
            lat_sum.q3,
            "us_at_ref",
            format!(
                "n={}, {} beyond p75; p90 {:.1}, p99 {:.1}",
                lat_sum.n,
                lat_sum.n / 4,
                lat_sum.p90,
                lat_sum.p99
            ),
        ),
        metric(
            "cpu_us_per_decision",
            ratio(r.cpu_us, dec),
            "us",
            format!("{:.0} us process CPU over the timed phase", r.cpu_us),
        ),
        metric(
            "journal_bytes_per_decision",
            ratio(r.journal_bytes as f64, dec),
            "B",
            format!("{} bytes in {} appends", r.journal_bytes, r.journal_appends),
        ),
        metric(
            "peak_rss_mib",
            crate::sys::peak_rss_mib(),
            "MiB",
            "VmHWM".into(),
        ),
        metric(
            "admin_p50_us",
            admin.median,
            "us_at_ref",
            median_note(&admin),
        ),
        metric("replica_lag_ms", lag.median, "ms", median_note(&lag)),
        // A mean, not a median: the samples are spread over the run, and
        // on a host whose speed switches between two levels a median jumps
        // between them as their mix shifts, while the mean follows the mix.
        metric(
            "recover_ms",
            rec.mean,
            "ms_at_ref",
            format!("mean of n={}; {}", rec.n, median_note(&rec)),
        ),
    ]
}

/// `setup_s`: the median of the run's set-ups.
#[must_use]
pub fn setup_metric(setups_s: &[f64]) -> Metric {
    let s = Summary::of(setups_s);
    metric("setup_s", s.median, "s", median_note(&s))
}

/// Bench-timed single operations at 2048 bits (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// Median `RsaPublicKey::verify`, µs.
    pub verify_us: f64,
    /// Median `RsaPublicKey::encrypt` of the object contents, µs.
    pub encrypt_us: f64,
}

/// The per-layer metrics of a traced pass `t`, with the untraced pass
/// `u` for the tracing overhead and, on `read_cold`, the 1-worker pass
/// `one` for the pool speed-up.
#[must_use]
pub fn per_layer(
    t: &RunResult,
    tracer: &Tracer,
    u: &RunResult,
    one: Option<&RunResult>,
    micro: Micro,
    batch: usize,
) -> Vec<Metric> {
    let obs = t.obs.unwrap_or_default();
    let dec = t.decisions as f64;
    let b = batch.max(1) as f64;
    let mean_us = |(sum, count): (u64, u64)| ratio(sum as f64, count as f64) / 1e3;
    let (crypto_us, logic_us, acl_us) = (mean_us(obs.crypto), mean_us(obs.logic), mean_us(obs.acl));
    let lookup = tracer.summary("store.lookup");
    let decide = tracer.summary("front.decide");
    let decide_us = decide.mean / b;
    // Batched decisions overlap on the pool's workers.
    let concurrency = t.workers as f64;
    let wal = tracer.summary("wal.append");
    let admin_kind = |k: AdminKind| {
        let v: Vec<f64> = t
            .admin_us
            .iter()
            .filter(|a| a.0 == k)
            .map(|a| a.1)
            .collect();
        Summary::of(&v).median
    };
    let rec = Summary::of(&t.recover_ms);
    let rounds: Vec<f64> = t.sync_rounds.iter().map(|&x| x as f64).collect();
    // Time inside the timed phase not spent in any call into the system.
    let timed = tracer.summary("phase.timed").mean;
    let inside = tracer.total_within_us(
        &[
            "store.lookup",
            "front.decide",
            "admin.crl",
            "admin.revoke",
            "admin.acl",
            "admin.tick",
            "repl.sync",
            "probe",
            "recover",
            "pace",
        ],
        "phase.timed",
    );
    let thr = |r: &RunResult| paced_throughput(r).0;
    let mut m = vec![
        metric(
            "store.lookup_us",
            lookup.median / b,
            "us",
            median_note(&lookup),
        ),
        metric(
            "store.page_miss_per_lookup",
            ratio(obs.store_misses as f64, obs.store_reads as f64),
            "ratio",
            format!("{} misses / {} reads", obs.store_misses, obs.store_reads),
        ),
        metric(
            "store.resident_kib",
            t.resident_bytes as f64 / 1024.0,
            "KiB",
            String::new(),
        ),
        metric(
            "crypto.phase_us_per_decision",
            crypto_us,
            "us",
            format!("server.phase.crypto_ns over {} decisions", obs.crypto.1),
        ),
        metric(
            "crypto.checks_per_decision",
            ratio((t.checks + t.cached_checks) as f64, dec),
            "count",
            String::new(),
        ),
        metric("crypto.verify_us", micro.verify_us, "us", String::new()),
        metric(
            "crypto.cached_share",
            ratio(t.cached_checks as f64, (t.checks + t.cached_checks) as f64),
            "ratio",
            format!(
                "{} cached of {}",
                t.cached_checks,
                t.checks + t.cached_checks
            ),
        ),
        metric("crypto.encrypt_us", micro.encrypt_us, "us", String::new()),
        metric(
            "crypto.precomp_hits_per_decision",
            ratio(obs.precomp_hits as f64, dec),
            "count",
            String::new(),
        ),
        metric(
            "crypto.batch_verifies",
            obs.batch_verifies as f64,
            "count",
            "the sharded front-end never calls verify_batch".into(),
        ),
        metric(
            "core.logic_us_per_decision",
            logic_us,
            "us",
            format!("server.phase.logic_ns over {} decisions", obs.logic.1),
        ),
        metric(
            "core.axioms_per_decision",
            ratio(t.axioms as f64, dec),
            "count",
            String::new(),
        ),
        metric(
            "core.memo_hit_ratio",
            ratio(t.memo.0 as f64, (t.memo.0 + t.memo.1) as f64),
            "ratio",
            format!("{} hits, {} misses", t.memo.0, t.memo.1),
        ),
        metric(
            "server.replay_hit_ratio",
            ratio(obs.replay_hits as f64, dec),
            "ratio",
            String::new(),
        ),
        metric("front.decide_us", decide_us, "us", median_note(&decide)),
        metric(
            "front.unattributed_us",
            decide_us * concurrency - (crypto_us + logic_us + acl_us),
            "us",
            format!("decide x {concurrency} minus crypto {crypto_us:.1} + logic {logic_us:.1} + acl {acl_us:.1}"),
        ),
        metric(
            "pool.cpu_busy_cores",
            ratio(t.cpu_us / 1e6, t.wall_s),
            "cores",
            String::new(),
        ),
        metric(
            "pool.speedup",
            one.map_or(1.0, |o| ratio(thr(u), thr(o))),
            "x",
            one.map_or_else(
                || "one caller thread, no pool".into(),
                |o| {
                    format!(
                        "{:.1} decisions/s at {} workers vs {:.1} at 1",
                        thr(u),
                        u.workers,
                        thr(o)
                    )
                },
            ),
        ),
        metric("wal.append_us", wal.median, "us", median_note(&wal)),
        metric(
            "wal.bytes_per_append",
            ratio(t.journal_bytes as f64, t.journal_appends as f64),
            "B",
            String::new(),
        ),
        metric(
            "admin.crl_us",
            admin_kind(AdminKind::Crl),
            "us_at_ref",
            String::new(),
        ),
        metric(
            "admin.revoke_us",
            admin_kind(AdminKind::Revoke),
            "us_at_ref",
            String::new(),
        ),
        metric(
            "admin.acl_us",
            admin_kind(AdminKind::Acl),
            "us_at_ref",
            String::new(),
        ),
        metric(
            "repl.sync_ms",
            Summary::of(&t.lag_ms).median,
            "ms",
            String::new(),
        ),
        metric(
            "repl.rounds_per_sync",
            Summary::of(&rounds).mean,
            "count",
            String::new(),
        ),
        metric(
            "recover.records_replayed",
            t.records_replayed as f64,
            "count",
            String::new(),
        ),
        metric(
            "recover.us_per_record",
            ratio(rec.mean * 1e3, t.records_replayed as f64),
            "us_at_ref",
            String::new(),
        ),
        metric(
            "gen.overhead_share",
            ratio(timed - inside, timed),
            "ratio",
            format!(
                "{:.0} us of {:.0} us outside calls into the system",
                timed - inside,
                timed
            ),
        ),
    ];
    // Peak RSS is process-wide and shared by both passes, so it has no
    // per-pass overhead.
    let passes = timed_metrics(t).into_iter().zip(timed_metrics(u));
    for (traced, plain) in passes.filter(|(m, _)| m.name != "peak_rss_mib") {
        m.push(metric(
            &format!("trace_overhead.{}", traced.name),
            traced.value - plain.value,
            traced.unit,
            format!(
                "traced {:.4} minus untraced {:.4}",
                traced.value, plain.value
            ),
        ));
    }
    m
}

/// Prints one readable line per metric, then the result line; the first
/// mismatches, if any, go to standard error.
pub fn print(metrics: &[Metric], r: &RunResult) {
    for m in &r.mismatches {
        eprintln!("e2ebench: check failed: {m}");
    }
    let (correct, attempted, failed) = (r.correct(), r.attempted, r.failed);
    println!(
        "# failed_share = {:.6} ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    );
    for m in metrics {
        println!("# {} = {:.4} {}  [{}]", m.name, m.value, m.unit, m.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// A finite JSON number with every digit `{}` prints (non-finite as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_window_rate() {
        let mut r = RunResult::new(1);
        // 16 steps of 8 decisions per window: two windows at 1 ms a step
        // and one at 2 ms a step.
        r.steps = [1000.0, 1000.0, 2000.0]
            .iter()
            .flat_map(|&us| std::iter::repeat_n((8, us), 16))
            .collect();
        let (rate, windows) = paced_throughput(&r);
        assert_eq!(windows, 3);
        assert!((rate - 8000.0).abs() < 1e-9);
        // Fewer decisions than a window still give one rate.
        r.steps.truncate(4);
        assert_eq!(paced_throughput(&r), (8000.0, 1));
    }
}
