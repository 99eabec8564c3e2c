//! One-command reproduction: regenerates every experiment table from
//! EXPERIMENTS.md and writes `REPORT.md`.
//!
//! ```sh
//! cargo run --release -p jaap-bench --bin report
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use jaap_bench::{coalition_of, standard_coalition};
use jaap_coalition::availability;
use jaap_coalition::liability::{exposure_probability, min_compromises, Scheme};
use jaap_core::syntax::Time;
use jaap_crypto::shared::SharedRsaKey;
use jaap_crypto::{collusion, joint};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// First numeric value following `"key":` in a flat JSON record — enough
/// for the single-level bench records this binary reads, with no JSON
/// dependency.
fn json_number(src: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &src[src.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out = String::new();
    writeln!(out, "# REPORT — regenerated experiment tables\n")?;
    writeln!(
        out,
        "Produced by `cargo run --release -p jaap-bench --bin report`. \
         See EXPERIMENTS.md for the paper-vs-measured discussion.\n"
    )?;

    // E4: keygen.
    writeln!(out, "## E4 — distributed shared key generation\n")?;
    writeln!(out, "| bits | n | wall | candidates | messages |")?;
    writeln!(out, "|---|---|---|---|---|")?;
    for bits in [128usize, 256, 384] {
        let start = Instant::now();
        let (_p, _s, stats) = SharedRsaKey::generate(bits, 3, 42 + bits as u64)?;
        writeln!(
            out,
            "| {bits} | 3 | {:?} | {} | {} |",
            start.elapsed(),
            stats.candidates_tried,
            stats.network.messages_sent
        )?;
    }

    // E5: signatures + ratio.
    writeln!(out, "\n## E5 — joint signature cost and keygen ratio\n")?;
    writeln!(out, "| bits | n | signature | keygen/signature |")?;
    writeln!(out, "|---|---|---|---|")?;
    for bits in [128usize, 256] {
        let kg_start = Instant::now();
        let (public, shares, _) = SharedRsaKey::generate(bits, 3, 7)?;
        let keygen = kg_start.elapsed();
        let start = Instant::now();
        let iters = 20u32;
        for i in 0..iters {
            let msg = format!("m{i}");
            let _ = joint::sign_locally(&public, &shares, msg.as_bytes())?;
        }
        let sig = start.elapsed() / iters;
        writeln!(
            out,
            "| {bits} | 3 | {sig:?} | {:.0}x |",
            keygen.as_secs_f64() / sig.as_secs_f64()
        )?;
    }

    // E6: availability.
    writeln!(out, "\n## E6 — m-of-n availability (p_up = 0.95)\n")?;
    writeln!(out, "| n | n-of-n | majority | gain |")?;
    writeln!(out, "|---|---|---|---|")?;
    for n in [3usize, 5, 7, 9] {
        let full = availability::analytic(n, n, 0.95);
        let maj = availability::analytic(n, n / 2 + 1, 0.95);
        writeln!(out, "| {n} | {full:.4} | {maj:.4} | {:.2}x |", maj / full)?;
    }

    // E7: liability.
    writeln!(out, "\n## E7 — trust liability (q = 0.05, n = 3)\n")?;
    writeln!(out, "| scheme | min compromises | exposure |")?;
    writeln!(out, "|---|---|---|")?;
    for (label, scheme) in [
        ("Case I lockbox", Scheme::CaseILockbox { n: 3 }),
        (
            "Case I, 3 replicas",
            Scheme::CaseIReplicated { n: 3, replicas: 3 },
        ),
        ("Case II 2-of-3", Scheme::CaseIIThreshold { m: 2, n: 3 }),
        ("Case II 3-of-3", Scheme::CaseIIShared { n: 3 }),
    ] {
        writeln!(
            out,
            "| {label} | {} | {:.2e} |",
            min_compromises(scheme),
            exposure_probability(scheme, 0.05)
        )?;
    }

    // E11: collusion with real key material.
    writeln!(out, "\n## E11 — collusion (192-bit shared key, n = 3)\n")?;
    writeln!(out, "| colluders | key recovered |")?;
    writeln!(out, "|---|---|")?;
    let mut rng = StdRng::seed_from_u64(5);
    let (public, shares) = SharedRsaKey::deal(&mut rng, 192, 3)?;
    for k in 1..=3usize {
        let pooled: Vec<_> = shares[..k].iter().collect();
        writeln!(
            out,
            "| {k} | {} |",
            collusion::collude_additive(&public, &pooled).is_compromised()
        )?;
    }

    // E2/E8: authorization decisions and costs.
    writeln!(
        out,
        "\n## E2/E8 — authorization decisions (2-of-3 writes)\n"
    )?;
    writeln!(out, "| request | decision | axiom apps | sig checks |")?;
    writeln!(out, "|---|---|---|---|")?;
    let mut c = standard_coalition(256, 31);
    for (label, signers) in [
        ("write 2-of-3", vec!["User_D1", "User_D2"]),
        ("write 1 signer", vec!["User_D1"]),
        ("read 1-of-3", vec!["User_D3"]),
    ] {
        let d = if label.starts_with("read") {
            c.request_read(&signers)?
        } else {
            c.request_write(&signers)?
        };
        writeln!(
            out,
            "| {label} | {} | {} | {} |",
            if d.granted { "GRANT" } else { "DENY" },
            d.axiom_applications,
            d.signature_checks
        )?;
    }

    // E9: revocation.
    writeln!(out, "\n## E9 — revocation series\n")?;
    writeln!(out, "| phase | write decision |")?;
    writeln!(out, "|---|---|")?;
    let mut c = standard_coalition(256, 32);
    let before = c.request_write(&["User_D1", "User_D2"])?;
    writeln!(
        out,
        "| before revocation | {} |",
        if before.granted { "GRANT" } else { "DENY" }
    )?;
    c.advance_time(Time(20)).expect("clock");
    c.revoke_write_ac(Time(20))?;
    c.advance_time(Time(21)).expect("clock");
    let after = c.request_write(&["User_D1", "User_D2"])?;
    writeln!(
        out,
        "| after revocation | {} |",
        if after.granted { "GRANT" } else { "DENY" }
    )?;

    // E10: dynamics.
    writeln!(out, "\n## E10 — coalition dynamics (join costs)\n")?;
    writeln!(out, "| n after join | rekey | revoked | reissued |")?;
    writeln!(out, "|---|---|---|---|")?;
    let mut c = coalition_of(3, 2, 192, 41);
    for i in 4..=6 {
        let r = c.join_domain(&format!("D{i}"))?;
        writeln!(
            out,
            "| {} | {:?} | {} | {} |",
            r.domain_count, r.rekey_wall, r.certs_revoked, r.certs_reissued
        )?;
    }

    // E13→E22 trajectory: one headline number per committed bench record
    // (`BENCH_e*.json`, written by the CI smoke runs), so the report shows
    // how the stack's performance story developed without re-running the
    // long benches.
    writeln!(out, "\n## E13→E22 — committed bench-record trajectory\n")?;
    writeln!(out, "| record | headline |")?;
    writeln!(out, "|---|---|")?;
    for (file, label, key, unit) in [
        // The first E13 cell is 2-of-3 with no drops and no crashes.
        (
            "BENCH_e13.json",
            "E13 signing session, 2-of-3 fault-free",
            "mean_ms",
            " ms",
        ),
        (
            "BENCH_e14.json",
            "E14 verify-cache speedup (1 worker)",
            "cache_speedup_1w",
            "x",
        ),
        (
            "BENCH_e15.json",
            "E15 observability overhead",
            "overhead_pct",
            " %",
        ),
        (
            "BENCH_e16.json",
            "E16 warm logic speedup (memo on)",
            "warm_logic_speedup",
            "x",
        ),
        (
            "BENCH_e17.json",
            "E17 journaled decision rate",
            "journaled_rps",
            " rps",
        ),
        (
            "BENCH_e18.json",
            "E18 log shipping",
            "ship_us_per_record",
            " us/record",
        ),
        (
            "BENCH_e19.json",
            "E19 sharded baseline",
            "baseline_rps",
            " rps",
        ),
        ("BENCH_e20.json", "E20 crypto-path speedup", "speedup", "x"),
        (
            "BENCH_e21.json",
            "E21 open-loop sustained rate",
            "achieved_rps",
            " rps",
        ),
        (
            "BENCH_e22.json",
            "E22 overdriven goodput",
            "overdrive_goodput_rps",
            " rps",
        ),
    ] {
        match std::fs::read_to_string(file) {
            Ok(src) => {
                let shown = json_number(&src, key)
                    .map_or_else(|| "?".to_string(), |v| format!("{v}{unit}"));
                writeln!(out, "| {label} | {shown} |")?;
            }
            Err(_) => writeln!(out, "| {label} | (record not committed) |")?,
        }
    }
    if let Ok(src) = std::fs::read_to_string("BENCH_e21.json") {
        if let (Some(p99), Some(resident), Some(principals)) = (
            json_number(&src, "p99_us"),
            json_number(&src, "resident_peak_bytes"),
            json_number(&src, "principals"),
        ) {
            writeln!(
                out,
                "| E21 detail | {principals} principals, p99 {p99} us, \
                 resident peak {:.0} KiB |",
                resident / 1024.0
            )?;
        }
    }
    if let Ok(src) = std::fs::read_to_string("BENCH_e22.json") {
        if let (Some(shed), Some(p99), Some(probes)) = (
            json_number(&src, "overdrive_shed_overloaded"),
            json_number(&src, "overdrive_p99_us"),
            json_number(&src, "probes_matched"),
        ) {
            writeln!(
                out,
                "| E22 detail | {shed} typed Overloaded sheds under 2x \
                 overdrive, accepted p99 {p99} us, {probes} recovery twin \
                 probes identical |"
            )?;
        }
    }

    std::fs::write("REPORT.md", &out)?;
    println!("{out}");
    println!("(written to REPORT.md)");
    Ok(())
}
