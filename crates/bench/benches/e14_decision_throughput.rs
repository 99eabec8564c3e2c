//! Experiment E14: decision throughput of the optimized authorization
//! pipeline.
//!
//! Part A quantifies the single-thread RSA signing win: the seed
//! implementation's exponentiation (fixed 4-bit windows, a 16-entry table
//! including even powers, and a trial division after every square) is
//! re-created here verbatim and raced against the library's current
//! non-CRT path (Montgomery CIOS + sliding windows) and the full CRT +
//! Montgomery fast path.
//!
//! Part B sweeps the coalition server's batch pipeline: workers × cache ×
//! modulus size, measuring granted-decision throughput of
//! `CoalitionServer::verify_batch` over independently signed write
//! requests.
//!
//! Set `E14_PROFILE=smoke` for a seconds-scale sweep (CI); the default
//! profile uses 2048-bit keys for Part A.
//!
//! Machine-readable record: one line, grep `"^E14_JSON "`. Its headline,
//! `cache_speedup_1w`, is cached over uncached `verify_batch` throughput
//! at 1 worker and the largest modulus swept.

use criterion::{criterion_group, Criterion};
use jaap_bench::table_header;
use jaap_bigint::Nat;
use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_crypto::fdh;
use jaap_crypto::rsa::RsaKeyPair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("E14_PROFILE").is_ok_and(|v| v == "smoke")
}

/// The seed tree's `Nat::modpow`, reproduced exactly: 4-bit fixed windows
/// over a 16-entry table (even powers included), squarings through the
/// general multiplier, and a full division-based reduction at every step.
fn seed_modpow(base: &Nat, exp: &Nat, m: &Nat) -> Nat {
    assert!(!m.is_zero());
    if m.is_one() {
        return Nat::zero();
    }
    if exp.is_zero() {
        return Nat::one();
    }
    let base = base.rem_nat(m);
    if base.is_zero() {
        return Nat::zero();
    }
    let mut table = Vec::with_capacity(16);
    table.push(Nat::one());
    for i in 1..16 {
        let prev: &Nat = &table[i - 1];
        table.push(prev.mulm(&base, m));
    }
    let nibbles = exp.bit_len().div_ceil(4);
    let mut acc = Nat::one();
    for i in (0..nibbles).rev() {
        if i != nibbles - 1 {
            for _ in 0..4 {
                acc = acc.mul_nat(&acc).rem_nat(m);
            }
        }
        let nib = seed_nibble(exp, i);
        if nib != 0 {
            acc = acc.mulm(&table[nib as usize], m);
        }
    }
    acc
}

fn seed_nibble(n: &Nat, i: usize) -> u8 {
    let bit = i * 4;
    let mut v = 0u8;
    for k in 0..4 {
        if n.bit(bit + k) {
            v |= 1 << k;
        }
    }
    v
}

struct SignPoint {
    bits: usize,
    seed_ms: f64,
    classic_ms: f64,
    crt_ms: f64,
}

impl SignPoint {
    fn speedup_total(&self) -> f64 {
        self.seed_ms / self.crt_ms
    }
    fn speedup_montgomery(&self) -> f64 {
        self.seed_ms / self.classic_ms
    }
}

/// Times the three private-op pipelines on identical FDH-encoded inputs.
fn measure_sign(bits: usize, trials: u32) -> SignPoint {
    let mut rng = StdRng::seed_from_u64(0xE14 + bits as u64);
    let kp = RsaKeyPair::generate(&mut rng, bits).expect("keygen");
    assert!(kp.has_crt(), "keygen must retain CRT parameters");
    let n = kp.public().modulus().clone();
    let msgs: Vec<Vec<u8>> = (0..trials)
        .map(|i| format!("E14 corpus item {i}").into_bytes())
        .collect();

    let started = Instant::now();
    let mut seed_sigs = Vec::new();
    for msg in &msgs {
        let h = fdh::encode(msg, &n);
        seed_sigs.push(seed_modpow(&h, kp.private_exponent(), &n));
    }
    let seed_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(trials);

    let started = Instant::now();
    let mut classic_sigs = Vec::new();
    for msg in &msgs {
        classic_sigs.push(kp.sign_classic(msg).expect("sign_classic"));
    }
    let classic_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(trials);

    let started = Instant::now();
    let mut crt_sigs = Vec::new();
    for msg in &msgs {
        crt_sigs.push(kp.sign(msg).expect("sign"));
    }
    let crt_ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(trials);

    // All three pipelines must agree bit for bit.
    for ((seed, classic), crt) in seed_sigs.iter().zip(&classic_sigs).zip(&crt_sigs) {
        assert_eq!(seed, classic.value(), "seed path disagrees");
        assert_eq!(classic.value(), crt.value(), "CRT path disagrees");
    }

    SignPoint {
        bits,
        seed_ms,
        classic_ms,
        crt_ms,
    }
}

struct BatchPoint {
    bits: usize,
    workers: usize,
    cache: bool,
    requests: usize,
    total_ms: f64,
    throughput: f64,
}

/// Sweeps every (cache, workers) cell for one modulus size. The coalition
/// (and its expensive keygen) is built once; each cell resets the server
/// to a cold state and replays the same pre-signed requests through one
/// `verify_batch` call, so the cells differ only in the configuration
/// under test.
fn run_batch_sweep(
    bits: usize,
    worker_counts: &[usize],
    n_requests: usize,
    points: &mut Vec<BatchPoint>,
) {
    let mut c: Coalition = CoalitionBuilder::new()
        .key_bits(bits)
        .seed(0xE14)
        .build()
        .expect("coalition");
    let mut requests = Vec::with_capacity(n_requests);
    for i in 0..n_requests {
        c.advance_time(Time(20 + i as i64)).expect("clock");
        requests.push(
            c.build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
                .expect("request"),
        );
    }
    for &cache in &[false, true] {
        for &workers in worker_counts {
            c.reset_server();
            c.set_verification_cache(cache).expect("config");
            let started = Instant::now();
            let decisions = c.server_mut().verify_batch(&requests, workers);
            let elapsed = started.elapsed();
            assert!(decisions.iter().all(|d| d.granted), "all writes must grant");
            let p = BatchPoint {
                bits,
                workers,
                cache,
                requests: n_requests,
                total_ms: elapsed.as_secs_f64() * 1e3,
                throughput: n_requests as f64 / elapsed.as_secs_f64(),
            };
            println!(
                "{} | {} | {} | {} | {:.2} | {:.1}",
                p.bits, p.workers, p.cache, p.requests, p.total_ms, p.throughput
            );
            points.push(p);
        }
    }
}

fn print_sweep() {
    let smoke = smoke();

    // Part A: single-thread signing latency.
    table_header(
        "E14a: RSA sign latency — seed vs Montgomery vs CRT+Montgomery",
        &["bits", "seed ms", "mont ms", "crt ms", "x(mont)", "x(crt)"],
    );
    let (sign_bits, sign_trials): (&[usize], u32) = if smoke {
        (&[256], 2)
    } else {
        (&[1024, 2048], 3)
    };
    let mut sign_points = Vec::new();
    for &bits in sign_bits {
        let p = measure_sign(bits, sign_trials);
        println!(
            "{} | {:.2} | {:.2} | {:.2} | {:.2}x | {:.2}x",
            p.bits,
            p.seed_ms,
            p.classic_ms,
            p.crt_ms,
            p.speedup_montgomery(),
            p.speedup_total()
        );
        sign_points.push(p);
    }

    // Part B: batch decision throughput. Worker scaling is bounded by the
    // host's physical parallelism, so record it alongside the sweep: on a
    // single-core host the workers axis measures pool overhead only.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "\n(host parallelism: {cores} core{})",
        if cores == 1 { "" } else { "s" }
    );
    table_header(
        "E14b: verify_batch decision throughput",
        &["bits", "workers", "cache", "requests", "total ms", "req/s"],
    );
    let (batch_bits, worker_counts, n_requests): (&[usize], &[usize], usize) = if smoke {
        (&[96], &[1, 2], 6)
    } else {
        (&[1024, 2048], &[1, 2, 4, 8], 32)
    };
    let mut batch_points = Vec::new();
    for &bits in batch_bits {
        run_batch_sweep(bits, worker_counts, n_requests, &mut batch_points);
    }

    // Machine-readable record (one line, grep "^E14_JSON ").
    let sign_cells: Vec<String> = sign_points
        .iter()
        .map(|p| {
            format!(
                "{{\"bits\":{},\"seed_ms\":{:.3},\"montgomery_ms\":{:.3},\"crt_ms\":{:.3},\"speedup_montgomery\":{:.2},\"speedup_crt\":{:.2}}}",
                p.bits,
                p.seed_ms,
                p.classic_ms,
                p.crt_ms,
                p.speedup_montgomery(),
                p.speedup_total()
            )
        })
        .collect();
    let batch_cells: Vec<String> = batch_points
        .iter()
        .map(|p| {
            format!(
                "{{\"bits\":{},\"workers\":{},\"cache\":{},\"requests\":{},\"total_ms\":{:.3},\"throughput\":{:.1}}}",
                p.bits, p.workers, p.cache, p.requests, p.total_ms, p.throughput
            )
        })
        .collect();
    // Headline: what the verification cache buys a single worker, at the
    // largest modulus swept.
    let one_worker = |cache: bool| {
        batch_points
            .iter()
            .rev()
            .find(|p| p.workers == 1 && p.cache == cache)
            .map_or(f64::NAN, |p| p.throughput)
    };
    let cache_speedup_1w = one_worker(true) / one_worker(false);
    println!("\nE14 headline: cached / uncached throughput at 1 worker = {cache_speedup_1w:.2}x");
    println!(
        "E14_JSON {{\"experiment\":\"e14_decision_throughput\",\"profile\":\"{}\",\"cores\":{},\"cache_speedup_1w\":{:.2},\"sign\":[{}],\"batch\":[{}]}}",
        if smoke { "smoke" } else { "full" },
        cores,
        cache_speedup_1w,
        sign_cells.join(","),
        batch_cells.join(",")
    );
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_decision_throughput");
    let mut rng = StdRng::seed_from_u64(0xE14);
    let kp = RsaKeyPair::generate(&mut rng, 512).expect("keygen");
    group.bench_function("sign_512_crt_montgomery", |b| {
        b.iter(|| kp.sign(b"bench").expect("sign"));
    });
    group.bench_function("sign_512_montgomery_only", |b| {
        b.iter(|| kp.sign_classic(b"bench").expect("sign"));
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
