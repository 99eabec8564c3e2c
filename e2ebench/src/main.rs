//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload read_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric. The last line of standard output is the JSON
//! result. `--make-primes N` prints a fresh prime fixture instead.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use jaap_coalition::scenario::OBJECT_O;
use jaap_e2ebench::config::{Profile, Workload};
use jaap_e2ebench::drive::{self, RunResult};
use jaap_e2ebench::report::{self, Micro};
use jaap_e2ebench::stats::Summary;
use jaap_e2ebench::trace::Tracer;
use jaap_e2ebench::world::World;
use jaap_obs::MetricsRegistry;
use rand::SeedableRng;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Builds a world and warms it up; returns it with the warm-up's checks,
/// the pool start position and the set-up time in seconds. A traced
/// world gets `registry` attached before warm-up, so every decision
/// snapshot published from then on carries the phase instruments.
fn set_up(
    profile: Profile,
    seed: u64,
    dir: &Path,
    epoch: Instant,
    registry: Option<&MetricsRegistry>,
    workers: usize,
) -> (World, RunResult, usize, f64) {
    let t = Instant::now();
    let mut world = World::build(profile, seed, dir, epoch, registry.is_some());
    if let Some(reg) = registry {
        world.front.set_metrics(reg);
    }
    let mut r = RunResult::new(workers);
    let start = drive::warm_up(&mut world, &mut r);
    (world, r, start, t.elapsed().as_secs_f64())
}

/// The worlds of one run, set up one after another. Each recovers the
/// previous one's final journal during its timed phase.
struct Chain {
    epoch: Instant,
    previous: Option<PathBuf>,
}

impl Chain {
    fn new(epoch: Instant) -> Self {
        Chain {
            epoch,
            previous: None,
        }
    }

    /// Sets up, warms up and runs one world in `dir`, with `registry`
    /// attached when traced. Returns the world, its result and its set-up
    /// time in seconds.
    fn pass(
        &mut self,
        profile: Profile,
        seed: u64,
        dir: &Path,
        registry: Option<&MetricsRegistry>,
        workers: usize,
        tracer: &mut Tracer,
    ) -> (World, RunResult, f64) {
        let (mut world, r, start, secs) = set_up(profile, seed, dir, self.epoch, registry, workers);
        let scoped = registry.map(|reg| reg.scoped("shard.0."));
        let keep = dir.with_extension("journal");
        let r = drive::run(
            &mut world,
            start,
            r,
            tracer,
            scoped.as_ref(),
            self.previous.as_deref(),
            &keep,
        );
        if let Some(old) = self.previous.replace(keep) {
            let _ = std::fs::remove_file(old);
        }
        (world, r, secs)
    }
}

impl Drop for Chain {
    fn drop(&mut self) {
        if let Some(last) = self.previous.take() {
            let _ = std::fs::remove_file(last);
        }
    }
}

/// Median of bench-timed single operations on the world's sample key.
fn micro(world: &World) -> Micro {
    const N: usize = 400;
    let (body, sig, key) = &world.sample;
    let content = world
        .front
        .shard(0)
        .read(|s| s.object(OBJECT_O).map(|o| o.content.clone()))
        .unwrap_or_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let time = |f: &mut dyn FnMut()| {
        let v: Vec<f64> = (0..N)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        Summary::of(&v).median
    };
    let verify_us = time(&mut || assert!(std::hint::black_box(key.verify(body, sig))));
    let encrypt_us = time(&mut || {
        std::hint::black_box(key.encrypt(&mut rng, &content).expect("encrypt"));
    });
    Micro {
        verify_us,
        encrypt_us,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--make-primes") {
        let n: usize = argv.get(2).and_then(|v| v.parse().ok()).unwrap_or(24);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9E1A);
        let e = jaap_bigint::Nat::from(jaap_crypto::rsa::PUBLIC_EXPONENT);
        let mut found = 0;
        while found < n {
            let p = jaap_bigint::random_prime(&mut rng, 1024);
            if !(&p - &jaap_bigint::Nat::one()).rem_nat(&e).is_zero() {
                println!("{}", p.to_hex());
                found += 1;
            }
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: --workload <read_hot|read_cold|joint_write_durable> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let profile = Profile::new(args.workload, args.seconds);
    let run_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("run");
    let tag = format!(
        "{}-seed{}-pid{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    );
    let dir = |pass: &str| run_dir.join(format!("{tag}-{pass}"));
    let epoch = Instant::now();

    if !args.trace {
        let mut chain = Chain::new(epoch);
        let mut setups = Vec::with_capacity(profile.worlds);
        let mut result = RunResult::new(profile.workers);
        for i in 0..profile.worlds {
            let (_, r, secs) = chain.pass(
                profile,
                args.seed,
                &dir(&format!("world{i}")),
                None,
                profile.workers,
                &mut Tracer::new(false, epoch),
            );
            setups.push(secs);
            result.merge(r);
        }
        let mut metrics = vec![report::setup_metric(&setups)];
        metrics.extend(report::timed_metrics(&result));
        report::print(&metrics, &result);
        return exit_code(&result);
    }

    // Traced run: a lead pass whose final journal the next pass recovers
    // (on read_cold it runs on 1 worker: the pool speed-up), an untraced
    // pass (the overhead baseline), then the traced pass.
    let mut chain = Chain::new(epoch);
    let cold = args.workload == Workload::ReadCold;
    let (_, lead, _) = chain.pass(
        profile,
        args.seed,
        &dir("lead"),
        None,
        if cold { 1 } else { profile.workers },
        &mut Tracer::new(false, epoch),
    );
    let (_, untraced, _) = chain.pass(
        profile,
        args.seed,
        &dir("untraced"),
        None,
        profile.workers,
        &mut Tracer::new(false, epoch),
    );
    let registry = MetricsRegistry::new();
    let mut tracer = Tracer::new(true, epoch);
    let (world, mut traced, _) = chain.pass(
        profile,
        args.seed,
        &dir("traced"),
        Some(&registry),
        profile.workers,
        &mut tracer,
    );
    let micro = micro(&world);
    drop(world);
    let metrics = report::per_layer(
        &traced,
        &tracer,
        &untraced,
        cold.then_some(&lead),
        micro,
        profile.batch,
    );
    if let Err(e) = std::fs::create_dir_all(&run_dir).and_then(|()| {
        tracer.write_jsonl(&run_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        )))
    }) {
        eprintln!("e2ebench: writing spans: {e}");
    }
    traced.absorb(&untraced);
    traced.absorb(&lead);
    report::print(&metrics, &traced);
    exit_code(&traced)
}

/// Failure when any check failed, so a wrong verdict fails the command and
/// not only the result line.
fn exit_code(r: &RunResult) -> ExitCode {
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
