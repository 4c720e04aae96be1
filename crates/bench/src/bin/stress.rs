//! Large-circuit stress driver: Phases 1–4 end to end on a fixed-seed
//! 100k+-gate synthetic circuit, with peak RSS and wall time emitted for
//! the CI stress gate.
//!
//! Usage:
//!
//! ```text
//! stress [--gates N] [--ffs N] [--faults N] [--t0-len N] [--seed N]
//!        [--attempts N] [--mem-words N] [--max-rss-mb N] [--sim-threads N]
//!        [--trace FILE] [--metrics-json FILE] [--profile FILE]
//!        [--profile-hz N] [--history FILE] [--log LEVEL]
//! ```
//!
//! The circuit comes from the layered [`SynthSpec`] generator (fixed seed,
//! so every run stresses the identical structure), is serialized through
//! the `.bench` writer and re-ingested by the parser — exercising the
//! large-netlist parse path — and then driven through the paper's phases
//! directly: a random `T_0`, Phases 1–2 via `build_tau_seq` on a
//! stride-sampled fault list, Phase 3 top-up from a synthetic
//! combinational test set, and Phase 4 static compaction. Full-circuit
//! combinational ATPG is deliberately skipped: the gate is about the
//! engines' scaling, not PODEM's.
//!
//! Memory stays bounded via the engines' budget knobs
//! (`--mem-words` caps per-fault omission-profile words; the Phase 4
//! failed-pair memo is capped at its default) and the run reports
//! `derived.peak_rss_bytes` (from `/proc/self/status` VmHWM) and the
//! `stress/wall_us` gauge in `--metrics-json` output.
//! `--max-rss-mb` additionally makes the binary itself exit nonzero when
//! the peak exceeds the budget.

use std::process::ExitCode;
use std::time::Instant;

use atspeed_atpg::compact::OmissionConfig;
use atspeed_atpg::{random_t0, MAX_T0_LEN};
use atspeed_bench::telemetry::TelemetryArgs;
use atspeed_circuit::bench_fmt;
use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_core::iterate::{build_tau_seq, IterateConfig};
use atspeed_core::phase1::Phase1Config;
use atspeed_core::phase3::top_up_with;
use atspeed_core::phase4::{combine_tests_cfg, CombineConfig};
use atspeed_core::test::{ScanTest, TestSet};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{stats, CombTest, SimConfig, V3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The largest `--gates` and `--ffs` accepted: far above the defaults,
/// and small enough that the tables sized from them up front cannot abort
/// the process on a failed allocation (`--t0-len` takes the served-job
/// bound, [`MAX_T0_LEN`], for the same reason).
const MAX_GATES: usize = 1_000_000;
const MAX_FFS: usize = 65_536;

struct Args {
    gates: usize,
    ffs: usize,
    faults: usize,
    t0_len: usize,
    seed: u64,
    attempts: usize,
    mem_words: usize,
    max_rss_mb: Option<u64>,
    sim_threads: Option<usize>,
    telemetry: TelemetryArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        gates: 100_000,
        ffs: 512,
        faults: 600,
        t0_len: 96,
        seed: 2001,
        attempts: 24,
        mem_words: 4,
        max_rss_mb: None,
        sim_threads: None,
        telemetry: TelemetryArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.telemetry.consume(a.as_str(), &mut it)? {
            continue;
        }
        let num = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Result<usize, String> {
            let v = it.next().ok_or(format!("{flag} needs a number"))?;
            v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
        };
        let size = |flag: &str, max: usize, it: &mut dyn Iterator<Item = String>| {
            let n = num(flag, it)?;
            if n > max {
                return Err(format!("{flag} {n} is above the limit of {max}"));
            }
            Ok(n)
        };
        match a.as_str() {
            "--gates" => args.gates = size("--gates", MAX_GATES, &mut it)?,
            "--ffs" => args.ffs = size("--ffs", MAX_FFS, &mut it)?,
            "--faults" => args.faults = num("--faults", &mut it)?,
            "--t0-len" => args.t0_len = size("--t0-len", MAX_T0_LEN, &mut it)?,
            "--seed" => args.seed = num("--seed", &mut it)? as u64,
            "--attempts" => args.attempts = num("--attempts", &mut it)?,
            "--mem-words" => args.mem_words = num("--mem-words", &mut it)?,
            "--max-rss-mb" => args.max_rss_mb = Some(num("--max-rss-mb", &mut it)? as u64),
            "--sim-threads" => {
                let v = it.next().ok_or("--sim-threads needs a number")?;
                args.sim_threads = Some(SimConfig::parse_threads("--sim-threads", &v)?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: stress [--gates N] [--ffs N] [--faults N] [--t0-len N] [--seed N] \
                     [--profile FILE] [--profile-hz N] [--history FILE] \
                     [--attempts N] [--mem-words N] [--max-rss-mb N] [--sim-threads N] \
                     [--trace FILE] [--metrics-json FILE] [--log LEVEL]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A synthetic combinational test set: random scan-in states and input
/// vectors. The stress run needs scan-in *candidates* with plausible
/// structure, not high-coverage ATPG vectors.
fn synthetic_comb_tests(n: usize, num_ffs: usize, num_pis: usize, seed: u64) -> Vec<CombTest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let state: Vec<V3> = (0..num_ffs).map(|_| V3::from_bool(rng.gen())).collect();
            let inputs: Vec<V3> = (0..num_pis).map(|_| V3::from_bool(rng.gen())).collect();
            CombTest::new(state, inputs)
        })
        .collect()
}

/// Stride-samples `n` faults from the collapsed representative set, so the
/// sample spans the whole circuit instead of clustering in one region.
fn sample_faults(universe: &FaultUniverse, n: usize) -> Vec<FaultId> {
    let reps = universe.representatives();
    if reps.len() <= n {
        return reps.to_vec();
    }
    let stride = reps.len() / n;
    reps.iter()
        .step_by(stride.max(1))
        .take(n)
        .copied()
        .collect()
}

fn run(args: &Args, sim: SimConfig) -> Result<(), String> {
    let start = Instant::now();
    let registry = atspeed_trace::metrics::global();

    // Circuit synthesis + .bench round trip: the parser must ingest the
    // 100k-gate netlist without superlinear behavior.
    stats::set_phase("synth");
    let sp = atspeed_trace::span("stress.synth");
    let spec = SynthSpec::new("stress", 64, 32, args.ffs, args.gates, args.seed)
        .with_layers(64)
        .with_fanout_hubs(32);
    let synthesized = generate(&spec).map_err(|e| format!("synthesis failed: {e}"))?;
    let text = bench_fmt::write(&synthesized);
    drop(sp);

    stats::set_phase("parse");
    let sp = atspeed_trace::span("stress.parse");
    let parse_started = Instant::now();
    let nl = bench_fmt::parse("stress", &text).map_err(|e| format!("parse failed: {e}"))?;
    registry
        .gauge("stress/parse_us")
        .set(parse_started.elapsed().as_micros() as i64);
    drop(sp);
    atspeed_trace::info!("bench.stress", "circuit ready";
        gates = nl.num_gates(),
        nets = nl.num_nets(),
        ffs = nl.num_ffs(),
        levels = nl.max_level(),
        bench_bytes = text.len(),
    );
    drop(text);
    if nl.num_gates() < args.gates {
        return Err(format!(
            "generator delivered {} gates, below the requested {}",
            nl.num_gates(),
            args.gates
        ));
    }

    let universe = FaultUniverse::full(&nl);
    let targets = sample_faults(&universe, args.faults);
    // 12 candidates keeps the Phase 4 pair count (quadratic in the test
    // count) inside the CI wall-time budget while still exercising the
    // failed-pair memo.
    let comb_tests = synthetic_comb_tests(12, nl.num_ffs(), nl.num_pis(), args.seed ^ 0xC0DE);
    let t0 = random_t0(&nl, args.t0_len, args.seed.wrapping_add(17));

    // Phases 1–2: scan-test selection and bounded vector omission.
    stats::set_phase("phase1-2");
    let sp = atspeed_trace::span("stress.phase1-2");
    let iterate_cfg = IterateConfig {
        phase1: Phase1Config {
            max_candidates: Some(8),
            score_sample: Some(64),
            scan_out_rule: Default::default(),
            sim,
        },
        omission: OmissionConfig {
            max_passes: 1,
            chunked: true,
            attempt_budget: args.attempts,
            sim,
            profile_state_words: args.mem_words,
        },
        max_iterations: Some(2),
    };
    let tau = build_tau_seq(&nl, &universe, &t0, &comb_tests, &targets, iterate_cfg)
        .map_err(|e| format!("phases 1-2 failed: {e}"))?;
    drop(sp);
    atspeed_trace::info!("bench.stress", "phases 1-2 done";
        tau_len = tau.test.len(),
        detected = tau.detected.len(),
        iterations = tau.iterations,
    );

    // Phase 3: top up the sampled faults τ_seq missed.
    stats::set_phase("phase3");
    let sp = atspeed_trace::span("stress.phase3");
    let undetected: Vec<FaultId> = targets
        .iter()
        .filter(|f| !tau.detected.contains(f))
        .copied()
        .collect();
    let p3 = top_up_with(&nl, &universe, &comb_tests, &undetected, sim);
    drop(sp);

    // Phase 4: static compaction with the bounded failed-pair memo.
    stats::set_phase("phase4");
    let sp = atspeed_trace::span("stress.phase4");
    let mut tests: Vec<ScanTest> = Vec::with_capacity(1 + p3.added.len());
    tests.push(tau.test.clone());
    tests.extend(p3.added.iter().cloned());
    let initial = TestSet::from_tests(tests);
    let detected_by_set: Vec<FaultId> = targets
        .iter()
        .filter(|f| !p3.still_undetected.contains(f))
        .copied()
        .collect();
    let (compacted, p4_stats) = combine_tests_cfg(
        &nl,
        &universe,
        &initial,
        &detected_by_set,
        CombineConfig {
            transfer: None,
            sim,
            ..CombineConfig::default()
        },
    );
    drop(sp);
    stats::set_phase("post-stress");

    let wall = start.elapsed();
    registry
        .gauge("stress/wall_us")
        .set(wall.as_micros() as i64);
    registry
        .gauge("stress/sampled_faults")
        .set(targets.len() as i64);
    let peak_rss = atspeed_trace::rss::record_peak_rss(registry);

    println!(
        "stress: {} gates / {} ffs / {} levels, {} sampled faults",
        nl.num_gates(),
        nl.num_ffs(),
        nl.max_level(),
        targets.len()
    );
    println!(
        "  tau_seq: {} vectors detecting {} ({} iterations)",
        tau.test.len(),
        tau.detected.len(),
        tau.iterations
    );
    println!(
        "  phase3: +{} tests, {} of {} sampled faults undetected by C",
        p3.added.len(),
        p3.still_undetected.len(),
        targets.len()
    );
    println!(
        "  phase4: {} -> {} tests ({} combinations, {} memo entries)",
        initial.len(),
        compacted.len(),
        p4_stats.combinations,
        p4_stats.failed_pairs
    );
    println!(
        "  wall: {:.1}s, peak RSS: {}",
        wall.as_secs_f64(),
        match peak_rss {
            Some(b) => format!("{:.0} MiB", b as f64 / (1 << 20) as f64),
            None => "unavailable".to_owned(),
        }
    );

    if let (Some(budget_mb), Some(rss)) = (args.max_rss_mb, peak_rss) {
        if rss > budget_mb * (1 << 20) {
            return Err(format!(
                "peak RSS {:.0} MiB exceeds the {budget_mb} MiB budget",
                rss as f64 / (1 << 20) as f64
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    args.telemetry.init();
    stats::reset();
    let sim = match args.sim_threads {
        Some(n) => SimConfig::with_threads(n),
        None => SimConfig::from_env(),
    };
    let outcome = run(&args, sim);
    let report = stats::report();
    println!("{report}");
    let threads = sim.effective_threads(usize::MAX);
    if let Err(e) = args.telemetry.write_outputs(&report, Some(threads)) {
        eprintln!("failed to write telemetry output: {e}");
        return ExitCode::FAILURE;
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("stress run failed: {msg}");
            atspeed_trace::error!("bench.stress", "stress run failed"; error = msg);
            ExitCode::FAILURE
        }
    }
}
