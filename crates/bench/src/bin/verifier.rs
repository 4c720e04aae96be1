//! Command-line front end for the differential verification subsystem.
//!
//! Usage:
//!
//! ```text
//! verifier [--seed N] [--iters N] [--threads a,b] [--out-dir DIR]
//!          [--shrink-steps N] [--replay DIR]
//!          [--trace FILE] [--metrics-json FILE] [--profile FILE]
//!          [--profile-hz N] [--history FILE] [--log LEVEL]
//! ```
//!
//! Default mode fuzzes `--iters` deterministic cases (derived from
//! `--seed`) through every differential check in
//! [`atspeed_verify::fuzz`]: legacy vs compiled logic values, serial vs
//! fault-sharded detection (the combinational matrix and sequential), and
//! vector omission at one thread vs several, each at every thread count in
//! `--threads` (default `2,3`, each at most 256). A diverging case is
//! minimized and dumped as a reproduction bundle under `--out-dir`
//! (default `target/verify-repros`); the exit code is nonzero if any case
//! diverged.
//!
//! `--replay DIR` instead loads a previously dumped bundle and re-runs the
//! serial-vs-parallel differentials on it — the tight loop for debugging a
//! divergence after the engines changed.
//!
//! `--malformed N` instead runs the malformed-input fuzz loop: `N`
//! deterministically mutated `.bench` and vector payloads through the
//! parsing surfaces a served request reaches, asserting structured
//! rejection and no panics.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use atspeed_bench::telemetry::TelemetryArgs;
use atspeed_sim::SimConfig;
use atspeed_verify::{load_repro, replay, run_fuzz, run_malformed_fuzz, FuzzConfig};

struct Args {
    fuzz: FuzzConfig,
    replay: Option<PathBuf>,
    malformed: Option<usize>,
    telemetry: TelemetryArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        fuzz: FuzzConfig {
            out_dir: Some(PathBuf::from("target/verify-repros")),
            ..FuzzConfig::default()
        },
        replay: None,
        malformed: None,
        telemetry: TelemetryArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.telemetry.consume(a.as_str(), &mut it)? {
            continue;
        }
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                args.fuzz.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--iters" => {
                let v = it.next().ok_or("--iters needs a count")?;
                args.fuzz.iters = v
                    .parse()
                    .map_err(|_| format!("bad iteration count `{v}`"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a comma-separated list")?;
                args.fuzz.threads = v
                    .split(',')
                    .map(|t| SimConfig::parse_threads("--threads", t))
                    .collect::<Result<_, _>>()?;
                if args.fuzz.threads.is_empty() {
                    return Err("--threads needs at least one count".to_owned());
                }
            }
            "--out-dir" => {
                args.fuzz.out_dir = Some(PathBuf::from(it.next().ok_or("--out-dir needs a path")?));
            }
            "--shrink-steps" => {
                let v = it.next().ok_or("--shrink-steps needs a count")?;
                args.fuzz.shrink_steps = v.parse().map_err(|_| format!("bad step count `{v}`"))?;
            }
            "--replay" => {
                args.replay = Some(PathBuf::from(it.next().ok_or("--replay needs a path")?));
            }
            "--malformed" => {
                let v = it.next().ok_or("--malformed needs an iteration count")?;
                args.malformed = Some(
                    v.parse()
                        .map_err(|_| format!("bad iteration count `{v}`"))?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: verifier [--seed N] [--iters N] [--threads a,b] [--out-dir DIR] \
                     [--shrink-steps N] [--replay DIR] [--malformed N] [--trace FILE] \
                     [--metrics-json FILE] [--profile FILE] [--profile-hz N] [--history FILE] \
                     [--log LEVEL]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn replay_bundle(dir: &std::path::Path, threads: &[usize]) -> ExitCode {
    let bundle = match load_repro(dir) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("failed to load repro bundle {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {}: {} PIs, {} FFs, {} gates, {} vectors",
        dir.display(),
        bundle.netlist.num_pis(),
        bundle.netlist.num_ffs(),
        bundle.netlist.num_gates(),
        bundle.seq.len(),
    );
    match replay(&bundle, threads) {
        Ok(rep) => {
            println!(
                "engines agree: {} faults simulated, {} detected, omission differential {}",
                rep.faults,
                rep.detected,
                if rep.omission_checked {
                    "ran"
                } else {
                    "skipped"
                },
            );
            ExitCode::SUCCESS
        }
        Err(div) => {
            eprintln!("{div}");
            ExitCode::FAILURE
        }
    }
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
    atspeed_sim::stats::reset();
    atspeed_sim::stats::set_phase("verify");

    if let Some(dir) = &args.replay {
        return replay_bundle(dir, &args.fuzz.threads);
    }

    if let Some(iters) = args.malformed {
        let start = Instant::now();
        let out = run_malformed_fuzz(args.fuzz.seed, iters);
        println!(
            "{} malformed inputs: {} rejected, {} accepted, 0 panics ({} ms)",
            out.cases_run,
            out.rejected,
            out.accepted,
            start.elapsed().as_millis(),
        );
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    atspeed_trace::info!("bench.verifier", "fuzzing engines";
        seed = args.fuzz.seed,
        iters = args.fuzz.iters,
        threads = format!("{:?}", args.fuzz.threads),
    );
    let outcome = run_fuzz(&args.fuzz);
    println!(
        "{} cases, {} differential checks, {} divergences ({} ms)",
        outcome.cases_run,
        outcome.checks_run,
        outcome.failures.len(),
        start.elapsed().as_millis(),
    );
    for f in &outcome.failures {
        println!("  {}", f.divergence);
        println!(
            "    original: {:?} seq_len={} fault_cap={}",
            f.case.spec, f.case.seq_len, f.case.fault_cap
        );
        println!(
            "    minimized: {:?} seq_len={} fault_cap={}",
            f.minimized.spec, f.minimized.seq_len, f.minimized.fault_cap
        );
        match &f.repro_dir {
            Some(dir) => println!("    repro: {}", dir.display()),
            None => println!("    repro: not written"),
        }
    }
    let report = atspeed_sim::stats::report();
    // Every thread count the fuzzer runs at is in the argv (`--threads`).
    if let Err(e) = args.telemetry.write_outputs(&report, None) {
        eprintln!("failed to write telemetry output: {e}");
        return ExitCode::FAILURE;
    }
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
