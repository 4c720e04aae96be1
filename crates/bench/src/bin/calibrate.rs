//! Stage-by-stage timing of the pipeline on one catalog circuit.
//!
//! Usage:
//!
//! ```text
//! calibrate [CIRCUIT] [--sim-threads N] [--trace FILE] [--metrics-json FILE]
//! [--profile FILE] [--profile-hz N] [--history FILE]
//!           [--log LEVEL]
//! ```
//!
//! Runs each pipeline stage in sequence on `CIRCUIT` (default `s298`) and
//! logs one structured event per stage with its wall time and headline
//! figures. `--sim-threads N` sets the fault-simulation thread count for
//! every stage, Phase 2's vector omission included (default: the
//! `SIM_THREADS` environment variable, serial when unset; results are
//! identical at any thread count). `--trace FILE` additionally records
//! spans as Chrome trace-event JSON (open at <https://ui.perfetto.dev>);
//! `--metrics-json FILE` dumps the metrics registry; `--log LEVEL` filters
//! the run log.

use atspeed_atpg::comb_tset::{self, CombTsetConfig};
use atspeed_atpg::{directed_t0, DirectedConfig};
use atspeed_bench::telemetry::TelemetryArgs;
use atspeed_circuit::catalog;
use atspeed_core::iterate::{build_tau_seq, IterateConfig};
use atspeed_core::phase3::top_up_with;
use atspeed_sim::fault::FaultUniverse;
use atspeed_sim::SimConfig;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut name = "s298".to_owned();
    let mut sim = SimConfig::from_env();
    let mut telemetry = TelemetryArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match telemetry.consume(a.as_str(), &mut it) {
            Ok(true) => {}
            Ok(false) if a == "--sim-threads" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--sim-threads needs a count");
                    return ExitCode::FAILURE;
                };
                sim = SimConfig::with_threads(n);
            }
            Ok(false) if a == "--help" || a == "-h" => {
                eprintln!(
                    "usage: calibrate [CIRCUIT] [--sim-threads N] [--trace FILE] \
                     [--metrics-json FILE] [--profile FILE] [--profile-hz N] \
                     [--history FILE] [--log LEVEL]"
                );
                return ExitCode::FAILURE;
            }
            Ok(false) => name = a,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    telemetry.init();
    atspeed_sim::stats::reset();

    let nl = match catalog::by_name(&name) {
        Ok(info) => info.instantiate(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut t = Instant::now();
    atspeed_sim::stats::set_phase("universe");
    let u = FaultUniverse::full(&nl);
    let targets = u.representatives().to_vec();
    atspeed_trace::info!("bench.calibrate", "universe built";
        circuit = name,
        wall_us = t.elapsed().as_micros(),
        collapsed = u.num_collapsed(),
    );

    t = Instant::now();
    atspeed_sim::stats::set_phase("comb-gen");
    let comb_cfg = CombTsetConfig {
        sim,
        ..CombTsetConfig::default()
    };
    let c = match comb_tset::generate(&nl, &u, &comb_cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("combinational test generation failed for {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    atspeed_trace::info!("bench.calibrate", "comb tset generated";
        wall_us = t.elapsed().as_micros(),
        tests = c.tests.len(),
        untestable = c.untestable.len(),
        aborted = c.aborted.len(),
    );

    t = Instant::now();
    atspeed_sim::stats::set_phase("t0-gen");
    let t0 = directed_t0(
        &nl,
        &u,
        &targets,
        &DirectedConfig {
            sim,
            ..DirectedConfig::default()
        },
    );
    atspeed_trace::info!("bench.calibrate", "directed t0 generated";
        wall_us = t.elapsed().as_micros(),
        len = t0.len(),
    );

    t = Instant::now();
    atspeed_sim::stats::set_phase("phase1-2");
    let mut iterate_cfg = IterateConfig::default();
    iterate_cfg.phase1.sim = sim;
    iterate_cfg.omission.sim = sim;
    let tau = match build_tau_seq(&nl, &u, &t0, &c.tests, &targets, iterate_cfg) {
        Ok(tau) => tau,
        Err(e) => {
            eprintln!("tau_seq construction failed for {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    atspeed_trace::info!("bench.calibrate", "tau_seq built";
        wall_us = t.elapsed().as_micros(),
        len = tau.test.len(),
        detected = tau.detected.len(),
        iterations = tau.iterations,
    );

    t = Instant::now();
    atspeed_sim::stats::set_phase("phase3");
    let undet: Vec<_> = targets
        .iter()
        .filter(|f| !tau.detected.contains(f))
        .copied()
        .collect();
    let p3 = top_up_with(&nl, &u, &c.tests, &undet, sim);
    atspeed_trace::info!("bench.calibrate", "phase3 top-up done";
        wall_us = t.elapsed().as_micros(),
        added = p3.added.len(),
    );

    let report = atspeed_sim::stats::report();
    println!("{report}");
    if let Err(e) = telemetry.write_outputs(&report, Some(sim.effective_threads(usize::MAX))) {
        atspeed_trace::error!("bench.calibrate", "failed to write telemetry output";
            error = e);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
