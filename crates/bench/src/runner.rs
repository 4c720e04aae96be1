//! Per-circuit experiment orchestration shared by the `tables` binary and
//! the Criterion benches.
//!
//! One [`CircuitExperiment`] holds everything the five tables need for one
//! circuit: the proposed pipeline run with an ATPG-style `T_0`
//! (the \[10\]/\[12\] stand-ins: directed generation for ISCAS-89 circuits,
//! property-based for ITC-99), the proposed pipeline run with a random
//! `T_0` of length 1000 (Table 5), the \[4\] baseline (initial and
//! compacted), and the \[2,3\]-style dynamic baseline.

use atspeed_circuit::catalog::{BenchmarkInfo, Suite};
use atspeed_circuit::Netlist;
use atspeed_core::dynamic::{dynamic_schedule, DynamicConfig, DynamicResult};
use atspeed_core::phase4::baseline4;
use atspeed_core::{CoreError, Pipeline, PipelineResult, T0Source};
use atspeed_sim::fault::FaultUniverse;
use atspeed_sim::SimConfig;

/// Effort profile for an experiment sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Full settings used for the committed tables.
    Full,
    /// Reduced settings for smoke runs (shorter sequences, same structure).
    Quick,
}

/// All measured quantities for one circuit.
#[derive(Debug, Clone)]
pub struct CircuitExperiment {
    /// Benchmark descriptor.
    pub info: BenchmarkInfo,
    /// Proposed procedure with the ATPG-style `T_0` (Tables 1–4).
    pub proposed: PipelineResult,
    /// Proposed procedure with the random `T_0` (Tables 3–5). `None` for
    /// s35932, which the paper also leaves out of the random columns.
    pub proposed_rand: Option<PipelineResult>,
    /// Clock cycles of the \[4\] baseline's initial test set.
    pub b4_init_cycles: usize,
    /// Clock cycles of the \[4\] baseline after compaction.
    pub b4_comp_cycles: usize,
    /// At-speed stats of the \[4\]-compacted set.
    pub b4_at_speed: Option<atspeed_core::AtSpeedStats>,
    /// The \[2,3\]-style dynamic baseline.
    pub dynamic: DynamicResult,
}

/// Master seed for the committed tables.
pub const TABLE_SEED: u64 = 2001;

/// The random-`T_0` length used by the paper's Table 5.
pub const RANDOM_T0_LEN: usize = 1000;

fn t0_source_for(info: &BenchmarkInfo, effort: Effort) -> T0Source {
    // Cap each circuit's T0 at the length the paper reports for it: the
    // synthetic stand-ins then face workloads of the same scale, and the
    // large circuits stay tractable.
    let paper_len = crate::paper::paper_row(info.name).map_or(1024, |r| r.len_t0);
    let max_len = match effort {
        Effort::Full => paper_len.clamp(32, 1024),
        Effort::Quick => paper_len.clamp(16, 128),
    };
    match info.suite {
        Suite::Iscas89 => T0Source::Directed { max_len },
        Suite::Itc99 => T0Source::Property { max_len },
    }
}

/// Options for one experiment run beyond the effort profile: threading and
/// whether each pipeline re-checks its own coverage claims through the
/// end-to-end oracle (`tables --verify`).
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Effort profile.
    pub effort: Effort,
    /// Threading configuration for every simulation stage.
    pub sim: SimConfig,
    /// Run [`Pipeline::verify`]: independently re-fault-simulate the final
    /// test sets and fail the run if any phase's coverage claim is inflated.
    pub verify: bool,
}

impl RunOptions {
    /// Options matching the historical `run_circuit_with` behavior.
    pub fn new(effort: Effort, sim: SimConfig) -> Self {
        RunOptions {
            effort,
            sim,
            verify: false,
        }
    }
}

/// Runs every experiment for one circuit with the threading configuration
/// from the environment (`SIM_THREADS`, serial when unset).
pub fn run_circuit(info: &BenchmarkInfo, effort: Effort) -> CircuitExperiment {
    run_circuit_with(info, effort, SimConfig::from_env())
}

/// Runs every experiment for one circuit with an explicit threading
/// configuration (every stage, Phase 2's vector omission included,
/// produces identical results at any thread count).
pub fn run_circuit_with(info: &BenchmarkInfo, effort: Effort, sim: SimConfig) -> CircuitExperiment {
    try_run_circuit_opts(info, &RunOptions::new(effort, sim))
        .expect("pipeline runs on catalog circuits")
}

/// [`run_circuit_with`] with full [`RunOptions`], surfacing pipeline errors
/// — in particular [`CoreError::VerificationFailed`] when the coverage
/// oracle rejects a claim under `verify`.
pub fn try_run_circuit_opts(
    info: &BenchmarkInfo,
    opts: &RunOptions,
) -> Result<CircuitExperiment, CoreError> {
    let _sp = atspeed_trace::span_args("circuit", &[("name", &info.name)]);
    let (effort, sim) = (opts.effort, opts.sim);
    let started = std::time::Instant::now();
    let nl: Netlist = info.instantiate();
    let universe = FaultUniverse::full(&nl);
    let targets = universe.representatives().to_vec();

    let proposed = Pipeline::new(&nl)
        .t0_source(t0_source_for(info, effort))
        .seed(TABLE_SEED)
        .sim_config(sim)
        .verify(opts.verify)
        .run()?;

    // Reuse the same combinational test set C for every flow, as the paper
    // does ("the initial test set compacted in [4] is based on the same
    // combinational test set C used for our experiments").
    let comb = proposed.comb_tests.clone();

    let rand_len = match effort {
        Effort::Full => RANDOM_T0_LEN,
        Effort::Quick => 128,
    };
    // The paper reports no random-T0 results for s35932 (its Tables 3-5
    // show "-"); skip it here too.
    let proposed_rand = if info.name != "s35932" {
        Some(
            Pipeline::new(&nl)
                .t0_source(T0Source::Random { len: rand_len })
                .seed(TABLE_SEED)
                .sim_config(sim)
                .verify(opts.verify)
                .with_comb_tests(comb.clone())
                .run()?,
        )
    } else {
        None
    };

    // Each baseline gets a span named after its phase, so a trace
    // attributes their time instead of leaving it as `circuit` self time.
    atspeed_sim::stats::set_phase("baseline4");
    let b4 = {
        let _sp = atspeed_trace::span("baseline4");
        baseline4(&nl, &universe, &comb, &targets)
    };
    let n_sv = nl.num_ffs();
    atspeed_sim::stats::set_phase("baseline-dynamic");
    let dynamic = {
        let _sp = atspeed_trace::span("baseline-dynamic");
        dynamic_schedule(
            &nl,
            &universe,
            &comb,
            &targets,
            &DynamicConfig {
                seed: TABLE_SEED,
                ..DynamicConfig::default()
            },
        )
    };

    atspeed_trace::info!("bench.runner", "circuit done";
        circuit = info.name,
        wall_ms = started.elapsed().as_millis(),
        verified = opts.verify,
    );
    Ok(CircuitExperiment {
        info: *info,
        proposed,
        proposed_rand,
        b4_init_cycles: b4.initial.clock_cycles(n_sv),
        b4_comp_cycles: b4.compacted.clock_cycles(n_sv),
        b4_at_speed: b4.compacted.at_speed_stats(),
        dynamic,
    })
}

/// Runs experiments for several circuits in parallel: a pool of workers
/// pulls circuits from a shared queue, so long-running circuits never
/// serialize behind a batch barrier. Output order matches `infos`.
pub fn run_circuits(infos: &[BenchmarkInfo], effort: Effort) -> Vec<CircuitExperiment> {
    run_circuits_with(infos, effort, SimConfig::from_env())
}

/// [`run_circuits`] with an explicit threading configuration passed to
/// every per-circuit pipeline.
pub fn run_circuits_with(
    infos: &[BenchmarkInfo],
    effort: Effort,
    sim: SimConfig,
) -> Vec<CircuitExperiment> {
    try_run_circuits_opts(infos, &RunOptions::new(effort, sim))
        .expect("pipelines run on catalog circuits")
}

/// [`run_circuits_with`] with full [`RunOptions`]: the worker pool is
/// unchanged, but per-circuit errors (oracle rejections under `verify`)
/// propagate instead of panicking — the first failing circuit in `infos`
/// order wins.
pub fn try_run_circuits_opts(
    infos: &[BenchmarkInfo],
    opts: &RunOptions,
) -> Result<Vec<CircuitExperiment>, CoreError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(infos.len().max(1));
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<CircuitExperiment, CoreError>>>> =
        Mutex::new((0..infos.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..max_threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= infos.len() {
                    break;
                }
                let exp = try_run_circuit_opts(&infos[i], opts);
                // Recover from poisoning: a panicking sibling worker must
                // not hide this circuit's (already computed) result.
                out.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(exp);
            });
        }
    });
    out.into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        // `scope` re-raises worker panics before we get here, so every
        // slot is filled whenever this line runs.
        .map(|e| e.expect("every circuit ran"))
        .collect()
}

/// Sanity predicate used by tests and the harness: the qualitative claims
/// of the paper that a healthy run reproduces on a circuit.
pub fn shape_holds(e: &CircuitExperiment) -> bool {
    let p = &e.proposed;
    // τ_seq detects at least T0's faults; final detects at least τ_seq's.
    p.t0_detected <= p.tau_seq_detected
        && p.tau_seq_detected <= p.final_detected
        // Compaction never increases application time.
        && p.comp_cycles <= p.init_cycles
        && e.b4_comp_cycles <= e.b4_init_cycles
        // The proposed sets contain far longer at-speed sequences than [4].
        && match (p.at_speed_comp, e.b4_at_speed) {
            (Some(prop), Some(b4)) => prop.max >= b4.max,
            _ => true,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::catalog;

    #[test]
    fn quick_run_on_smallest_circuits_holds_shape() {
        for name in ["b02", "b01"] {
            let info = catalog::by_name(name).unwrap();
            let e = run_circuit(&info, Effort::Quick);
            assert!(shape_holds(&e), "{name} failed shape checks: {e:?}");
            assert_eq!(e.info.name, name);
        }
    }

    #[test]
    fn verified_run_carries_oracle_reports() {
        let info = catalog::by_name("b02").unwrap();
        let opts = RunOptions {
            verify: true,
            ..RunOptions::new(Effort::Quick, SimConfig::default())
        };
        let e = try_run_circuit_opts(&info, &opts).expect("oracle accepts honest claims");
        assert!(e.proposed.oracle.is_some());
        assert!(e.proposed_rand.unwrap().oracle.is_some());
        // Without `verify` the oracle never runs.
        let plain = run_circuit(&info, Effort::Quick);
        assert!(plain.proposed.oracle.is_none());
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let infos: Vec<_> = ["b02", "b06"]
            .iter()
            .map(|n| catalog::by_name(n).unwrap())
            .collect();
        let out = run_circuits(&infos, Effort::Quick);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].info.name, "b02");
        assert_eq!(out[1].info.name, "b06");
    }
}
