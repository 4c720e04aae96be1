//! `catalog`: the paper's own traffic. One caller runs `Pipeline::run` with
//! one simulation thread over 13 small catalog circuits, in rounds. Each
//! round draws its own pipeline seed from `--seed`, so a run averages over
//! as many seeds as it has rounds. After the timed part, the cheap
//! [`REPEATED`] jobs of the first round run once more and must return
//! byte-identical results.

use std::time::Instant;

use atspeed_bench::paper::paper_row;
use atspeed_circuit::catalog::{self, Suite};
use atspeed_circuit::{bench_fmt, Netlist};
use atspeed_core::{MemoryBudget, Pipeline, PipelineConfig, PipelineResult, T0Source};
use atspeed_serve::encode_result;
use atspeed_sim::fault::FaultUniverse;
use atspeed_sim::SimConfig;

use crate::layers::{add, add_phase_walls, JobProbe, Layers, TracedRun};
use crate::report::Checks;
use crate::run::{invariant_check, oracle_check, Measured, SetupClock, SplitMix, Stopwatch};
use crate::trace::Tracer;
use crate::{RunOutput, Workload};

/// The circuits, each under about 3 s per job. s1423, s1488, b04 and b11
/// (12–26 s per job) and s5378 and s35932 (minutes) are left out so that
/// a run holds many jobs.
pub const CIRCUITS: [&str; 13] = [
    "s298", "s344", "s382", "s400", "s526", "s641", "s820", "b01", "b02", "b03", "b06", "b09",
    "b10",
];

/// Set-ups per timed block. One set-up parses and compiles all 13 circuits
/// in about 3 ms, so a block lasts about 0.1 s. One block comes before the
/// first job; an untraced run times one more after every job, outside the
/// timed part, and groups the blocks by round. The host switches between
/// a fast and a slow state every few seconds, and set-up is more exposed
/// to that than the jobs are, so a set-up figure has to be an average over
/// the run, as `wall_s` is, rather than a reading of its first second.
const SETUP_REPS: usize = 30;

/// Per-layer metrics `catalog` never measures: `Pipeline::run` does not
/// return Phase 4's `StaticCompactionStats`, and there is no server.
pub const UNMEASURED: &[&str] = &[
    "core.phase4_attempts",
    "core.phase4_combinations",
    "serve.hit_server_ms.p50",
    "serve.miss_server_ms.p50",
    "serve.transport_ms.p50",
    "serve.hit_ratio",
    "serve.waits",
    "serve.computed",
];

/// Nominal seconds of one round when the benchmark was written, on a
/// 2-vCPU KVM guest; the round count is fixed by `--seconds` alone, so
/// every run of the same settings does the same work.
const ROUND_S: f64 = 9.0;

/// Rounds in a run of `w.seconds`; a traced run needs one of each kind.
fn rounds_for(w: &Workload) -> usize {
    let rounds = (w.seconds / ROUND_S).floor().max(1.0) as usize;
    if w.trace {
        rounds.max(2)
    } else {
        rounds
    }
}

/// One job of a round: a circuit's `.bench` text and its pipeline config.
pub struct Job {
    pub name: &'static str,
    pub bench: String,
    pub cfg: PipelineConfig,
}

/// The 13 jobs of a round. `seed` is the pipeline seed; `T_0` is capped at
/// the paper's `len_t0` clamped to 16..128 (the `tables --quick` caps),
/// directed for ISCAS-89 circuits and property-based for ITC-99 ones.
pub fn jobs(seed: u64) -> Result<Vec<Job>, String> {
    CIRCUITS
        .iter()
        .map(|&name| {
            let info = catalog::by_name(name).map_err(|e| e.to_string())?;
            let cap = paper_row(name).map_or(1024, |r| r.len_t0).clamp(16, 128);
            let t0_source = match info.suite {
                Suite::Iscas89 => T0Source::Directed { max_len: cap },
                Suite::Itc99 => T0Source::Property { max_len: cap },
            };
            Ok(Job {
                name,
                bench: bench_fmt::write(&info.instantiate()),
                cfg: PipelineConfig {
                    t0_source,
                    seed,
                    phase4: true,
                    verify: false,
                    sim: SimConfig::with_threads(1),
                    memory: MemoryBudget::default(),
                },
            })
        })
        .collect()
}

/// Parses and compiles every circuit of the round.
pub fn setup(t: &mut Tracer, jobs: &[Job]) -> Result<Vec<Netlist>, String> {
    jobs.iter()
        .map(|j| {
            let nl = t
                .span("circuit.parse", |_| bench_fmt::parse(j.name, &j.bench))
                .map_err(|e| format!("{}: parse failed: {e}", j.name))?;
            t.span("circuit.compile", |_| {
                nl.compiled();
            });
            Ok(nl)
        })
        .collect()
}

/// Pipeline seed of `round`, drawn from `--seed`, so a run averages over as
/// many seeds as it has rounds. A traced run pairs its rounds instead:
/// round 2k runs untraced and round 2k+1 traced, both with the k-th seed,
/// so the two see the same jobs and the same host conditions.
fn round_seed(w: &Workload, round: usize) -> u64 {
    let k = if w.trace { round / 2 } else { round };
    let mut rng = SplitMix::new(w.seed);
    (0..k).for_each(|_| {
        rng.next_u64();
    });
    rng.next_u64() % 1_000_000
}

/// Circuits whose first-round jobs are run once more after the timed part
/// to check that a repeated job returns a byte-identical result. They are
/// the cheap ones, so the check adds about a second.
const REPEATED: [&str; 6] = ["s298", "s344", "b01", "b02", "b06", "b09"];

/// Runs the workload: rounds of the 13 jobs.
pub fn run(w: &Workload) -> Result<RunOutput, String> {
    let rounds = rounds_for(w);
    let jobs = jobs(w.seed)?;
    let epoch = Instant::now();
    let mut setup_t = Tracer::new(w.trace, epoch);
    let mut t = Tracer::new(w.trace, epoch);
    let mut layers = Layers::new();
    let mut checks = Checks::default();
    let mut m = Measured::default();

    let mut clock = SetupClock::default();
    let nets = clock.block(SETUP_REPS, || setup(&mut setup_t, &jobs))?;

    let mut results: Vec<Vec<Option<PipelineResult>>> = Vec::with_capacity(rounds);
    let mut round_ms = Vec::with_capacity(rounds);
    let mut cpu_wall = (0.0, 0.0);
    let mut watch = Stopwatch::start()?;
    for round in 0..rounds {
        let traced = w.trace && round % 2 == 1;
        let seed = round_seed(w, round);
        let round_started = Instant::now();
        let mut row = Vec::with_capacity(jobs.len());
        for (j, nl) in jobs.iter().zip(&nets) {
            let cfg = PipelineConfig { seed, ..j.cfg };
            let run = || {
                Pipeline::from_config(nl, &cfg)
                    .run()
                    .map_err(|e| e.to_string())
            };
            let started = Instant::now();
            let outcome = if traced {
                t.set_job((round * jobs.len() + row.len()) as u64);
                // `Pipeline::run` builds its fault universe first, outside
                // every phase; this separate build times it.
                t.span("sim.fault_universe", |_| FaultUniverse::full(nl));
                let probe = JobProbe::start()?;
                let r = t.span("job", |_| run());
                let report = probe.finish(&mut layers, &mut cpu_wall)?;
                add_phase_walls(&mut layers, &report);
                if let Ok(r) = &r {
                    add(&mut layers, "atpg.comb_tests", r.num_comb_tests as f64);
                    add(&mut layers, "atpg.t0_len", r.t0_len as f64);
                    add(&mut layers, "core.tau_seq_len", r.tau_seq_len as f64);
                }
                r
            } else {
                run()
            };
            m.job_ms.push(started.elapsed().as_secs_f64() * 1e3);
            checks.check(outcome.is_ok(), || {
                format!("{} round {round}: {:?}", j.name, outcome.as_ref().err())
            });
            row.push(outcome.ok());
            if !w.trace {
                watch.exclude(|| clock.block(SETUP_REPS, || setup(&mut setup_t, &jobs)))??;
            }
        }
        round_ms.push(round_started.elapsed().as_secs_f64() * 1e3);
        results.push(row);
        clock.close_group();
    }
    watch.stop(&mut m)?;
    m.setup_s = clock.median_s();

    check_outputs(&mut checks, &mut m, w, &jobs, &nets, &results);
    if w.trace {
        let pairs = rounds / 2;
        let paired_ms = (0..pairs).fold((0.0, 0.0), |(a, b), k| {
            (a + round_ms[2 * k + 1], b + round_ms[2 * k])
        });
        layers = TracedRun {
            setup: &setup_t,
            setups: clock.setups(),
            jobs: &t,
            pairs,
            counts: layers,
            cpu_wall,
            paired_ms,
        }
        .layers();
    }
    t.absorb(setup_t);
    Ok((m, layers, checks, t))
}

/// Output checks, outside the timed part. Every distinct job keeps the
/// paper's invariants and passes the coverage oracle; a traced round
/// returns exactly what its untraced partner did; and the [`REPEATED`]
/// jobs of the first round, run again, return byte-identical results.
/// Figures of merit are summed over the distinct (untraced) jobs.
fn check_outputs(
    checks: &mut Checks,
    m: &mut Measured,
    w: &Workload,
    jobs: &[Job],
    nets: &[Netlist],
    results: &[Vec<Option<PipelineResult>>],
) {
    for (round, row) in results.iter().enumerate() {
        let partner = (w.trace && round % 2 == 1).then(|| &results[round - 1]);
        for (i, (j, nl)) in jobs.iter().zip(nets).enumerate() {
            let Some(r) = &row[i] else { continue };
            if let Some(partner) = partner {
                let same = partner[i].as_ref().is_some_and(|p| {
                    encode_result(p, nl.num_pis()) == encode_result(r, nl.num_pis())
                });
                checks.check(same, || {
                    format!(
                        "{} round {round}: traced result differs from untraced",
                        j.name
                    )
                });
                continue;
            }
            let label = format!("{} round {round}", j.name);
            invariant_check(
                checks,
                &label,
                r.init_cycles,
                r.comp_cycles,
                r.t0_detected,
                r.tau_seq_detected,
                r.final_detected,
            );
            oracle_check(
                checks,
                &label,
                nl,
                &r.initial_set,
                &r.compacted_set,
                r.final_detected,
            );
            m.quality.add(
                r.comp_cycles,
                r.final_detected,
                r.at_speed_comp.map_or(0.0, |s| s.average),
            );
        }
    }
    let Some(first) = results.first() else { return };
    for (i, (j, nl)) in jobs.iter().zip(nets).enumerate() {
        let Some(base) = first[i].as_ref().filter(|_| REPEATED.contains(&j.name)) else {
            continue;
        };
        let cfg = PipelineConfig {
            seed: round_seed(w, 0),
            ..j.cfg
        };
        let again = Pipeline::from_config(nl, &cfg).run();
        let same = again
            .as_ref()
            .is_ok_and(|r| encode_result(r, nl.num_pis()) == encode_result(base, nl.num_pis()));
        checks.check(same, || {
            format!("{}: repeated job returned a different result", j.name)
        });
    }
}
