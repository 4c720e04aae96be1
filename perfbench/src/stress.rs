//! `stress`: the `stress` binary's path on its layered 108k-gate circuit,
//! driven by one caller with two simulation threads. Ingest
//! (parse, compile, fault universe) is the set-up; each job runs Phases
//! 1–4 on its own draw of a random `T_0`, a synthetic `C` and a
//! stride-sampled fault list, without PODEM. The last job repeats the
//! first job's draw and must return the same result.

use std::time::Instant;

use atspeed_atpg::compact::OmissionConfig;
use atspeed_atpg::random_t0;
use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::{bench_fmt, Netlist};
use atspeed_core::iterate::{build_tau_seq, IterateConfig, TauSeqResult};
use atspeed_core::phase1::Phase1Config;
use atspeed_core::phase3::top_up_with;
use atspeed_core::phase4::{combine_tests_cfg, CombineConfig, StaticCompactionStats};
use atspeed_core::{verify_test_set, ClaimedCoverage, MemoryBudget, ScanTest, TestSet};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{stats, CombTest, Sequence, SimConfig, V3};

use crate::layers::{add, JobProbe, Layers, TracedRun};
use crate::report::Checks;
use crate::run::{invariant_check, Measured, SetupClock, SplitMix, Stopwatch};
use crate::trace::Tracer;
use crate::{RunOutput, Workload};

/// The circuit: the `stress` binary's default shape and synthesis seed. It
/// is fixed, like the `catalog` circuits: synthesis seeds give circuits of
/// the same size (about 108k gates) whose simulation activity differs by
/// up to ±20%, which would swamp the run-to-run comparison.
const CIRCUIT_SEED: u64 = 2001;
const GATES: usize = 100_000;
const FFS: usize = 512;
const PIS: usize = 64;
const POS: usize = 32;
/// Sampled target faults, `T_0` length, omission attempt budget and
/// synthetic `C` size of one job.
const FAULTS: usize = 128;
const T0_LEN: usize = 12;
const ATTEMPTS: usize = 2;
const COMB_TESTS: usize = 1;
/// Simulation threads of every job.
const THREADS: usize = 2;
/// Set-ups, each timed as a group of its own: one takes about 0.5 s.
const SETUPS: usize = 7;

/// Per-layer metrics `stress` never measures: it supplies `C` and `T_0`
/// itself, and there is no server.
pub const UNMEASURED: &[&str] = &[
    "atpg.comb_gen_ms",
    "atpg.comb_tests",
    "atpg.t0_gen_ms",
    "atpg.t0_len",
    "serve.hit_server_ms.p50",
    "serve.miss_server_ms.p50",
    "serve.transport_ms.p50",
    "serve.hit_ratio",
    "serve.waits",
    "serve.computed",
];
/// Nominal seconds of one job when the benchmark was written, on a 2-vCPU
/// KVM guest; the job count is fixed by `--seconds` alone, so every run of
/// the same settings does the same work.
const JOB_S: f64 = 2.8;

/// One job's own inputs: a random `T_0`, a synthetic `C` and a random
/// start for its stride sample of faults, so the jobs of a run sample
/// different parts of the circuit.
struct JobInput {
    t0: Sequence,
    comb: Vec<CombTest>,
    offset: u64,
}

/// The inputs: the circuit's `.bench` text and `jobs` job inputs drawn from
/// `seed`. `jobs` independent draws average out how much work a single
/// draw happens to need.
fn inputs(seed: u64, jobs: usize) -> Result<(String, Vec<JobInput>), String> {
    let spec = SynthSpec::new("stress", PIS, POS, FFS, GATES, CIRCUIT_SEED)
        .with_layers(64)
        .with_fanout_hubs(32);
    let nl = generate(&spec).map_err(|e| format!("synthesis failed: {e}"))?;
    let mut rng = SplitMix::new(seed ^ 0xC0DE);
    let mut offsets = SplitMix::new(seed ^ 0x0FF5E7);
    let mut bits = |n: usize| -> Vec<V3> {
        (0..n)
            .map(|_| V3::from_bool(rng.next_u64() & 1 == 1))
            .collect()
    };
    let jobs = (0..jobs)
        .map(|k| JobInput {
            t0: random_t0(&nl, T0_LEN, seed.wrapping_add(17 + k as u64)),
            comb: (0..COMB_TESTS)
                .map(|_| {
                    let state = bits(nl.num_ffs());
                    CombTest::new(state, bits(nl.num_pis()))
                })
                .collect(),
            offset: offsets.next_u64(),
        })
        .collect();
    Ok((bench_fmt::write(&nl), jobs))
}

/// Stride-samples `n` faults from the collapsed representatives, starting
/// at `offset` modulo the stride, so the sample spans the whole circuit.
fn sample_faults(universe: &FaultUniverse, n: usize, offset: u64) -> Vec<FaultId> {
    let reps = universe.representatives();
    let stride = (reps.len() / n.max(1)).max(1);
    reps.iter()
        .skip((offset % stride as u64) as usize)
        .step_by(stride)
        .take(n)
        .copied()
        .collect()
}

/// Ingest: parse, first compile, fault universe.
fn setup(t: &mut Tracer, bench: &str) -> Result<(Netlist, FaultUniverse), String> {
    let nl = t
        .span("circuit.parse", |_| bench_fmt::parse("stress", bench))
        .map_err(|e| format!("parse failed: {e}"))?;
    t.span("circuit.compile", |_| {
        nl.compiled();
    });
    let universe = t.span("sim.fault_universe", |_| FaultUniverse::full(&nl));
    Ok((nl, universe))
}

fn configs() -> (IterateConfig, CombineConfig) {
    let sim = SimConfig::with_threads(THREADS);
    let iterate = IterateConfig {
        phase1: Phase1Config {
            max_candidates: Some(COMB_TESTS),
            score_sample: Some(64),
            scan_out_rule: Default::default(),
            sim,
        },
        omission: OmissionConfig {
            max_passes: 1,
            chunked: true,
            attempt_budget: ATTEMPTS,
            sim,
            profile_state_words: MemoryBudget::default().profile_state_words,
        },
        max_iterations: Some(1),
    };
    let combine = CombineConfig {
        transfer: None,
        sim,
        ..CombineConfig::default()
    };
    (iterate, combine)
}

/// Jobs in a run of `w.seconds`; a traced run needs one of each kind.
fn jobs_for(w: &Workload) -> usize {
    let jobs = (w.seconds / JOB_S).floor().max(1.0) as usize;
    if w.trace {
        jobs.max(2)
    } else {
        jobs
    }
}

/// The earlier job whose input job `j` repeats, if any. In an untraced run
/// the last job repeats job 0, so a run checks that a repeated job returns
/// exactly the same result; in a traced run job 2k+1 (traced) repeats job
/// 2k (untraced).
fn partner(w: &Workload, jobs: usize, j: usize) -> Option<usize> {
    if w.trace {
        (j % 2 == 1).then(|| j - 1)
    } else {
        (j > 0 && j + 1 == jobs).then_some(0)
    }
}

/// What Phases 1–4 produced for one job.
struct PhaseOutput {
    /// `τ_seq` and its detections.
    tau: TauSeqResult,
    /// The set after Phase 3.
    initial: TestSet,
    /// The set after Phase 4.
    compacted: TestSet,
    /// Targets the initial set detects (the Phase 4 coverage claim).
    detected_by_set: Vec<FaultId>,
    /// Phase 4's pair work.
    p4: StaticCompactionStats,
}

/// Phases 1–4 on one job's inputs, as the `stress` binary calls them, each
/// call in its own span. Every test of `C` that Phase 3 did not add joins
/// the set Phase 4 compacts, so Phase 4 always sees `1 + |C|` tests.
fn phases_1_to_4(
    t: &mut Tracer,
    nl: &Netlist,
    universe: &FaultUniverse,
    input: &JobInput,
    targets: &[FaultId],
    (iterate, combine): (IterateConfig, CombineConfig),
) -> Result<PhaseOutput, String> {
    stats::set_phase("phase1-2");
    let tau = t
        .span("core.phase12", |_| {
            build_tau_seq(nl, universe, &input.t0, &input.comb, targets, iterate)
        })
        .map_err(|e| format!("phases 1-2 failed: {e}"))?;

    stats::set_phase("phase3");
    let undetected: Vec<FaultId> = targets
        .iter()
        .filter(|f| !tau.detected.contains(f))
        .copied()
        .collect();
    let p3 = t.span("core.phase3", |_| {
        top_up_with(nl, universe, &input.comb, &undetected, combine.sim)
    });
    let mut tests = Vec::with_capacity(1 + input.comb.len());
    tests.push(tau.test.clone());
    tests.extend(p3.added.iter().cloned());
    tests.extend(
        input
            .comb
            .iter()
            .enumerate()
            .filter(|(i, _)| !p3.added_indices.contains(i))
            .map(|(_, c)| ScanTest::from_comb(c)),
    );
    let initial = TestSet::from_tests(tests);

    stats::set_phase("phase4");
    let detected_by_set: Vec<FaultId> = targets
        .iter()
        .filter(|f| !p3.still_undetected.contains(f))
        .copied()
        .collect();
    let (compacted, p4) = t.span("core.phase4", |_| {
        combine_tests_cfg(nl, universe, &initial, &detected_by_set, combine)
    });
    stats::set_phase("post-pipeline");
    Ok(PhaseOutput {
        tau,
        initial,
        compacted,
        detected_by_set,
        p4,
    })
}

/// Runs the workload: job `j` runs input `j` unless it repeats a partner.
pub fn run(w: &Workload) -> Result<RunOutput, String> {
    let started = Instant::now();
    let jobs = jobs_for(w);
    let mut input_of = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let fresh = input_of.iter().max().map_or(0, |k| k + 1);
        input_of.push(partner(w, jobs, j).map_or(fresh, |p| input_of[p]));
    }
    let (bench, job_inputs) = inputs(w.seed, input_of.iter().max().map_or(1, |k| k + 1))?;
    let generated = started.elapsed().as_secs_f64();
    let epoch = Instant::now();
    let mut setup_t = Tracer::new(w.trace, epoch);
    let mut t = Tracer::new(w.trace, epoch);
    let mut layers = Layers::new();
    let mut checks = Checks::default();
    let mut m = Measured::default();

    let mut clock = SetupClock::default();
    let (nl, universe) = clock.groups(SETUPS, 1, || setup(&mut setup_t, &bench))?;
    m.setup_s = clock.median_s();
    eprintln!(
        "stress: {} gates, {} nets, {} levels, {} collapsed faults",
        nl.num_gates(),
        nl.num_nets(),
        nl.max_level(),
        universe.num_collapsed()
    );
    let targets: Vec<Vec<FaultId>> = job_inputs
        .iter()
        .map(|j| sample_faults(&universe, FAULTS, j.offset))
        .collect();
    let cfg = configs();

    let mut outputs: Vec<Option<PhaseOutput>> = Vec::with_capacity(jobs);
    let mut cpu_wall = (0.0, 0.0);
    let mut untraced = Tracer::new(false, Instant::now());
    let watch = Stopwatch::start()?;
    for (j, &k) in input_of.iter().enumerate() {
        let (input, targets) = (&job_inputs[k], &targets[k]);
        let started = Instant::now();
        let outcome = if w.trace && j % 2 == 1 {
            t.set_job(j as u64);
            let probe = JobProbe::start()?;
            let r = t.span("job", |t| {
                phases_1_to_4(t, &nl, &universe, input, targets, cfg)
            });
            probe.finish(&mut layers, &mut cpu_wall)?;
            if let Ok(out) = &r {
                add(&mut layers, "core.tau_seq_len", out.tau.test.len() as f64);
                add(&mut layers, "core.phase4_attempts", out.p4.attempts as f64);
                add(
                    &mut layers,
                    "core.phase4_combinations",
                    out.p4.combinations as f64,
                );
            }
            r
        } else {
            phases_1_to_4(&mut untraced, &nl, &universe, input, targets, cfg)
        };
        m.job_ms.push(started.elapsed().as_secs_f64() * 1e3);
        checks.check(outcome.is_ok(), || {
            format!("stress job {j}: {:?}", outcome.as_ref().err())
        });
        outputs.push(outcome.ok());
    }
    watch.stop(&mut m)?;
    let checks_started = Instant::now();

    for (j, out) in outputs.iter().enumerate() {
        if let Some(p) = partner(w, jobs, j) {
            checks.check(same_output(out.as_ref(), outputs[p].as_ref()), || {
                format!("stress job {j}: result differs from job {p}, which ran the same input")
            });
        } else if let Some(out) = out {
            check_output(&mut checks, &mut m, &nl, &universe, out, j);
        }
    }

    eprintln!(
        "stress: inputs {generated:.1} s, timed {:.1} s, checks {:.1} s, total {:.1} s",
        m.wall_s,
        checks_started.elapsed().as_secs_f64(),
        started.elapsed().as_secs_f64()
    );
    if w.trace {
        let pairs = jobs / 2;
        let paired_ms = (0..pairs).fold((0.0, 0.0), |(a, b), k| {
            (a + m.job_ms[2 * k + 1], b + m.job_ms[2 * k])
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

fn same_output(a: Option<&PhaseOutput>, b: Option<&PhaseOutput>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.compacted == b.compacted && a.tau.detected == b.tau.detected,
        _ => false,
    }
}

/// Output checks of one distinct job, outside the timed part: the
/// paper's invariants hold and the coverage oracle confirms every claim,
/// as `Pipeline::verify` would.
fn check_output(
    checks: &mut Checks,
    m: &mut Measured,
    nl: &Netlist,
    universe: &FaultUniverse,
    out: &PhaseOutput,
    job: usize,
) {
    let label = format!("stress job {job}");
    let n_sv = nl.num_ffs();
    let comp_cycles = out.compacted.clock_cycles(n_sv);
    let final_detected = out.detected_by_set.len();
    invariant_check(
        checks,
        &label,
        out.initial.clock_cycles(n_sv),
        comp_cycles,
        out.tau.f0.len(),
        out.tau.detected.len(),
        final_detected,
    );
    let initial_claim = ClaimedCoverage {
        detected: out.detected_by_set.clone(),
        per_test: vec![(0, out.tau.detected.clone())],
    };
    for (set, claim, what) in [
        (&out.initial, initial_claim, "initial"),
        (
            &out.compacted,
            ClaimedCoverage::set_only(out.detected_by_set.clone()),
            "compacted",
        ),
    ] {
        let verdict = verify_test_set(nl, universe, set, &claim);
        checks.check(verdict.is_ok(), || {
            format!("{label}: coverage oracle rejected the {what} set: {verdict:?}")
        });
    }
    m.quality.add(
        comp_cycles,
        final_detected,
        out.compacted.at_speed_stats().map_or(0.0, |s| s.average),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(trace: bool) -> Workload {
        Workload {
            name: "stress".to_owned(),
            seed: 1,
            seconds: 30.0,
            trace,
        }
    }

    #[test]
    fn untraced_run_repeats_job_zero_last() {
        let w = workload(false);
        let partners: Vec<_> = (0..4).map(|j| partner(&w, 4, j)).collect();
        assert_eq!(partners, [None, None, None, Some(0)]);
        assert_eq!(partner(&w, 1, 0), None);
    }

    #[test]
    fn traced_run_pairs_each_traced_job_with_the_one_before() {
        let w = workload(true);
        let partners: Vec<_> = (0..4).map(|j| partner(&w, 4, j)).collect();
        assert_eq!(partners, [None, Some(0), None, Some(2)]);
    }
}
