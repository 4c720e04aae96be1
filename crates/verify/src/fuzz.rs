//! Differential fuzzing across independent engine implementations.
//!
//! A [`Case`] is a fully deterministic point in generator-parameter space:
//! a [`SynthSpec`] for the circuit, a data seed for the stimuli, a sequence
//! length, and a cap on the fault sample. [`run_case`] regenerates
//! everything from those parameters and runs every differential check the
//! workspace supports:
//!
//! 1. **logic** — the legacy [`CombSim`] walker against the compiled CSR
//!    kernel ([`CompiledSim`]) on the full-pass and fault-injection paths,
//!    over random 3-valued inputs; the walker injects the fault list
//!    itself, the kernel through its [`Overrides`] overlay;
//! 2. **matrix** — the fault-sharded detection matrix, row-unioned,
//!    against the serial PPSFP engine's fault-dropping detection bitmap
//!    ([`ParallelFsim::check_matrix_consistency`]) at each requested
//!    thread count;
//! 3. **seq-detect** — serial sequential fault simulation against the
//!    fault-sharded parallel front end at each requested thread count;
//! 4. **resume** — the end-of-prefix record resumed over the rest of the
//!    sequence ([`SeqFaultSim::end_states`], then
//!    [`SeqFaultSim::detects_all_from`]) against whole-sequence detection,
//!    at a random split, serially and at each requested thread count;
//! 5. **incremental** — the vector-at-a-time [`IncrementalSim`] that the
//!    `T_0` generators and the dynamic-compaction baseline run on against
//!    the batch detection profiles ([`SeqFaultSim::profiles`]) from the
//!    same start state, including a rollback to a checkpoint;
//! 6. **omission** — the Phase-2 vector-omission sweep, whose accept
//!    checks resume from the sweep record, against the reference sweep
//!    whose accept checks simulate each whole candidate from the scan-in
//!    state, and at one thread against the same sweep with its start
//!    passes fault-sharded at each requested thread count
//!    ([`check_omission_differential`]);
//! 7. **atpg** — PODEM against fault simulation and against the SAT engine
//!    on the fault sample: every test [`Podem`] finds detects its fault
//!    under [`CombFaultSim`], and wherever neither aborts, [`Podem`] and
//!    [`SatAtpg`] agree on testable versus untestable;
//! 8. **score** — Phase 1's lane-packed candidate scoring
//!    ([`score_scan_ins`]) of 2–9 random scan-in states, one of them
//!    repeated, against one [`SeqFaultSim::detect`] per state.
//!
//! Any disagreement surfaces as a [`Divergence`]; [`run_fuzz`] then shrinks
//! the case ([`crate::shrink`]) and dumps a reproduction bundle
//! ([`crate::repro`]).

use std::path::PathBuf;

use atspeed_atpg::compact::{check_omission_differential, OmissionConfig};
use atspeed_atpg::{Podem, PodemConfig, PodemOutcome, SatAtpg, SatAtpgConfig, SatAtpgOutcome};
use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{
    score_scan_ins, CombFaultSim, CombSim, CombTest, CompiledSim, Fault, IncrementalSim, Overrides,
    ParallelFsim, SeqFaultSim, Sequence, SimConfig, State, V3, W3,
};

/// Salt so stimuli derivation is independent of how many random draws the
/// logic checks consumed (the repro dumper regenerates stimuli directly).
const STIMULI_SALT: u64 = 0x5717_0711;

/// One deterministic differential-fuzzing case.
///
/// Everything [`run_case`] simulates is a pure function of these fields:
/// the same case always reproduces the same circuit, stimuli, and verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Generator parameters for the circuit under test.
    pub spec: SynthSpec,
    /// Seed for the stimuli (initial state, input sequence, test block).
    pub data_seed: u64,
    /// Length of the at-speed input sequence.
    pub seq_len: usize,
    /// Upper bound on the collapsed-fault sample size.
    pub fault_cap: usize,
}

impl Case {
    /// Derives case `i` of the fuzzing run with master seed `seed`.
    ///
    /// Every third case uses the layered generator (with occasional fanout
    /// hubs) at a larger gate count, so the structures the 100k-gate
    /// stress path exercises — deep layered logic, skewed fanout — are
    /// also differential-fuzzed, just at a CI-friendly scale.
    pub fn from_iteration(seed: u64, i: usize) -> Case {
        let mut next = rng(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let num_pis = 2 + (next() % 4) as usize; // 2..=5
        let num_pos = 1 + (next() % 3) as usize; // 1..=3
        let num_ffs = 1 + (next() % 7) as usize; // 1..=7
        let floor = num_pos + num_ffs;
        let layered = i % 3 == 2;
        let num_gates = if layered {
            (40 + (next() % 160) as usize).max(floor) // 40..=199
        } else {
            (8 + (next() % 72) as usize).max(floor) // 8..=79
        };
        let mut spec = SynthSpec::new("fuzz", num_pis, num_pos, num_ffs, num_gates, next());
        if layered {
            spec = spec.with_layers(2 + (next() % 8) as usize); // 2..=9
            if next() & 1 == 0 {
                spec = spec.with_fanout_hubs(1 + (next() % 4) as usize); // 1..=4
            }
        }
        Case {
            spec,
            data_seed: next(),
            seq_len: 4 + (next() % 16) as usize,   // 4..=19
            fault_cap: 8 + (next() % 56) as usize, // 8..=63
        }
    }
}

/// A disagreement between two engine implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which differential check failed (`logic`, `matrix`, `seq-detect`,
    /// `resume`, `incremental`, `omission`, `atpg`, `score`, or `synth`
    /// when generation itself errors). It is written into the
    /// repro bundle's `case.txt`.
    pub check: &'static str,
    /// Human-readable description of the first disagreement found.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "divergence in {}: {}", self.check, self.detail)
    }
}

impl std::error::Error for Divergence {}

/// What a clean [`run_case`] exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseReport {
    /// Differential comparisons performed.
    pub checks: usize,
    /// Collapsed faults in the sample.
    pub faults: usize,
    /// Nets in the generated circuit.
    pub nets: usize,
}

/// Splitmix-style deterministic stream for stimuli.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A random 3-valued word: every slot independently 0, 1, or X.
fn random_w3(next: &mut impl FnMut() -> u64) -> W3 {
    let a = next();
    let b = next();
    W3 {
        zero: a & !b,
        one: !a & b,
    }
}

/// A random scalar value: X with probability 1/16, else a fair bit.
fn random_v3(next: &mut impl FnMut() -> u64) -> V3 {
    let r = next();
    if r.is_multiple_of(16) {
        V3::X
    } else if r & 2 != 0 {
        V3::One
    } else {
        V3::Zero
    }
}

/// The deterministic stimuli of a case: initial state and input sequence.
///
/// Derivation depends only on `case.data_seed`, `case.seq_len`, and the
/// circuit interface, so the repro dumper can regenerate byte-identical
/// vector files without re-running any checks.
pub fn case_stimuli(case: &Case, nl: &Netlist) -> (State, Sequence) {
    let mut next = rng(case.data_seed ^ STIMULI_SALT);
    let init: State = (0..nl.num_ffs()).map(|_| random_v3(&mut next)).collect();
    let seq: Sequence = (0..case.seq_len)
        .map(|_| (0..nl.num_pis()).map(|_| random_v3(&mut next)).collect())
        .collect();
    (init, seq)
}

/// An evenly spread sample of up to `cap` collapsed faults.
fn sample_faults(u: &FaultUniverse, cap: usize) -> Vec<FaultId> {
    let reps = u.representatives();
    let stride = (reps.len() / cap.max(1)).max(1);
    reps.iter().copied().step_by(stride).take(cap).collect()
}

/// A random fault set: about 16 faults drawn from the whole uncollapsed
/// universe, so gate-pin faults on every pin occur, each in one random
/// faulty-machine slot, so a slot or a site can carry several faults.
fn random_faults(u: &FaultUniverse, next: &mut impl FnMut() -> u64) -> Vec<(Fault, u64)> {
    let n = u.num_faults() as u64;
    let mut faults = Vec::new();
    for _ in 0..63 {
        if next() & 3 == 0 {
            let fault = u.fault(FaultId::from_index((next() % n) as usize));
            faults.push((fault, 1u64 << (next() % 63 + 1)));
        }
    }
    faults
}

/// Legacy walker vs compiled kernel on the full and override paths. The
/// walker's values are indexed by net and the kernel's by value slot, so
/// every net is compared through `slot_of`.
fn check_logic(
    nl: &Netlist,
    u: &FaultUniverse,
    next: &mut impl FnMut() -> u64,
) -> Result<usize, Divergence> {
    let cc = nl.compiled();
    let sim = CompiledSim::new(cc);
    let mut legacy = CombSim::new(nl);
    let mut vals = vec![W3::ALL_X; nl.num_nets()];
    let mut reference = vec![W3::ALL_X; nl.num_nets()];
    let faults = random_faults(u, next);
    let mut ov = Overrides::new(cc);
    for &(fault, mask) in &faults {
        ov.add(fault, mask);
    }

    let mut checks = 0;
    for pass in 0..4 {
        for net in nl
            .pis()
            .iter()
            .copied()
            .chain(nl.ffs().iter().map(|ff| ff.q()))
        {
            let w = random_w3(next);
            vals[cc.slot_of(net).index()] = w;
            reference[net.index()] = w;
        }
        let path = if pass < 3 {
            legacy.eval(&mut reference);
            sim.eval(&mut vals);
            "full"
        } else {
            legacy.eval_with(&mut reference, &faults);
            sim.eval_with(&mut vals, &ov);
            "override"
        };
        if let Some(net) = nl
            .net_ids()
            .find(|&n| vals[cc.slot_of(n).index()] != reference[n.index()])
        {
            return Err(Divergence {
                check: "logic",
                detail: format!(
                    "{path} pass: net `{}` compiled {:?} vs legacy {:?}",
                    nl.net_name(net),
                    vals[cc.slot_of(net).index()],
                    reference[net.index()],
                ),
            });
        }
        checks += 1;
    }
    Ok(checks)
}

fn first_mismatch(a: &[bool], b: &[bool], faults: &[FaultId]) -> String {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!(
            "fault {:?} (index {i}): serial detected={} parallel detected={}",
            faults[i], a[i], b[i]
        ),
        None => format!("lengths differ: {} vs {}", a.len(), b.len()),
    }
}

/// Serial vs fault-sharded sequential detection of `faults` by `(init,
/// seq)` with a scan-out, at each thread count: one check per count.
/// Returns the serial detections, which the later checks build on.
pub(crate) fn check_seq_detect(
    nl: &Netlist,
    u: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    faults: &[FaultId],
    threads: &[usize],
) -> Result<Vec<bool>, Divergence> {
    let serial = SeqFaultSim::new(nl).detect(init, seq, faults, u, true);
    for &t in threads {
        let got =
            ParallelFsim::new(nl, SimConfig::with_threads(t)).detect(init, seq, faults, u, true);
        if got != serial {
            return Err(Divergence {
                check: "seq-detect",
                detail: format!("threads {t}: {}", first_mismatch(&serial, &got, faults)),
            });
        }
    }
    Ok(serial)
}

/// Resumed vs whole-sequence simulation: the record after `seq[..split]`,
/// resumed over `seq[split..]` with a scan-out, detects every fault the
/// whole sequence detects (`detected`) and none of up to 8 faults it
/// misses, each taken alone — serially and at each thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_resume(
    nl: &Netlist,
    u: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    faults: &[FaultId],
    detected: &[bool],
    split: usize,
    threads: &[usize],
) -> Result<usize, Divergence> {
    let head: Sequence = seq.iter().take(split).cloned().collect();
    let tail: Sequence = seq.iter().skip(split).cloned().collect();
    let hits: Vec<usize> = (0..faults.len()).filter(|&k| detected[k]).collect();
    let misses = (0..faults.len()).filter(|&k| !detected[k]).take(8);
    let mut checks = 0;
    for &t in std::iter::once(&1).chain(threads) {
        let par = ParallelFsim::new(nl, SimConfig::with_threads(t));
        let rec = par.end_states(init, &head, faults, u);
        let diverged = |detail: String| Divergence {
            check: "resume",
            detail: format!("threads {t}, split {split}: {detail}"),
        };
        if !par.detects_all_from(&rec, &tail, &hits, u) {
            return Err(diverged(
                "a fault the whole sequence detects is missed when resumed".to_owned(),
            ));
        }
        for k in misses.clone() {
            if par.detects_all_from(&rec, &tail, &[k], u) {
                return Err(diverged(format!(
                    "fault {:?} is missed by the whole sequence but detected when resumed",
                    faults[k]
                )));
            }
        }
        checks += 1;
    }
    Ok(checks)
}

/// Incremental vs batch sequential simulation from the same start state:
/// after `load_state(init)`, each `apply` newly detects exactly the faults
/// whose profile puts their primary-output detection in that cycle, and
/// applying the vector again after a `rollback` to a checkpoint taken just
/// before it detects as many; `scan_observe` after the last vector then
/// detects exactly the faults no primary output caught whose state differs
/// at the end.
pub(crate) fn check_incremental(
    nl: &Netlist,
    u: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    faults: &[FaultId],
) -> Result<usize, Divergence> {
    let profiles = SeqFaultSim::new(nl).profiles(init, seq, faults, u);
    let diverged = |detail: String| Divergence {
        check: "incremental",
        detail,
    };
    let mut inc = IncrementalSim::new(nl, u, faults);
    inc.load_state(init);
    for t in 0..seq.len() {
        let want = profiles
            .iter()
            .filter(|p| p.po_detect == Some(t as u32))
            .count();
        inc.checkpoint();
        let got = inc.apply(seq.vector(t));
        if got != want {
            return Err(diverged(format!(
                "cycle {t}: apply detected {got}, the profiles {want}"
            )));
        }
        inc.rollback();
        let again = inc.apply(seq.vector(t));
        if again != got {
            return Err(diverged(format!(
                "cycle {t}: apply detected {got}, and {again} after a rollback"
            )));
        }
    }
    let last = seq.len().checked_sub(1);
    let want = profiles
        .iter()
        .filter(|p| p.po_detect.is_none() && last.is_some_and(|t| p.state_diff_at(t)))
        .count();
    let got = inc.scan_observe();
    if got != want {
        return Err(diverged(format!(
            "scan_observe detected {got}, the profiles {want}"
        )));
    }
    Ok(1)
}

/// Lane-packed candidate scoring against per-state simulation: 2–9 random
/// scan-in states drawn from `seed`, one of them repeated, scored on
/// `faults` over `seq`, must get the count of faults one
/// [`SeqFaultSim::detect`] with a scan-out detects from each state.
pub(crate) fn check_score(
    nl: &Netlist,
    u: &FaultUniverse,
    seq: &Sequence,
    faults: &[FaultId],
    seed: u64,
) -> Result<usize, Divergence> {
    let mut next = rng(seed);
    let n = 2 + (next() % 8) as usize;
    let mut states: Vec<State> = (0..n - 1)
        .map(|_| (0..nl.num_ffs()).map(|_| random_v3(&mut next)).collect())
        .collect();
    let repeated = states[(next() as usize) % states.len()].clone();
    states.insert((next() as usize) % (states.len() + 1), repeated);
    let refs: Vec<&State> = states.iter().collect();
    let mut fsim = SeqFaultSim::new(nl);
    let want: Vec<usize> = states
        .iter()
        .map(|s| {
            fsim.detect(s, seq, faults, u, true)
                .iter()
                .filter(|&&d| d)
                .count()
        })
        .collect();
    let got = score_scan_ins(nl, &refs, seq, faults, u);
    if got != want {
        return Err(Divergence {
            check: "score",
            detail: format!("lanes scored {got:?}, per-state detection {want:?}"),
        });
    }
    Ok(1)
}

/// PODEM against its independent references: each test it finds must
/// detect its fault under [`CombFaultSim`], and wherever neither engine
/// aborts, PODEM and [`SatAtpg`] must agree on testable versus untestable.
pub(crate) fn check_atpg(
    nl: &Netlist,
    u: &FaultUniverse,
    faults: &[FaultId],
) -> Result<usize, Divergence> {
    let mut podem = Podem::new(nl, PodemConfig::default());
    let sat = SatAtpg::new(nl, SatAtpgConfig::default());
    let mut csim = CombFaultSim::new(nl);
    let diverged = |detail: String| Divergence {
        check: "atpg",
        detail,
    };
    for &fid in faults {
        let fault = u.fault(fid);
        let podem_testable = match podem.generate(fault) {
            PodemOutcome::Test(t) => {
                if csim.detect_block(std::slice::from_ref(&t), &[fid], u)[0] & 1 == 0 {
                    return Err(diverged(format!(
                        "PODEM's test for {} does not detect it",
                        fault.describe(nl)
                    )));
                }
                Some(true)
            }
            PodemOutcome::Untestable => Some(false),
            PodemOutcome::Aborted => None,
        };
        let sat_testable = match sat.generate(fault) {
            SatAtpgOutcome::Test(_) => Some(true),
            SatAtpgOutcome::Untestable => Some(false),
            SatAtpgOutcome::Aborted => None,
        };
        if let (Some(p), Some(s)) = (podem_testable, sat_testable) {
            if p != s {
                return Err(diverged(format!(
                    "{}: PODEM testable={p}, SAT testable={s}",
                    fault.describe(nl)
                )));
            }
        }
    }
    Ok(1)
}

/// Runs every differential check of one case at the given thread counts.
///
/// # Errors
///
/// Returns the first [`Divergence`] found — any bit of disagreement between
/// two engines that are specified to be equivalent.
pub fn run_case(case: &Case, threads: &[usize]) -> Result<CaseReport, Divergence> {
    let nl = generate(&case.spec).map_err(|e| Divergence {
        check: "synth",
        detail: format!("generator rejected {:?}: {e}", case.spec),
    })?;
    let u = FaultUniverse::full(&nl);
    let mut next = rng(case.data_seed);
    let mut report = CaseReport {
        checks: 0,
        faults: 0,
        nets: nl.num_nets(),
    };

    report.checks += check_logic(&nl, &u, &mut next)?;

    let faults = sample_faults(&u, case.fault_cap);
    report.faults = faults.len();

    // Combinational detection: the fault-sharded matrix against the serial
    // fault-dropping bitmap.
    let tests: Vec<CombTest> = (0..8 + case.seq_len * 3)
        .map(|_| {
            CombTest::new(
                (0..nl.num_ffs()).map(|_| random_v3(&mut next)).collect(),
                (0..nl.num_pis()).map(|_| random_v3(&mut next)).collect(),
            )
        })
        .collect();
    for &t in threads {
        ParallelFsim::new(&nl, SimConfig::with_threads(t))
            .check_matrix_consistency(&tests, &faults, &u)
            .map_err(|m| Divergence {
                check: "matrix",
                detail: format!("threads {t}: {m}"),
            })?;
        report.checks += 1;
    }

    let (init, seq) = case_stimuli(case, &nl);
    let seq_serial = check_seq_detect(&nl, &u, &init, &seq, &faults, threads)?;
    report.checks += threads.len();

    let split = (next() as usize) % (seq.len() + 1);
    report.checks += check_resume(&nl, &u, &init, &seq, &faults, &seq_serial, split, threads)?;
    report.checks += check_incremental(&nl, &u, &init, &seq, &faults)?;

    // Vector omission: one thread vs fault-sharded profiles at each thread
    // count, on the faults this sequence actually detects.
    let targets: Vec<FaultId> = faults
        .iter()
        .zip(&seq_serial)
        .filter_map(|(&f, &d)| d.then_some(f))
        .collect();
    if seq.len() > 1 && !targets.is_empty() {
        check_omission_differential(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
            threads,
        )
        .map_err(|d| Divergence {
            check: "omission",
            detail: d.to_string(),
        })?;
        report.checks += 2;
    }

    report.checks += check_atpg(&nl, &u, &faults)?;
    report.checks += check_score(&nl, &u, &seq, &faults, next())?;

    Ok(report)
}

/// Settings for a fuzzing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Master seed; case `i` derives from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to run.
    pub iters: usize,
    /// Thread counts the parallel engines are exercised at.
    pub threads: Vec<usize>,
    /// Where to dump reproduction bundles for failing cases (skipped when
    /// `None`).
    pub out_dir: Option<PathBuf>,
    /// Bound on minimizer re-simulations per failing case.
    pub shrink_steps: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            iters: 100,
            threads: vec![2, 3],
            out_dir: None,
            shrink_steps: 64,
        }
    }
}

/// One failing case, minimized and (optionally) dumped to disk.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case as originally derived.
    pub case: Case,
    /// The smallest case the minimizer found that still diverges.
    pub minimized: Case,
    /// The divergence of the minimized case.
    pub divergence: Divergence,
    /// Where the reproduction bundle was written, if anywhere.
    pub repro_dir: Option<PathBuf>,
}

/// Aggregate result of [`run_fuzz`].
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Cases derived and executed.
    pub cases_run: usize,
    /// Differential comparisons performed across all clean cases.
    pub checks_run: usize,
    /// Every diverging case (empty on a healthy workspace).
    pub failures: Vec<FuzzFailure>,
}

/// Runs `cfg.iters` deterministic cases, minimizing and dumping every
/// failure. Never panics on a divergence — all failures are collected so a
/// single run reports every engine pair that disagrees.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    let _sp = atspeed_trace::span("verify.fuzz");
    let mut out = FuzzOutcome::default();
    for i in 0..cfg.iters {
        let case = Case::from_iteration(cfg.seed, i);
        atspeed_trace::metrics::global()
            .counter("verify/cases")
            .inc();
        match run_case(&case, &cfg.threads) {
            Ok(rep) => {
                out.checks_run += rep.checks;
            }
            Err(div) => {
                atspeed_trace::error!("verify.fuzz", "engines diverged";
                    iteration = i, check = div.check, detail = div.detail);
                atspeed_trace::metrics::global()
                    .counter("verify/divergences")
                    .inc();
                let (minimized, divergence) =
                    crate::shrink::minimize(&case, &cfg.threads, cfg.shrink_steps);
                let repro_dir = cfg.out_dir.as_deref().and_then(|root| {
                    match crate::repro::dump_repro(root, &minimized, &divergence) {
                        Ok(dir) => Some(dir),
                        Err(e) => {
                            atspeed_trace::error!("verify.fuzz", "failed to dump repro";
                                error = e.to_string());
                            None
                        }
                    }
                });
                out.failures.push(FuzzFailure {
                    case,
                    minimized,
                    divergence,
                    repro_dir,
                });
            }
        }
        out.cases_run += 1;
    }
    out
}

/// Aggregate result of [`run_malformed_fuzz`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MalformedOutcome {
    /// Mutated inputs fed to the parsers.
    pub cases_run: usize,
    /// Inputs the parsers rejected with a structured error.
    pub rejected: usize,
    /// Inputs that still parsed (benign mutations happen).
    pub accepted: usize,
}

/// Feeds `iters` deterministically mutated inputs into the two parsing
/// surfaces a served request reaches — `.bench` netlist parsing
/// ([`bench_fmt::parse`](atspeed_circuit::bench_fmt::parse)) and the
/// stimuli wire codec ([`crate::repro::decode_stimuli`]) — and asserts,
/// by returning at all, that no mutation panics, aborts, or wedges a
/// parser. Every malformed input must surface as an `Err`; benign
/// mutations that still parse are counted, not failed. One `.bench` case
/// in four widens a gate past [`atspeed_circuit::MAX_FANIN`] inputs.
///
/// This is the client-cannot-crash-the-server guarantee at the payload
/// layer; the serve crate's own tests cover the framing layer.
pub fn run_malformed_fuzz(seed: u64, iters: usize) -> MalformedOutcome {
    let _sp = atspeed_trace::span("verify.malformed");
    let mut next = rng(seed ^ 0xBAD_F00D);
    let case = Case::from_iteration(seed, 0);
    let nl = generate(&case.spec).expect("derived specs generate");
    let bench = atspeed_circuit::bench_fmt::write(&nl);
    let (init, seq) = case_stimuli(&case, &nl);
    let vectors = crate::repro::encode_stimuli(&init, &seq);

    let mutate = |text: &str, next: &mut dyn FnMut() -> u64| -> String {
        let mut bytes = text.as_bytes().to_vec();
        match next() % 6 {
            // Truncate mid-declaration.
            0 => bytes.truncate((next() as usize) % (bytes.len() + 1)),
            // Flip one byte to arbitrary ASCII (including NUL and DEL).
            1 if !bytes.is_empty() => {
                let i = (next() as usize) % bytes.len();
                bytes[i] = (next() & 0x7f) as u8;
            }
            // Splice in a garbage line.
            2 => {
                let i = (next() as usize) % (bytes.len() + 1);
                let junk: Vec<u8> = (0..1 + next() % 40)
                    .map(|_| (next() & 0x7f) as u8)
                    .collect();
                bytes.splice(i..i, junk);
            }
            // Duplicate a random chunk (redefinitions, repeated vectors).
            3 if bytes.len() > 1 => {
                let a = (next() as usize) % bytes.len();
                let b = a + (next() as usize) % (bytes.len() - a);
                let chunk = bytes[a..b].to_vec();
                bytes.extend(chunk);
            }
            // Replace wholesale with short binary junk.
            4 => bytes = (0..next() % 64).map(|_| next() as u8).collect(),
            // Blow one line up to a few kilobytes (bounded-read probe).
            _ => {
                let c = [b'0', b'1', b'x', b'('][(next() % 4) as usize];
                bytes.extend(std::iter::repeat_n(c, 4096));
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    };

    // Widen one gate past the fanin cap by repeating its first input.
    let widen = |text: &str, next: &mut dyn FnMut() -> u64| -> String {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let gates: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains(" = ") && !lines[i].contains("DFF"))
            .collect();
        if let Some(&i) = gates.get((next() as usize) % gates.len().max(1)) {
            let line = &mut lines[i];
            if let (Some(open), Some(close)) = (line.find('('), line.rfind(')')) {
                let first = line[open + 1..close].split(',').next().unwrap_or("").trim();
                let extra = format!(", {first}").repeat(atspeed_circuit::MAX_FANIN);
                line.insert_str(close, &extra);
            }
        }
        lines.join("\n")
    };

    let mut out = MalformedOutcome::default();
    for i in 0..iters {
        let (parsed, decoded) = if i % 2 == 0 {
            let text = if i % 8 == 0 {
                widen(&bench, &mut next)
            } else {
                mutate(&bench, &mut next)
            };
            (
                atspeed_circuit::bench_fmt::parse("malformed", &text).is_ok(),
                crate::repro::decode_stimuli(&vectors, nl.num_ffs(), nl.num_pis()).is_ok(),
            )
        } else {
            let text = mutate(&vectors, &mut next);
            (
                true,
                crate::repro::decode_stimuli(&text, nl.num_ffs(), nl.num_pis()).is_ok(),
            )
        };
        out.cases_run += 1;
        if parsed && decoded {
            out.accepted += 1;
        } else {
            out.rejected += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_derivation_is_deterministic_and_varied() {
        let a = Case::from_iteration(7, 3);
        let b = Case::from_iteration(7, 3);
        assert_eq!(a, b);
        assert!(a.spec.is_valid());
        let c = Case::from_iteration(7, 4);
        assert_ne!(a, c, "different iterations give different cases");
    }

    #[test]
    fn stimuli_match_circuit_interface() {
        let case = Case::from_iteration(11, 0);
        let nl = generate(&case.spec).unwrap();
        let (init, seq) = case_stimuli(&case, &nl);
        assert_eq!(init.len(), nl.num_ffs());
        assert_eq!(seq.len(), case.seq_len);
        assert_eq!(seq.vector(0).len(), nl.num_pis());
        // Same case, same stimuli.
        let (init2, seq2) = case_stimuli(&case, &nl);
        assert_eq!(init, init2);
        assert_eq!(seq, seq2);
    }

    #[test]
    fn small_batch_runs_clean() {
        let outcome = run_fuzz(&FuzzConfig {
            seed: 0xF00D,
            iters: 4,
            threads: vec![2],
            ..FuzzConfig::default()
        });
        assert_eq!(outcome.cases_run, 4);
        assert!(outcome.checks_run > 0);
        assert!(
            outcome.failures.is_empty(),
            "engines diverged: {:?}",
            outcome.failures
        );
    }

    #[test]
    fn malformed_inputs_reject_without_panicking() {
        let out = run_malformed_fuzz(0xC0FFEE, 200);
        assert_eq!(out.cases_run, 200);
        assert_eq!(out.rejected + out.accepted, 200);
        assert!(
            out.rejected > 0,
            "mutations this aggressive must produce rejects: {out:?}"
        );
    }

    #[test]
    fn run_case_reports_work() {
        let case = Case::from_iteration(1, 0);
        let rep = run_case(&case, &[2]).expect("engines agree");
        assert!(
            rep.checks >= 13,
            "logic(4) + matrix(1) + seq(1) + resume(2) + incremental(1) + omission(2) + atpg(1) \
             + score(1): {rep:?}"
        );
        assert!(rep.faults > 0);
        assert!(rep.nets > 0);
    }

    /// The incremental check on a circuit whose collapsed faults fill three
    /// words (a fuzz case samples at most 63), over a sequence long enough
    /// for detections to spread across cycles.
    #[test]
    fn incremental_check_spans_several_words() {
        let spec = SynthSpec::new("inc", 6, 4, 8, 160, 2001);
        let nl = generate(&spec).unwrap();
        let u = FaultUniverse::full(&nl);
        let faults = u.representatives().to_vec();
        assert!(faults.len() > 2 * 63, "needs three words");
        let case = Case {
            spec,
            data_seed: 7,
            seq_len: 24,
            fault_cap: faults.len(),
        };
        let (init, seq) = case_stimuli(&case, &nl);
        assert_eq!(check_incremental(&nl, &u, &init, &seq, &faults), Ok(1));
    }
}
