//! Iterative application of Phases 1 and 2 (the paper's Section 3.3).
//!
//! Starting from `T_0`, each iteration re-derives `F_0` (faults detected
//! without scan by the current sequence), selects a scan-in state and
//! scan-out time (Phase 1), and compacts the sequence by vector omission
//! (Phase 2). The compacted sequence `T_C` becomes the next iteration's
//! `T_0`. Candidates are marked *selected* as they are used; the loop
//! terminates when the best candidate is one that was already selected
//! (after completing that final iteration), so at most `K = |C|` iterations
//! run.

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombTest, ParallelFsim, Sequence, V3};

use crate::error::CoreError;
use crate::phase1::{select_scan_test, Phase1Config};
use crate::phase2::{compact_test, OmissionConfig};
use crate::test::ScanTest;

/// Configuration for [`build_tau_seq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterateConfig {
    /// Phase 1 settings.
    pub phase1: Phase1Config,
    /// Phase 2 (vector omission) settings.
    pub omission: OmissionConfig,
    /// Optional cap on iterations (the natural bound is `|C|`).
    pub max_iterations: Option<usize>,
}

impl Default for IterateConfig {
    /// Defaults tuned for benchmark-scale circuits: candidate ranking on a
    /// fault sample, bounded omission effort, and at most 4 iterations
    /// (gains beyond the second are marginal across the catalog; the
    /// selected-state reuse rule usually fires first anyway).
    /// Exhaustive settings remain available by overriding the fields.
    fn default() -> Self {
        IterateConfig {
            phase1: Phase1Config {
                max_candidates: None,
                score_sample: Some(126),
                scan_out_rule: Default::default(),
                sim: Default::default(),
            },
            omission: OmissionConfig {
                max_passes: 1,
                chunked: true,
                attempt_budget: 160,
                ..OmissionConfig::default()
            },
            max_iterations: Some(4),
        }
    }
}

/// The outcome of the iterated Phases 1–2: the single long test `τ_seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TauSeqResult {
    /// The test `τ_seq = (SI_seq, T_seq)`.
    pub test: ScanTest,
    /// Faults detected by `τ_seq` — the paper's `F_seq` (Table 1 column
    /// "scan").
    pub detected: Vec<FaultId>,
    /// Faults detected by the original `T_0` without scan (Table 1 column
    /// "T0").
    pub f0: Vec<FaultId>,
    /// Iterations of Phases 1–2 performed.
    pub iterations: usize,
    /// Which candidates were marked selected (for reuse by the caller).
    pub selected: Vec<bool>,
}

/// Runs Phases 1–2 iteratively and returns `τ_seq`.
///
/// `targets` is the full target fault set `F` (collapsed representatives).
///
/// # Errors
///
/// Returns [`CoreError::EmptyT0`] when `t0` is empty and
/// [`CoreError::NoScanInCandidates`] when `candidates` is empty;
/// Phase 1 errors from [`select_scan_test`] propagate unchanged.
pub fn build_tau_seq(
    nl: &Netlist,
    universe: &FaultUniverse,
    t0: &Sequence,
    candidates: &[CombTest],
    targets: &[FaultId],
    cfg: IterateConfig,
) -> Result<TauSeqResult, CoreError> {
    if t0.is_empty() {
        return Err(CoreError::EmptyT0);
    }
    if candidates.is_empty() {
        return Err(CoreError::NoScanInCandidates);
    }
    let fsim = ParallelFsim::new(nl, cfg.phase1.sim);
    let init_x = vec![V3::X; nl.num_ffs()];
    let mut selected = vec![false; candidates.len()];
    let mut current: Sequence = t0.clone();
    let mut original_f0: Option<Vec<FaultId>> = None;
    let mut best: Option<ScanTest> = None;
    let mut iterations = 0usize;
    let max_iter = cfg
        .max_iterations
        .unwrap_or(candidates.len())
        .min(candidates.len())
        .max(1);

    while iterations < max_iter {
        iterations += 1;
        let _sp = atspeed_trace::span("iterate.iteration");
        let t_iter = std::time::Instant::now();
        // Step 1: faults of `targets` detected by the current sequence
        // without scan (unknown initial state, primary outputs only).
        let det = fsim.detect(&init_x, &current, targets, universe, false);
        let f0: Vec<FaultId> = targets
            .iter()
            .zip(det.iter())
            .filter(|(_, &d)| d)
            .map(|(&f, _)| f)
            .collect();
        let rest: Vec<FaultId> = targets
            .iter()
            .zip(det.iter())
            .filter(|(_, &d)| !d)
            .map(|(&f, _)| f)
            .collect();
        if original_f0.is_none() {
            original_f0 = Some(f0.clone());
        }

        let t_step1 = t_iter.elapsed();

        // Phase 1 (steps 2 and 3).
        let t_p1 = std::time::Instant::now();
        let p1 = select_scan_test(
            nl, universe, &current, candidates, &f0, &rest, &selected, cfg.phase1,
        )?;
        let reused = p1.reused_selected;
        selected[p1.si_index] = true;
        let t_phase1 = t_p1.elapsed();

        // Phase 2: vector omission preserving F_SO = F_SI.
        let t_p2 = std::time::Instant::now();
        let (compacted, om_stats) = compact_test(nl, universe, &p1.test, &p1.f_so, cfg.omission);
        atspeed_trace::debug!("core.iterate", "iteration done";
            iter = iterations,
            step1_us = t_step1.as_micros(),
            phase1_us = t_phase1.as_micros(),
            u_so = p1.u_so,
            phase2_us = t_p2.elapsed().as_micros(),
            omission_attempts = om_stats.attempts,
            omission_removed = om_stats.removed,
            len_before = p1.test.len(),
            len_after = compacted.len(),
        );
        let progressed = best
            .as_ref()
            .is_none_or(|prev| compacted.len() < prev.len());
        current = compacted.seq.clone();
        best = Some(compacted);

        // Stop on scan-in reuse (the paper's rule) or when an iteration
        // neither shortened the sequence nor can shorten it further (no
        // measurable progress — later iterations only re-confirm).
        if reused || !progressed {
            break;
        }
    }

    let test = best.expect("max_iter >= 1, so at least one iteration set `best`");
    let det = fsim.detect(&test.si, &test.seq, targets, universe, true);
    let detected: Vec<FaultId> = targets
        .iter()
        .zip(det.iter())
        .filter(|(_, &d)| d)
        .map(|(&f, _)| f)
        .collect();
    Ok(TauSeqResult {
        test,
        detected,
        f0: original_f0.unwrap_or_default(),
        iterations,
        selected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_atpg::comb_tset::{self, CombTsetConfig};
    use atspeed_atpg::random_t0;
    use atspeed_circuit::bench_fmt::s27;

    fn setup() -> (
        atspeed_circuit::Netlist,
        FaultUniverse,
        Sequence,
        Vec<CombTest>,
    ) {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let t0 = random_t0(&nl, 60, 21);
        let c = comb_tset::generate(&nl, &u, &CombTsetConfig::default())
            .unwrap()
            .tests;
        (nl, u, t0, c)
    }

    #[test]
    fn tau_seq_detects_superset_of_each_iteration_f0() {
        let (nl, u, t0, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        // F_SI ⊇ F_0 is structural only within one iteration: detection
        // from the all-X initial state is monotone under state refinement,
        // so any scan-in state keeps every bare-T0 detection, and the
        // scan-out rule and omission both preserve F_SO. Across iterations
        // a *re-selected* scan-in state may trade away an original-F_0
        // fault (Phase 3 tops those up), so pin the iteration count to 1.
        let cfg = IterateConfig {
            max_iterations: Some(1),
            ..IterateConfig::default()
        };
        let r = build_tau_seq(&nl, &u, &t0, &c, &targets, cfg).unwrap();
        for f in &r.f0 {
            assert!(
                r.detected.contains(f),
                "τ_seq lost fault {:?} detected by bare T0",
                f
            );
        }
        assert!(r.iterations >= 1);
        assert!(r.test.len() <= t0.len(), "sequence only ever shrinks");
    }

    /// Every simulation of `build_tau_seq`, the final check of `τ_seq`
    /// included, shards one 63-fault word per partition: results and
    /// gate-words are the same at any thread count.
    #[test]
    fn results_and_work_are_identical_at_any_thread_count() {
        use atspeed_circuit::synth::{generate, SynthSpec};
        use atspeed_sim::SimConfig;
        let nl = generate(&SynthSpec::new("tau", 6, 3, 10, 160, 5)).unwrap();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        assert!(targets.len() > 2 * 63, "{} targets", targets.len());
        let t0 = random_t0(&nl, 24, 9);
        let c = comb_tset::generate(&nl, &u, &CombTsetConfig::default())
            .unwrap()
            .tests;
        let run = |threads: usize| {
            let mut cfg = IterateConfig::default();
            cfg.phase1.sim = SimConfig::with_threads(threads);
            cfg.omission.sim = SimConfig::with_threads(threads);
            let scope = atspeed_sim::stats::scoped();
            let r = build_tau_seq(&nl, &u, &t0, &c, &targets, cfg).unwrap();
            (r, scope.report().totals().gate_evals)
        };
        let (one, one_work) = run(1);
        assert!(!one.detected.is_empty());
        for threads in [2, 4] {
            let (r, work) = run(threads);
            assert_eq!(r, one, "threads={threads}");
            assert_eq!(work, one_work, "threads={threads}");
        }
    }

    #[test]
    fn terminates_within_candidate_count() {
        let (nl, u, t0, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let r = build_tau_seq(&nl, &u, &t0, &c, &targets, IterateConfig::default()).unwrap();
        assert!(r.iterations <= c.len());
        assert!(r.selected.iter().filter(|&&s| s).count() <= r.iterations);
    }

    #[test]
    fn respects_iteration_cap() {
        let (nl, u, t0, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let cfg = IterateConfig {
            max_iterations: Some(1),
            ..IterateConfig::default()
        };
        let r = build_tau_seq(&nl, &u, &t0, &c, &targets, cfg).unwrap();
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn empty_inputs_yield_errors() {
        let (nl, u, t0, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        assert_eq!(
            build_tau_seq(
                &nl,
                &u,
                &Sequence::new(),
                &c,
                &targets,
                IterateConfig::default()
            )
            .unwrap_err(),
            CoreError::EmptyT0
        );
        assert_eq!(
            build_tau_seq(&nl, &u, &t0, &[], &targets, IterateConfig::default()).unwrap_err(),
            CoreError::NoScanInCandidates
        );
    }

    #[test]
    fn is_deterministic() {
        let (nl, u, t0, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let a = build_tau_seq(&nl, &u, &t0, &c, &targets, IterateConfig::default()).unwrap();
        let b = build_tau_seq(&nl, &u, &t0, &c, &targets, IterateConfig::default()).unwrap();
        assert_eq!(a.test, b.test);
        assert_eq!(a.detected, b.detected);
    }
}
