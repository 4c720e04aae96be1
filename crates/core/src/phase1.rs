//! Phase 1: deriving a scan-based test from the test sequence `T_0`.
//!
//! Given `T_0` (generated without scan), Phase 1:
//!
//! 1. uses the set `F_0` of faults `T_0` already detects without scan
//!    (computed by the caller, since the iteration loop reuses it);
//! 2. **Step 2** — selects the scan-in state `SI` among the state parts of
//!    the combinational test set `C` that maximizes the faults detected by
//!    `τ_SI = (SI, T_0)` over `F − F_0`, preferring *unselected* candidates
//!    (the iteration-termination rule of the paper's Section 3.3);
//! 3. **Step 3** — selects the earliest scan-out time `u_SO` such that the
//!    prefix test `τ_SO = (SI, T_0[0, u_SO])` still detects every fault in
//!    `F_SI` (the paper's `i₀` rule: smallest prefix, no fault given up).

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{score_scan_ins, CombTest, ParallelFsim, Sequence, SimConfig, State};

use crate::error::CoreError;
use crate::test::ScanTest;

/// How the scan-out time unit is selected in Step 3 (the paper's `i₀`
/// versus `i₁` discussion at the end of Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanOutRule {
    /// The paper's choice `i₀`: the smallest `i` whose prefix test detects
    /// every fault of `F_SI`. Produces the shortest sequences.
    #[default]
    EarliestComplete,
    /// The paper's rejected alternative `i₁`: among prefixes detecting all
    /// of `F_SI`, the one detecting the most target faults overall
    /// (smallest `i` on ties). The paper reports it yields significantly
    /// longer sequences for a marginal detection gain — kept here so the
    /// ablation is reproducible.
    MaxDetectEarliest,
}

/// Configuration for [`select_scan_test`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Phase1Config {
    /// Consider at most this many scan-in candidates (`None` = all of `C`).
    pub max_candidates: Option<usize>,
    /// Score candidates on at most this many faults of `F − F_0` (`None` =
    /// all). The winner is always re-simulated on the full set, so `F_SI`
    /// stays exact; only the *ranking* is sampled. Large circuits use this
    /// to keep Step 2 linear in the sample instead of the fault count.
    pub score_sample: Option<usize>,
    /// Scan-out time selection rule (Step 3).
    pub scan_out_rule: ScanOutRule,
    /// Threading for the winner's full-set simulations, split by fault
    /// word; the candidates are scored in one lane-packed simulation on
    /// the calling thread. The default (1 thread) reproduces the
    /// single-threaded behavior bit-for-bit, and more threads give
    /// identical results.
    pub sim: SimConfig,
}

/// Result of Phase 1.
#[derive(Debug, Clone)]
pub struct Phase1Result {
    /// Index into the candidate list of the chosen scan-in state.
    pub si_index: usize,
    /// Whether the chosen candidate was already marked selected.
    pub reused_selected: bool,
    /// The scan-based test `τ_SO = (SI, T_SO)`.
    pub test: ScanTest,
    /// The chosen scan-out time unit `u_SO` (`T_SO = T_0[0, u_SO]`).
    pub u_so: usize,
    /// Faults detected by `τ_SO = (SI, T_SO)` — the paper's `F_SO`, the
    /// target set Phase 2 must preserve. Under the default `i₀` rule this
    /// equals `F_SI`; under `i₁` it may be a superset. Ordered by earliest
    /// detection time so downstream fault-simulation groups exit early.
    pub f_so: Vec<FaultId>,
}

/// Runs Phase 1 Steps 2 and 3.
///
/// `f0` are the faults detected by `t0` without scan; `rest` is `F − F_0`
/// (the faults simulated per candidate); `selected` marks candidates chosen
/// in earlier iterations.
///
/// # Errors
///
/// Returns [`CoreError::EmptyT0`] when `t0` is empty,
/// [`CoreError::SelectedMarksTooShort`] when `selected` covers fewer
/// entries than `candidates`, and [`CoreError::NoScanInCandidates`] when
/// there are no candidates to pick from — malformed inputs surface as
/// errors instead of aborting a long pipeline run.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Phase 1 inputs
pub fn select_scan_test(
    nl: &Netlist,
    universe: &FaultUniverse,
    t0: &Sequence,
    candidates: &[CombTest],
    f0: &[FaultId],
    rest: &[FaultId],
    selected: &[bool],
    cfg: Phase1Config,
) -> Result<Phase1Result, CoreError> {
    if t0.is_empty() {
        return Err(CoreError::EmptyT0);
    }
    if selected.len() < candidates.len() {
        return Err(CoreError::SelectedMarksTooShort {
            marks: selected.len(),
            candidates: candidates.len(),
        });
    }
    if candidates.is_empty() {
        return Err(CoreError::NoScanInCandidates);
    }
    let limit = cfg.max_candidates.unwrap_or(candidates.len());

    // Step 2: pick SI maximizing |F_j| over F - F_0, preferring unselected
    // candidates on ties *and* whenever an unselected candidate achieves the
    // same best coverage (only a strictly better selected candidate wins).
    // Ranking may run on a sample of the fault set; the winner is then
    // re-simulated on the full set.
    let sample: &[FaultId] = match cfg.score_sample {
        Some(cap) if cap < rest.len() => &rest[..cap],
        _ => rest,
    };
    // Every candidate applies `t0`, so the distinct scan-in states are
    // scored together in one lane-packed simulation; the selection below
    // runs over the same counts as one simulation per candidate would give.
    let counts = score_candidates(nl, universe, t0, candidates, sample, limit);
    let mut best_unsel: Option<(usize, usize)> = None;
    let mut best_sel: Option<(usize, usize)> = None;
    for (j, &count) in counts.iter().enumerate() {
        let slot = if selected[j] {
            &mut best_sel
        } else {
            &mut best_unsel
        };
        if slot.as_ref().is_none_or(|(_, c0)| count > *c0) {
            *slot = Some((j, count));
        }
    }
    let (si_index, reused_selected) = match (best_unsel, best_sel) {
        (Some((ju, cu)), Some((js, cs))) => {
            if cs > cu {
                (js, true)
            } else {
                (ju, false)
            }
        }
        (Some((ju, _)), None) => (ju, false),
        (None, Some((js, _))) => (js, true),
        (None, None) => return Err(CoreError::NoScanInCandidates),
    };

    let fsim = ParallelFsim::new(nl, cfg.sim);
    let si = candidates[si_index].state.clone();
    let det = fsim.detect(&si, t0, rest, universe, true);
    let fj = rest
        .iter()
        .zip(det.iter())
        .filter(|(_, &d)| d)
        .map(|(&f, _)| f);
    let mut f_si: Vec<FaultId> = f0.to_vec();
    f_si.extend(fj);

    // Step 3: select the scan-out time unit and the preserved set F_SO.
    let profiles = fsim.profiles(&si, t0, &f_si, universe);
    let complete_at = |i: usize| profiles.iter().all(|p| p.detected_by_prefix(i));
    let (u_so, mut keyed): (usize, Vec<(u32, FaultId)>) = match cfg.scan_out_rule {
        // i₀: earliest prefix that loses no fault of F_SI; F_SO = F_SI.
        ScanOutRule::EarliestComplete => {
            let u_so = (0..t0.len())
                .find(|&i| complete_at(i))
                .unwrap_or(t0.len() - 1);
            let keyed = f_si
                .iter()
                .zip(profiles.iter())
                .map(|(&f, p)| (p.earliest_detection().unwrap_or(u32::MAX), f))
                .collect();
            (u_so, keyed)
        }
        // i₁: among complete prefixes, the one detecting the most target
        // faults overall (earliest on ties); F_SO is everything the chosen
        // prefix detects.
        ScanOutRule::MaxDetectEarliest => {
            let mut all_targets: Vec<FaultId> = f0.to_vec();
            all_targets.extend(rest.iter().copied());
            let all_profiles = fsim.profiles(&si, t0, &all_targets, universe);
            let mut best: Option<(usize, usize)> = None; // (count, i)
            for i in 0..t0.len() {
                if !complete_at(i) {
                    continue;
                }
                let count = all_profiles
                    .iter()
                    .filter(|p| p.detected_by_prefix(i))
                    .count();
                if best.is_none_or(|(c, _)| count > c) {
                    best = Some((count, i));
                }
            }
            let u_so = best.map_or(t0.len() - 1, |(_, i)| i);
            let keyed = all_targets
                .iter()
                .zip(all_profiles.iter())
                .filter(|(_, p)| p.detected_by_prefix(u_so))
                .map(|(&f, p)| (p.earliest_detection().unwrap_or(u32::MAX), f))
                .collect();
            (u_so, keyed)
        }
    };

    // Order F_SO by earliest detection time. Downstream fault simulations
    // (Phase 2's omission checks in particular) group faults 63 at a time
    // and stop a group as soon as all its members are caught — grouping
    // faults with similar detection times lets most groups exit early.
    keyed.sort_unstable();
    let f_so: Vec<FaultId> = keyed.into_iter().map(|(_, f)| f).collect();

    Ok(Phase1Result {
        si_index,
        reused_selected,
        test: ScanTest::new(si, t0.prefix(u_so)),
        u_so,
        f_so,
    })
}

/// Scores the first `limit` candidates: how many of `sample` the test
/// `(candidate state, t0)` detects, all in one lane-packed simulation
/// ([`score_scan_ins`]; a repeated state is scored once). The counts — and
/// therefore the Step 2 selection — equal one simulation per candidate.
fn score_candidates(
    nl: &Netlist,
    universe: &FaultUniverse,
    t0: &Sequence,
    candidates: &[CombTest],
    sample: &[FaultId],
    limit: usize,
) -> Vec<usize> {
    let n = limit.min(candidates.len());
    let states: Vec<&State> = candidates[..n].iter().map(|c| &c.state).collect();
    score_scan_ins(nl, &states, t0, sample, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_atpg::random_t0;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_sim::{SeqFaultSim, V3};

    fn setup() -> (
        atspeed_circuit::Netlist,
        FaultUniverse,
        Sequence,
        Vec<CombTest>,
    ) {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let t0 = random_t0(&nl, 40, 5);
        // Candidate scan-in states: all 8 states with a fixed input part.
        let candidates: Vec<CombTest> = (0..8u32)
            .map(|st| {
                CombTest::new(
                    (0..3).map(|b| V3::from_bool(st & (1 << b) != 0)).collect(),
                    vec![V3::Zero; 4],
                )
            })
            .collect();
        (nl, u, t0, candidates)
    }

    fn split_f0(
        nl: &atspeed_circuit::Netlist,
        u: &FaultUniverse,
        t0: &Sequence,
    ) -> (Vec<FaultId>, Vec<FaultId>) {
        let mut fsim = SeqFaultSim::new(nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let init = vec![V3::X; nl.num_ffs()];
        let det = fsim.detect(&init, t0, &reps, u, false);
        let f0 = reps
            .iter()
            .zip(det.iter())
            .filter(|(_, &d)| d)
            .map(|(&f, _)| f)
            .collect();
        let rest = reps
            .iter()
            .zip(det.iter())
            .filter(|(_, &d)| !d)
            .map(|(&f, _)| f)
            .collect();
        (f0, rest)
    }

    #[test]
    fn scoped_job_keeps_its_score_spans_at_two_threads() {
        // A job traced through a span scope (`serve --job-trace-dir`) must
        // see the spans its workers open — Step 2 re-simulates the winner
        // on the full fault set and Step 3 profiles it, split by fault
        // word — not lose them to the process-wide tracer. The candidates
        // themselves are scored on the calling thread.
        let nl = atspeed_circuit::synth::generate(&atspeed_circuit::synth::SynthSpec::new(
            "p1", 6, 4, 8, 160, 2001,
        ))
        .unwrap();
        let u = FaultUniverse::full(&nl);
        let t0 = random_t0(&nl, 40, 5);
        let candidates: Vec<CombTest> = (0..8u32)
            .map(|k| {
                CombTest::new(
                    (0..nl.num_ffs())
                        .map(|b| V3::from_bool((k * 37) >> b & 1 == 1))
                        .collect(),
                    vec![V3::Zero; nl.num_pis()],
                )
            })
            .collect();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        assert!(
            rest.len() > 63,
            "the winner's simulations must span two fault words"
        );
        let selected = vec![false; candidates.len()];
        let run = |threads| {
            let cfg = Phase1Config {
                sim: SimConfig::with_threads(threads),
                ..Phase1Config::default()
            };
            select_scan_test(&nl, &u, &t0, &candidates, &f0, &rest, &selected, cfg).unwrap()
        };
        let tracer = std::sync::Arc::new(atspeed_trace::Tracer::new());
        tracer.set_enabled(true);
        let scoped = {
            let _scope = atspeed_trace::scope(tracer.clone());
            run(2)
        };
        let serial = run(1);
        assert_eq!(
            (scoped.si_index, scoped.u_so, &scoped.f_so),
            (serial.si_index, serial.u_so, &serial.f_so)
        );
        let json = tracer.chrome_trace_json();
        assert!(
            json.contains(r#""fsim.partition","cat":"atspeed","ph":"B""#),
            "{json}"
        );
    }

    #[test]
    fn f_si_is_superset_of_f0() {
        let (nl, u, t0, candidates) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        let selected = vec![false; candidates.len()];
        let r = select_scan_test(
            &nl,
            &u,
            &t0,
            &candidates,
            &f0,
            &rest,
            &selected,
            Phase1Config::default(),
        )
        .unwrap();
        assert!(r.f_so.len() >= f0.len(), "F_SI ⊇ F_0");
        for f in &f0 {
            assert!(r.f_so.contains(f));
        }
    }

    #[test]
    fn prefix_test_detects_all_of_f_si() {
        let (nl, u, t0, candidates) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        let selected = vec![false; candidates.len()];
        let r = select_scan_test(
            &nl,
            &u,
            &t0,
            &candidates,
            &f0,
            &rest,
            &selected,
            Phase1Config::default(),
        )
        .unwrap();
        // The guarantee of Step 3: τ_SO detects every fault in F_SI.
        let det = r.test.detects(&nl, &u, &r.f_so);
        assert!(det.iter().all(|&d| d), "τ_SO must keep F_SI detected");
        assert_eq!(r.test.seq.len(), r.u_so + 1);
        assert!(r.test.seq.len() <= t0.len());
    }

    #[test]
    fn u_so_is_minimal() {
        let (nl, u, t0, candidates) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        let selected = vec![false; candidates.len()];
        let r = select_scan_test(
            &nl,
            &u,
            &t0,
            &candidates,
            &f0,
            &rest,
            &selected,
            Phase1Config::default(),
        )
        .unwrap();
        if r.u_so > 0 {
            // One vector shorter must lose at least one fault of F_SI.
            let shorter = ScanTest::new(r.test.si.clone(), t0.prefix(r.u_so - 1));
            let det = shorter.detects(&nl, &u, &r.f_so);
            assert!(det.iter().any(|&d| !d), "u_SO was not minimal");
        }
    }

    #[test]
    fn prefers_unselected_candidate_on_equal_coverage() {
        let (nl, u, t0, candidates) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        // First run: find the naturally best candidate.
        let none = vec![false; candidates.len()];
        let first = select_scan_test(
            &nl,
            &u,
            &t0,
            &candidates,
            &f0,
            &rest,
            &none,
            Phase1Config::default(),
        )
        .unwrap();
        // Mark it selected; a second run must avoid it unless strictly
        // better than every unselected candidate.
        let mut marks = none.clone();
        marks[first.si_index] = true;
        let second = select_scan_test(
            &nl,
            &u,
            &t0,
            &candidates,
            &f0,
            &rest,
            &marks,
            Phase1Config::default(),
        )
        .unwrap();
        if second.si_index == first.si_index {
            assert!(second.reused_selected, "reuse must be flagged");
        }
    }

    #[test]
    fn i1_rule_never_shortens_below_i0_and_never_detects_less() {
        let (nl, u, t0, candidates) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        let selected = vec![false; candidates.len()];
        let r_i0 = select_scan_test(
            &nl,
            &u,
            &t0,
            &candidates,
            &f0,
            &rest,
            &selected,
            Phase1Config::default(),
        )
        .unwrap();
        let cfg_i1 = Phase1Config {
            scan_out_rule: ScanOutRule::MaxDetectEarliest,
            ..Phase1Config::default()
        };
        let r_i1 =
            select_scan_test(&nl, &u, &t0, &candidates, &f0, &rest, &selected, cfg_i1).unwrap();
        // Same SI choice (Step 2 is rule-independent).
        assert_eq!(r_i0.si_index, r_i1.si_index);
        // i1 only ever moves the scan-out later (the paper's observation
        // that it yields longer sequences) and never detects fewer faults.
        assert!(r_i1.u_so >= r_i0.u_so);
        assert!(r_i1.f_so.len() >= r_i0.f_so.len());
        let det = r_i1.test.detects(&nl, &u, &r_i1.f_so);
        assert!(det.iter().all(|&d| d), "i1's F_SO must be detected");
    }

    #[test]
    fn empty_candidates_are_an_error() {
        let (nl, u, t0, _) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        assert_eq!(
            select_scan_test(&nl, &u, &t0, &[], &f0, &rest, &[], Phase1Config::default())
                .unwrap_err(),
            CoreError::NoScanInCandidates
        );
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        let (nl, u, t0, candidates) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        let empty_t0 = Sequence::default();
        assert_eq!(
            select_scan_test(
                &nl,
                &u,
                &empty_t0,
                &candidates,
                &f0,
                &rest,
                &vec![false; candidates.len()],
                Phase1Config::default(),
            )
            .unwrap_err(),
            CoreError::EmptyT0
        );
        let short_marks = vec![false; candidates.len() - 1];
        assert_eq!(
            select_scan_test(
                &nl,
                &u,
                &t0,
                &candidates,
                &f0,
                &rest,
                &short_marks,
                Phase1Config::default(),
            )
            .unwrap_err(),
            CoreError::SelectedMarksTooShort {
                marks: candidates.len() - 1,
                candidates: candidates.len(),
            }
        );
    }

    #[test]
    fn candidate_limit_is_respected() {
        let (nl, u, t0, candidates) = setup();
        let (f0, rest) = split_f0(&nl, &u, &t0);
        let selected = vec![false; candidates.len()];
        let cfg = Phase1Config {
            max_candidates: Some(2),
            ..Phase1Config::default()
        };
        let r = select_scan_test(&nl, &u, &t0, &candidates, &f0, &rest, &selected, cfg).unwrap();
        assert!(r.si_index < 2);
    }
}
