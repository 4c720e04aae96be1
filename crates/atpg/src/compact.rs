//! Static compaction of test sequences by vector omission.
//!
//! This is the sequence-compaction primitive the paper's Phase 2 uses (it
//! cites \[8\]): omit as many vectors as possible from a sequence without
//! losing the detection of any target fault. Every candidate omission is
//! verified by fault simulation of the shortened sequence.
//!
//! Three techniques keep this affordable on long sequences:
//!
//! - **Chunked sweeps** (delta-debugging style): large blocks are tried
//!   before single vectors, so highly compactable sequences collapse in
//!   `O(log L)` rounds.
//! - **Prefix invariance**: every sweep runs strictly *descending* through
//!   positions, so the prefix below the current attempt is never modified
//!   within a sweep. A fault whose primary-output detection time (from a
//!   detection profile computed at sweep start) lies strictly inside that
//!   prefix is guaranteed to stay detected, and only the remaining faults —
//!   late detections and faults observed solely at scan-out — need to be
//!   re-simulated per attempt. This cuts most attempts from the full fault
//!   set to a handful of parallel-fault groups.
//! - **Resumed checks**: the sweep-start pass also records every cycle
//!   boundary of the prefix ([`SweepRecord`]: the good state and the few
//!   faults whose state differs), so an attempt that omits `[t, end)`
//!   simulates only the vectors after the window, from boundary `t`. The
//!   next sweep's start pass resumes the record from the lowest position
//!   the sweep accepted, below which the sequence did not change.
//!
//! With `cfg.sim.threads > 1` each sweep-start pass is fault-sharded
//! through [`ParallelFsim::sweep_start`] and [`ParallelFsim::sweep_resume`];
//! the sweep itself stays strictly sequential, and every accept check runs
//! on one [`SeqFaultSim`]. The result is therefore identical at any thread
//! count.

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::fsim_seq::DetectionProfile;
use atspeed_sim::{
    FinalObserve, ParallelFsim, SeqFaultSim, Sequence, SimConfig, State, SweepRecord,
};

/// Configuration for [`omit_vectors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmissionConfig {
    /// Single-vector sweeps after the chunked rounds. `0` runs the chunked
    /// rounds only (when `chunked` is set; otherwise nothing at all).
    pub max_passes: usize,
    /// Whether to run the chunked (delta-debugging style) rounds first.
    pub chunked: bool,
    /// Upper bound on fault-simulation attempts (profile simulations at
    /// sweep starts count too).
    pub attempt_budget: usize,
    /// Threading for the sweep-start profiles, which are fault-sharded;
    /// the accept checks always run on one thread. Results are identical at
    /// any thread count.
    pub sim: SimConfig,
    /// Memory budget for per-sweep detection profiles: each fault's
    /// state-diff bitmap keeps at most this many 64-bit words (cycles
    /// `0..64 * profile_state_words`). Bits past the budget are dropped
    /// and counted in [`OmissionStats::truncated_profile_bits`]; dropping
    /// only *under*-claims detection, so the sweep stays sound (it keeps
    /// vectors it might otherwise have removed, never loses coverage).
    /// `usize::MAX` (the default) keeps every bit.
    pub profile_state_words: usize,
}

impl Default for OmissionConfig {
    fn default() -> Self {
        OmissionConfig {
            max_passes: 2,
            chunked: true,
            attempt_budget: usize::MAX,
            sim: SimConfig::default(),
            profile_state_words: usize::MAX,
        }
    }
}

/// Statistics returned by [`omit_vectors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OmissionStats {
    /// Fault-simulation attempts performed (including per-sweep profiling).
    pub attempts: usize,
    /// Vectors removed.
    pub removed: usize,
    /// Sweeps run (each sweep simulates one detection profile).
    pub sweeps: usize,
    /// Attempts whose removal was accepted.
    pub accepted: usize,
    /// State-diff bits dropped from sweep profiles by
    /// [`OmissionConfig::profile_state_words`]. The cap applies per fault
    /// by absolute cycle index, so this count is deterministic — identical
    /// across thread counts and partitionings, like every other field.
    pub truncated_profile_bits: u64,
}

/// Omits vectors from `seq` while preserving detection of every fault in
/// `targets` (fault simulation from `init`, observing primary outputs every
/// cycle and, when `observe_final_state` is set, the state after the last
/// cycle).
///
/// Returns the shortened sequence and statistics. The result always detects
/// every target fault that the input sequence detects; callers normally
/// pass exactly the detected set (the paper's `F_SO`). The result is
/// independent of `cfg.sim.threads`.
pub fn omit_vectors(
    nl: &Netlist,
    universe: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    targets: &[FaultId],
    observe_final_state: bool,
    cfg: OmissionConfig,
) -> (Sequence, OmissionStats) {
    let mut stats = OmissionStats::default();
    if seq.len() <= 1 || targets.is_empty() {
        return (seq.clone(), stats);
    }
    let _sp = atspeed_trace::span("omission.omit_vectors");
    let started = std::time::Instant::now();

    let schedule = chunk_schedule(seq.len(), cfg);
    let out = run_sweeps(
        nl,
        universe,
        init,
        seq,
        targets,
        observe_final_state,
        cfg,
        &schedule,
        &mut stats,
        Accept::Resume,
    );

    let m = atspeed_trace::metrics::global();
    m.counter("omission/attempts").add(stats.attempts as u64);
    m.counter("omission/accepted").add(stats.accepted as u64);
    m.counter("omission/removed").add(stats.removed as u64);
    m.counter("omission/truncated_profile_bits")
        .add(stats.truncated_profile_bits);
    m.counter("omission/wall_us")
        .add(started.elapsed().as_micros() as u64);
    (out, stats)
}

/// A divergence found by [`check_omission_differential`]: between the
/// omission sweep at one thread and at some other thread count, or between
/// the one-thread sweep and its from-scan-in reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmissionDivergence {
    /// Thread count whose result disagreed with the one-thread result; `1`
    /// when the one-thread result disagreed with the reference.
    pub threads: usize,
    /// What disagreed, human-readable.
    pub detail: String,
}

impl std::fmt::Display for OmissionDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.threads == 1 {
            write!(
                f,
                "omission diverged from its from-scan-in reference: {}",
                self.detail
            )
        } else {
            write!(
                f,
                "omission at {} threads diverged from 1 thread: {}",
                self.threads, self.detail
            )
        }
    }
}

impl std::error::Error for OmissionDivergence {}

/// Runs [`omit_vectors`] at one thread, checks it against the reference
/// sweep whose accept checks simulate each whole candidate from the
/// scan-in state and whose sweep starts profile from scratch, and runs it
/// again at each thread count in `threads`: the compacted sequence and
/// every stat must be bit-for-bit identical, although the sweep-start
/// passes of the multi-thread runs are fault-sharded across partitions.
///
/// Returns the one-thread reference result on success. This is the
/// omission-differential entry point of the `atspeed-verify` fuzzer.
///
/// # Errors
///
/// Returns the first [`OmissionDivergence`] found.
#[allow(clippy::too_many_arguments)]
pub fn check_omission_differential(
    nl: &Netlist,
    universe: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    targets: &[FaultId],
    observe_final_state: bool,
    cfg: OmissionConfig,
    threads: &[usize],
) -> Result<(Sequence, OmissionStats), OmissionDivergence> {
    let serial_cfg = OmissionConfig {
        sim: SimConfig::with_threads(1),
        ..cfg
    };
    let (ref_seq, ref_stats) = omit_vectors(
        nl,
        universe,
        init,
        seq,
        targets,
        observe_final_state,
        serial_cfg,
    );
    let (scan_seq, scan_stats) = omit_from_scan_in(
        nl,
        universe,
        init,
        seq,
        targets,
        observe_final_state,
        serial_cfg,
    );
    if scan_seq != ref_seq || scan_stats != ref_stats {
        return Err(OmissionDivergence {
            threads: 1,
            detail: format!(
                "resumed sweep keeps {} vectors with {ref_stats:?}, the reference {} with \
                 {scan_stats:?}",
                ref_seq.len(),
                scan_seq.len()
            ),
        });
    }
    for &t in threads {
        if t <= 1 {
            continue;
        }
        let par_cfg = OmissionConfig {
            sim: SimConfig::with_threads(t),
            ..cfg
        };
        let (par_seq, par_stats) = omit_vectors(
            nl,
            universe,
            init,
            seq,
            targets,
            observe_final_state,
            par_cfg,
        );
        if par_seq != ref_seq {
            return Err(OmissionDivergence {
                threads: t,
                detail: format!(
                    "sequences differ: serial keeps {} vectors, parallel keeps {}",
                    ref_seq.len(),
                    par_seq.len()
                ),
            });
        }
        if par_stats != ref_stats {
            return Err(OmissionDivergence {
                threads: t,
                detail: format!("stats differ: serial {ref_stats:?}, parallel {par_stats:?}"),
            });
        }
    }
    Ok((ref_seq, ref_stats))
}

/// [`omit_vectors`] with every accept check simulating the whole candidate
/// from the scan-in state and every sweep start profiled from scratch.
fn omit_from_scan_in(
    nl: &Netlist,
    universe: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    targets: &[FaultId],
    observe_final_state: bool,
    cfg: OmissionConfig,
) -> (Sequence, OmissionStats) {
    let mut stats = OmissionStats::default();
    if seq.len() <= 1 || targets.is_empty() {
        return (seq.clone(), stats);
    }
    let schedule = chunk_schedule(seq.len(), cfg);
    let out = run_sweeps(
        nl,
        universe,
        init,
        seq,
        targets,
        observe_final_state,
        cfg,
        &schedule,
        &mut stats,
        Accept::FromScanIn,
    );
    (out, stats)
}

/// Sweep schedule: halving chunk sizes down to 2, then `max_passes`
/// single-vector passes. `max_passes: 0` schedules no single passes.
fn chunk_schedule(len: usize, cfg: OmissionConfig) -> Vec<usize> {
    let mut chunks: Vec<usize> = Vec::new();
    if cfg.chunked {
        let mut c = len / 2;
        while c >= 2 {
            chunks.push(c);
            c /= 2;
        }
    }
    chunks.extend(std::iter::repeat_n(1, cfg.max_passes));
    chunks
}

/// The fixed descending position list of one sweep: `len - chunk` stepping
/// down by `chunk` to 0 inclusive. Computed once at sweep start; removals
/// accepted mid-sweep change only each later attempt's `end` clipping and
/// feasibility, never the positions themselves.
fn positions(len: usize, chunk: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(len / chunk.max(1) + 2);
    let mut t = len.saturating_sub(chunk);
    loop {
        out.push(t);
        if t == 0 {
            break;
        }
        t = t.saturating_sub(chunk);
    }
    out
}

/// The sweep-start detection profile, ordered for suffix lookup: the check
/// set of an attempt at position `t` is the suffix of faults whose
/// `po_detect` key is `>= t`. A pure function of `t` and the sweep-start
/// profile — independent of which removals the sweep later accepts — so it
/// is built once per sweep. Faults are held as positions in the target
/// list, which is also the fault list of the sweep record.
struct SweepPlan {
    keys: Vec<u32>,
    ordered: Vec<usize>,
}

impl SweepPlan {
    fn new(targets: &[FaultId], profiles: &[DetectionProfile]) -> Self {
        let mut keyed: Vec<(u32, FaultId, usize)> = profiles
            .iter()
            .enumerate()
            .map(|(k, p)| (p.po_detect.unwrap_or(u32::MAX), targets[k], k))
            .collect();
        keyed.sort_unstable();
        SweepPlan {
            keys: keyed.iter().map(|&(key, _, _)| key).collect(),
            ordered: keyed.into_iter().map(|(_, _, k)| k).collect(),
        }
    }

    /// Faults that must be re-simulated for an attempt at position `t`:
    /// everything not safely detected strictly inside the untouched prefix.
    fn check_set(&self, t: usize) -> &[usize] {
        let first = self.keys.partition_point(|&k| k < t as u32);
        &self.ordered[first..]
    }
}

/// The window `[t, end)` an attempt at position `t` would remove, and
/// whether removing it is feasible (non-empty, leaves at least one
/// vector). Both depend on the live length when the position is reached.
fn attempt_window(t: usize, chunk: usize, len: usize) -> (usize, bool) {
    let end = (t + chunk).min(len);
    (end, end > t && len - (end - t) >= 1)
}

/// How the accept checks of a sweep simulate a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Accept {
    /// From the sweep record's boundary at the omitted window, over the
    /// rest of the sequence; each sweep start resumes the previous
    /// sweep's record from its lowest accepted position.
    Resume,
    /// The whole candidate from the scan-in state, with every sweep start
    /// profiled from scratch: the reference the resumed checks must equal.
    FromScanIn,
}

/// Runs the sweeps of `schedule` over `seq`, strictly descending through
/// positions within each sweep.
#[allow(clippy::too_many_arguments)]
fn run_sweeps(
    nl: &Netlist,
    universe: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    targets: &[FaultId],
    observe_final_state: bool,
    cfg: OmissionConfig,
    schedule: &[usize],
    stats: &mut OmissionStats,
    accept: Accept,
) -> Sequence {
    let pfsim = ParallelFsim::new(nl, cfg.sim);
    let mut fsim = SeqFaultSim::new(nl);
    let observe = FinalObserve::scan_out(observe_final_state);
    let ids = |check: &[usize]| -> Vec<FaultId> { check.iter().map(|&k| targets[k]).collect() };
    let mut current = seq.clone();
    let mut record: Option<SweepRecord> = None;
    // The lowest position the previous sweep accepted (its length when it
    // accepted nothing): the sequence is unchanged below it.
    let mut low = current.len();
    for &chunk in schedule {
        if stats.attempts >= cfg.attempt_budget || current.len() <= 1 {
            break;
        }
        // The schedule is computed from the original length; clamp against
        // the live sequence so every position of the sweep can host a
        // feasible omission instead of spending the profile attempt on a
        // sweep that cannot remove anything.
        let chunk = chunk.min(current.len() - 1);
        let _sp = atspeed_trace::span("omission.sweep");
        stats.sweeps += 1;
        // Profile the sweep's starting sequence (fault-sharded when
        // `cfg.sim` has threads). `po_detect` times anchor the
        // prefix-invariance rule; this simulation counts against the
        // attempt budget.
        stats.attempts += 1;
        let plan = match accept {
            Accept::Resume => {
                let rec = match record.as_mut() {
                    Some(rec) => {
                        pfsim.sweep_resume(rec, &current, low, universe);
                        rec
                    }
                    None => record.insert(pfsim.sweep_start(
                        init,
                        &current,
                        targets,
                        universe,
                        cfg.profile_state_words,
                    )),
                };
                stats.truncated_profile_bits += rec.truncated_bits();
                SweepPlan::new(targets, rec.profiles())
            }
            Accept::FromScanIn => {
                let (profiles, truncated) = pfsim.profiles_bounded(
                    init,
                    &current,
                    targets,
                    universe,
                    cfg.profile_state_words,
                );
                stats.truncated_profile_bits += truncated;
                SweepPlan::new(targets, &profiles)
            }
        };

        low = current.len();
        let mut changed = false;
        for &t in &positions(current.len(), chunk) {
            if stats.attempts >= cfg.attempt_budget {
                break;
            }
            let (end, feasible) = attempt_window(t, chunk, current.len());
            if !feasible {
                continue;
            }
            debug_assert!(
                end <= current.len() && current.len() - (end - t) >= 1,
                "attempts must be spent on feasible omissions only"
            );
            let check = plan.check_set(t);
            stats.attempts += 1;
            let from_scan_in = |fsim: &mut SeqFaultSim| {
                let mut candidate = current.clone();
                candidate.remove_range(t, end);
                fsim.detects_all(init, &candidate, &ids(check), universe, observe_final_state)
            };
            let ok = check.is_empty()
                || match (accept, record.as_ref()) {
                    (Accept::Resume, Some(rec)) => {
                        let ok = fsim
                            .detects_all_resumed(rec, &current, t, end, check, universe, observe);
                        if cfg!(debug_assertions) {
                            // The reference check, counted apart so that
                            // debug builds report the same work.
                            let _quiet = atspeed_sim::stats::scoped();
                            assert_eq!(
                                ok,
                                from_scan_in(&mut fsim),
                                "resumed check at {t}..{end} disagrees with the whole candidate"
                            );
                        }
                        ok
                    }
                    _ => from_scan_in(&mut fsim),
                };
            if ok {
                stats.removed += end - t;
                stats.accepted += 1;
                current.remove_range(t, end);
                low = t;
                changed = true;
            }
        }
        if chunk == 1 && !changed {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_sim::vectors::parse_values;
    use atspeed_sim::V3;

    fn padded_sequence() -> (Sequence, State) {
        // A sequence with obviously redundant repeated vectors.
        let rows = [
            "1010", "1010", "1010", "0110", "0110", "0001", "0001", "1111", "0000", "0000",
        ];
        let seq: Sequence = rows.iter().map(|r| parse_values(r)).collect();
        (seq, parse_values("010"))
    }

    fn detected_targets(
        nl: &atspeed_circuit::Netlist,
        u: &FaultUniverse,
        init: &State,
        seq: &Sequence,
    ) -> Vec<FaultId> {
        let mut fsim = SeqFaultSim::new(nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let det = fsim.detect(init, seq, &reps, u, true);
        reps.iter()
            .zip(det.iter())
            .filter(|(_, &d)| d)
            .map(|(&f, _)| f)
            .collect()
    }

    #[test]
    fn omission_differential_one_vs_many_threads() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        let (short, stats) = check_omission_differential(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
            &[2, 3],
        )
        .unwrap();
        assert!(short.len() < seq.len(), "padded sequence must compact");
        assert_eq!(stats.removed, seq.len() - short.len());
    }

    #[test]
    fn omission_divergence_displays_thread_count() {
        let e = OmissionDivergence {
            threads: 4,
            detail: "sequences differ".to_owned(),
        };
        let s = e.to_string();
        assert!(s.contains("4 threads"), "{s}");
        assert!(s.contains("sequences differ"), "{s}");
    }

    #[test]
    fn omission_preserves_detection() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        assert!(!targets.is_empty());
        let (short, stats) = omit_vectors(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
        );
        assert!(short.len() <= seq.len());
        assert_eq!(stats.removed, seq.len() - short.len());
        let mut fsim = SeqFaultSim::new(&nl);
        let det_after = fsim.detect(&init, &short, &targets, &u, true);
        assert!(det_after.iter().all(|&d| d), "no target fault lost");
    }

    #[test]
    fn removes_redundant_duplicates() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        let (short, _) = omit_vectors(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
        );
        assert!(
            short.len() < seq.len(),
            "duplicate-laden sequence must shrink ({} -> {})",
            seq.len(),
            short.len()
        );
    }

    #[test]
    fn matches_unoptimized_reference_on_random_sequences() {
        // Differential test for the prefix-invariance optimization: a naive
        // single-vector descending sweep that re-simulates *all* targets
        // must leave the result detecting the same faults (final lengths
        // may differ only if acceptance decisions differ, which soundness
        // forbids — both must accept exactly when coverage is preserved,
        // so with the same sweep schedule the results must be identical).
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let seq: Sequence = crate::seq_tgen::random_t0(&nl, 24, 77)
            .iter()
            .cloned()
            .collect();
        let init = parse_values("000");
        let targets = detected_targets(&nl, &u, &init, &seq);
        if targets.is_empty() {
            return;
        }
        // Optimized: singles-only, one pass.
        let cfg = OmissionConfig {
            max_passes: 1,
            chunked: false,
            ..OmissionConfig::default()
        };
        let (fast, _) = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
        // Reference: naive descending single sweep.
        let mut fsim = SeqFaultSim::new(&nl);
        let mut reference = seq.clone();
        let mut t = reference.len();
        while t > 0 {
            t -= 1;
            if reference.len() == 1 {
                break;
            }
            let mut cand = reference.clone();
            cand.remove(t);
            if fsim
                .detect(&init, &cand, &targets, &u, true)
                .iter()
                .all(|&d| d)
            {
                reference = cand;
            }
        }
        assert_eq!(fast, reference, "optimized sweep diverged from reference");
    }

    #[test]
    fn respects_attempt_budget() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let cfg = OmissionConfig {
            attempt_budget: 3,
            ..OmissionConfig::default()
        };
        let (_, stats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
        assert!(stats.attempts <= 3);
    }

    #[test]
    fn bounded_profiles_keep_results_and_count_truncation() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        // A cycling input pattern, long enough that first-sweep profiles
        // spill past one 64-bit word (random vectors tend to PO-detect
        // every fault before cycle 64, which ends its profiling early).
        let rows: Vec<String> = (0..80).map(|t| format!("{:04b}", t % 16)).collect();
        let seq: Sequence = rows.iter().map(|r| parse_values(r)).collect();
        let init = parse_values("000");
        // The full representative set keeps scan-out-only and undetected
        // faults in play — their state diffs run past cycle 64, where a
        // PO-detected fault stops being profiled.
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let (full, full_stats) = omit_vectors(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
        );
        assert_eq!(full_stats.truncated_profile_bits, 0);
        let capped_cfg = OmissionConfig {
            profile_state_words: 1,
            ..OmissionConfig::default()
        };
        let (capped, capped_stats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, capped_cfg);
        // Sweep planning keys on `po_detect` only, so capping the
        // state-diff bitmaps bounds memory without changing any accept
        // decision — the compacted sequence is identical.
        assert_eq!(capped, full);
        assert!(
            capped_stats.truncated_profile_bits > 0,
            "an 80-cycle sweep must drop bits past word 0"
        );
        // The truncation count is deterministic across thread counts.
        let par_cfg = OmissionConfig {
            profile_state_words: 1,
            sim: SimConfig::with_threads(3),
            ..OmissionConfig::default()
        };
        let (par, par_stats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, par_cfg);
        assert_eq!(par, capped);
        assert_eq!(
            par_stats.truncated_profile_bits,
            capped_stats.truncated_profile_bits
        );
    }

    /// s27's representatives keep their state differences through an
    /// 80-cycle sweep, so the record passes its cap of one state per target
    /// and thins; the sweeps still return the sequence and every stat of
    /// the reference whose checks simulate each whole candidate.
    #[test]
    fn a_sweep_past_the_record_cap_thins_it_and_keeps_results() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let rows: Vec<String> = (0..80).map(|t| format!("{:04b}", t % 16)).collect();
        let seq: Sequence = rows.iter().map(|r| parse_values(r)).collect();
        let init = parse_values("000");
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let rec = ParallelFsim::new(&nl, SimConfig::default()).sweep_start(
            &init,
            &seq,
            &targets,
            &u,
            usize::MAX,
        );
        assert!(
            rec.stride() > 1,
            "the record must thin: stride {}",
            rec.stride()
        );
        assert!(rec.recorded_states() <= targets.len());
        for profile_state_words in [usize::MAX, 1] {
            let cfg = OmissionConfig {
                profile_state_words,
                ..OmissionConfig::default()
            };
            let resumed = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
            let reference = omit_from_scan_in(&nl, &u, &init, &seq, &targets, true, cfg);
            assert_eq!(
                resumed, reference,
                "profile_state_words={profile_state_words}"
            );
        }
    }

    /// The sweep-start passes shard one word per partition and every accept
    /// check runs on the calling thread: the sequence, the stats and the
    /// gate-words are the same at 1, 2 and 4 threads, and equal the
    /// reference's sequence and stats.
    #[test]
    fn results_and_work_are_identical_at_any_thread_count() {
        use atspeed_circuit::synth::{generate, SynthSpec};
        let nl = generate(&SynthSpec::new("omit", 6, 3, 10, 160, 5)).unwrap();
        let u = FaultUniverse::full(&nl);
        let seq: Sequence = crate::seq_tgen::random_t0(&nl, 40, 9)
            .iter()
            .cloned()
            .collect();
        let init: State = (0..nl.num_ffs())
            .map(|f| V3::from_bool(f % 3 == 0))
            .collect();
        let targets = detected_targets(&nl, &u, &init, &seq);
        assert!(targets.len() > 2 * 63, "{} targets", targets.len());
        let run = |threads: usize| {
            let cfg = OmissionConfig {
                sim: SimConfig::with_threads(threads),
                ..OmissionConfig::default()
            };
            let scope = atspeed_sim::stats::scoped();
            let out = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
            (out, scope.report().totals().gate_evals)
        };
        let one = run(1);
        assert!(one.0 .1.accepted > 0, "{:?}", one.0 .1);
        let reference = omit_from_scan_in(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
        );
        assert_eq!(one.0, reference);
        for threads in [2, 4] {
            assert_eq!(run(threads), one, "threads={threads}");
        }
    }

    #[test]
    fn single_vector_sequence_is_untouched() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let seq: Sequence = std::iter::once(parse_values("1010")).collect();
        let (short, stats) = omit_vectors(
            &nl,
            &u,
            &parse_values("000"),
            &seq,
            u.representatives(),
            true,
            OmissionConfig::default(),
        );
        assert_eq!(short.len(), 1);
        assert_eq!(stats.attempts, 0);
    }

    #[test]
    fn empty_target_set_is_a_noop() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let (short, stats) =
            omit_vectors(&nl, &u, &init, &seq, &[], true, OmissionConfig::default());
        assert_eq!(short.len(), seq.len());
        assert_eq!(stats.attempts, 0);
    }

    #[test]
    fn chunked_and_plain_agree_on_coverage() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        let mut fsim = SeqFaultSim::new(&nl);
        for chunked in [false, true] {
            let cfg = OmissionConfig {
                chunked,
                ..OmissionConfig::default()
            };
            let (short, _) = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
            let ok = fsim.detect(&init, &short, &targets, &u, true);
            assert!(ok.iter().all(|&d| d), "chunked={chunked}");
        }
    }

    #[test]
    fn all_x_vectors_do_not_crash() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let seq: Sequence = (0..4).map(|_| vec![V3::X; 4]).collect();
        let (short, _) = omit_vectors(
            &nl,
            &u,
            &vec![V3::X; 3],
            &seq,
            &[],
            false,
            OmissionConfig::default(),
        );
        assert_eq!(short.len(), 4);
    }

    #[test]
    fn max_passes_zero_is_honored() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        // No chunked rounds, no single passes: nothing runs at all.
        let cfg = OmissionConfig {
            max_passes: 0,
            chunked: false,
            ..OmissionConfig::default()
        };
        let (short, stats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
        assert_eq!(short, seq, "no sweeps scheduled, sequence untouched");
        assert_eq!(stats.attempts, 0);
        assert_eq!(stats.sweeps, 0);
        // Chunked-only run: only chunk sizes >= 2 may execute.
        let cfg = OmissionConfig {
            max_passes: 0,
            chunked: true,
            ..OmissionConfig::default()
        };
        let (short, stats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
        assert!(stats.sweeps <= chunk_schedule(seq.len(), cfg).len());
        assert!(short.len() <= seq.len());
        let mut fsim = SeqFaultSim::new(&nl);
        let det = fsim.detect(&init, &short, &targets, &u, true);
        assert!(det.iter().all(|&d| d));
    }

    #[test]
    fn oversized_chunks_are_clamped_to_feasible_attempts() {
        // A schedule entry larger than the live sequence is clamped so the
        // sweep still tries feasible removals instead of spending its
        // profile attempt on a sweep that cannot remove anything.
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        let cfg = OmissionConfig::default();
        let mut stats = OmissionStats::default();
        let out = run_sweeps(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            cfg,
            &[seq.len() + 5],
            &mut stats,
            Accept::Resume,
        );
        assert_eq!(stats.sweeps, 1);
        assert!(
            stats.attempts >= 2,
            "a clamped sweep must attempt at least one feasible omission, got {stats:?}"
        );
        assert!(!out.is_empty());
    }

    #[test]
    fn every_sweep_attempts_at_least_one_feasible_omission() {
        // With the per-sweep clamp, each sweep's first position (t =
        // len - chunk) is always feasible, so an unexhausted budget implies
        // attempts >= 2 * sweeps (profile + at least one omission try).
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        let (_, stats) = omit_vectors(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
        );
        assert!(stats.sweeps >= 1);
        assert!(
            stats.attempts >= 2 * stats.sweeps,
            "sweep ran without a feasible attempt: {stats:?}"
        );
        assert_eq!(
            stats.removed,
            seq.len() - /* final len */ {
            let (short, _) = omit_vectors(
                &nl,
                &u,
                &init,
                &seq,
                &targets,
                true,
                OmissionConfig::default(),
            );
            short.len()
        }
        );
    }

    #[test]
    fn parallel_matches_serial_on_padded_sequence() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets = detected_targets(&nl, &u, &init, &seq);
        let (serial, sstats) = omit_vectors(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            true,
            OmissionConfig::default(),
        );
        for threads in [2, 4] {
            let cfg = OmissionConfig {
                sim: SimConfig::with_threads(threads),
                ..OmissionConfig::default()
            };
            let (par, pstats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, cfg);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(pstats.attempts, sstats.attempts, "threads={threads}");
            assert_eq!(pstats.removed, sstats.removed, "threads={threads}");
            assert_eq!(pstats.accepted, sstats.accepted, "threads={threads}");
            assert_eq!(pstats.sweeps, sstats.sweeps, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_serial_under_budget_exhaustion() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let (seq, init) = padded_sequence();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        for budget in [1, 2, 3, 5, 8] {
            let serial_cfg = OmissionConfig {
                attempt_budget: budget,
                ..OmissionConfig::default()
            };
            let (serial, sstats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, serial_cfg);
            let par_cfg = OmissionConfig {
                attempt_budget: budget,
                sim: SimConfig::with_threads(3),
                ..OmissionConfig::default()
            };
            let (par, pstats) = omit_vectors(&nl, &u, &init, &seq, &targets, true, par_cfg);
            assert_eq!(par, serial, "budget={budget}");
            assert_eq!(pstats.attempts, sstats.attempts, "budget={budget}");
            assert!(pstats.attempts <= budget);
        }
    }
}
