//! Phase 4: static compaction by test combining (the procedure of the
//! paper's reference \[4\]).
//!
//! Combining two tests `τ_i = (SI_i, T_i)` and `τ_j = (SI_j, T_j)` removes
//! the scan-out of `τ_i` and the scan-in of `τ_j`, producing
//! `τ_{i,j} = (SI_i, T_i T_j)` — one fewer scan operation. A combination is
//! accepted only if it does not reduce fault coverage; the procedure stops
//! when no pair of tests can be combined.
//!
//! The coverage check follows \[4\]'s practical form: every fault is
//! assigned to the first test that detects it, and a combination is
//! accepted when the combined test still detects all faults assigned to
//! both constituents. Standalone, this module also provides the paper's
//! main baseline ([`baseline4`]): start from one single-vector scan test
//! per member of the combinational test set `C` and compact.

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombTest, EndStates, ParallelFsim, Sequence, SimConfig, V3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::test::{ScanTest, TestSet};

/// Statistics from a [`combine_tests`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StaticCompactionStats {
    /// Accepted combinations (each removes one scan operation).
    pub combinations: usize,
    /// Combination attempts (fault simulations of a candidate pair).
    pub attempts: usize,
    /// Sweeps over the pair space.
    pub rounds: usize,
    /// Combinations that only succeeded thanks to a transfer sequence.
    pub transfer_combinations: usize,
    /// Failed-pair cache entries alive at termination. Entries involving a
    /// consumed test are purged on every accepted combination, so this is
    /// bounded by `live·(live−1)` for `live` surviving tests.
    pub failed_pairs: usize,
    /// Verdicts *not* memoized because the cache was at
    /// [`CombineConfig::max_failed_pairs`]. The memo only skips
    /// re-simulation, so dropping entries trades attempts for memory — the
    /// final test set is unchanged.
    pub failed_pairs_dropped: usize,
}

/// Configuration for [`combine_tests_cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombineConfig {
    /// Transfer-sequence insertion (\[7\]); `None` disables it.
    pub transfer: Option<TransferConfig>,
    /// Threading for the coverage checks.
    pub sim: SimConfig,
    /// Upper bound on failed-pair memo entries. The memo exists only to
    /// skip re-simulating pairs already known not to combine; once full,
    /// further verdicts are dropped (counted in
    /// [`StaticCompactionStats::failed_pairs_dropped`]) and those pairs are
    /// simply re-checked on later sweeps. Results are identical at any cap;
    /// only `attempts` can grow. The default (2^20 entries, 16 MiB of keys
    /// and versions) covers a ~1000-test set without dropping anything.
    pub max_failed_pairs: usize,
}

impl Default for CombineConfig {
    fn default() -> Self {
        CombineConfig {
            transfer: None,
            sim: SimConfig::default(),
            max_failed_pairs: 1 << 20,
        }
    }
}

/// Configuration for transfer-sequence insertion, the improvement of the
/// paper's reference \[7\]: when plainly concatenating `T_i T_j` loses a
/// fault (the state after `T_i` differs too much from `SI_j`), a short
/// *transfer sequence* `R` between them — `(SI_i, T_i R T_j)` — can steer
/// the circuit into a workable state and still save the scan operation,
/// as long as `L(R) < N_SV` keeps the combination profitable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferConfig {
    /// Longest transfer sequence tried (bounded by `N_SV − 1`; longer ones
    /// cannot beat a scan operation).
    pub max_len: usize,
    /// Random candidate transfer sequences tried per length.
    pub candidates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            max_len: 4,
            candidates: 3,
            seed: 7,
        }
    }
}

/// Greedily combines test pairs until no further combination is accepted.
///
/// `targets` is the fault set whose coverage must be preserved (normally
/// the set detected by `set`). Tests combine in both directions
/// (`T_i T_j` under `SI_i`, and `T_j T_i` under `SI_j`).
pub fn combine_tests(
    nl: &Netlist,
    universe: &FaultUniverse,
    set: &TestSet,
    targets: &[FaultId],
) -> (TestSet, StaticCompactionStats) {
    combine_tests_cfg(nl, universe, set, targets, CombineConfig::default())
}

/// [`combine_tests`] with every knob exposed: transfer-sequence insertion
/// (\[7\]: when a plain combination fails, short connecting sequences are
/// tried before giving the pair up), threading for the coverage checks,
/// and the failed-pair memo cap that bounds Phase 4 memory on large test
/// sets.
///
/// A pair check never re-simulates `T_i`: the end state of every assigned
/// fault after `T_i` is recorded once per version of test `i`
/// ([`ParallelFsim::end_states`]), and each candidate simulates only `T_j`
/// (or `R·T_j`) from that record, stopping at the first 63-fault word that
/// loses a fault ([`ParallelFsim::detects_all_from`]). Every simulation
/// slot evolves independently, so the verdicts — and therefore the final
/// set and the statistics — equal those of simulating the whole
/// concatenation, at any thread count.
pub fn combine_tests_cfg(
    nl: &Netlist,
    universe: &FaultUniverse,
    set: &TestSet,
    targets: &[FaultId],
    cfg: CombineConfig,
) -> (TestSet, StaticCompactionStats) {
    let transfer = cfg.transfer;
    let mut stats = StaticCompactionStats::default();
    if set.len() <= 1 {
        return (set.clone(), stats);
    }
    let mut rng = StdRng::seed_from_u64(transfer.map_or(0, |t| t.seed));
    let fsim = ParallelFsim::new(nl, cfg.sim);

    // Assign each target fault to the first test that detects it.
    // `assigned` lists the faults some test detects, grouped by test; an
    // entry holds its faults as positions in that list, which is also the
    // fault list of every end-of-`T_i` record, so a record is indexed
    // directly.
    let mut assigned: Vec<FaultId> = Vec::new();
    let mut entries: Vec<Option<(ScanTest, Vec<usize>)>> = Vec::with_capacity(set.len());
    {
        let mut alive: Vec<FaultId> = targets.to_vec();
        for t in &set.tests {
            let first = assigned.len();
            if !alive.is_empty() {
                let det = fsim.detect(&t.si, &t.seq, &alive, universe, true);
                let mut missed = Vec::with_capacity(alive.len());
                for (&f, d) in alive.iter().zip(det) {
                    if d {
                        assigned.push(f);
                    } else {
                        missed.push(f);
                    }
                }
                alive = missed;
            }
            entries.push(Some((t.clone(), (first..assigned.len()).collect())));
        }
    }

    // Greedy sweeps: try to merge j into i (both directions) until a full
    // sweep accepts nothing. A failed pair is only retried after one of its
    // members changed (version counters), so later sweeps cost almost
    // nothing.
    let mut versions = vec![0u32; entries.len()];
    let mut failed: std::collections::HashMap<(usize, usize), (u32, u32)> =
        std::collections::HashMap::new();
    // The end-of-`T_i` record of one version of one test, built at the
    // first pair of `i` the memo does not skip.
    let mut record: Option<((usize, u32), EndStates)> = None;
    loop {
        stats.rounds += 1;
        let mut changed = false;
        for i in 0..entries.len() {
            if entries[i].is_none() {
                continue;
            }
            for j in 0..entries.len() {
                if i == j || entries[i].is_none() || entries[j].is_none() {
                    continue;
                }
                if failed.get(&(i, j)) == Some(&(versions[i], versions[j])) {
                    continue;
                }
                let (ti, fi) = entries[i].as_ref().expect("checked above");
                let (tj, fj) = entries[j].as_ref().expect("checked above");
                let key = (i, versions[i]);
                if record.as_ref().map(|(k, _)| *k) != Some(key) {
                    let rec = fsim.end_states(&ti.si, &ti.seq, &assigned, universe);
                    record = Some((key, rec));
                }
                let (_, rec) = record.as_ref().expect("built above");
                // Candidate: scan in SI_i, run T_i then T_j, scan out.
                let mut both: Vec<usize> = fi.clone();
                both.extend(fj.iter().copied());
                let check = |suffix: &Sequence| fsim.detects_all_from(rec, suffix, &both, universe);
                stats.attempts += 1;
                let mut tail = check(&tj.seq).then(|| tj.seq.clone());
                // [7]-style fallback: steer the state with a short transfer
                // sequence R, profitable while L(R) < N_SV.
                if tail.is_none() {
                    if let Some(tc) = transfer {
                        let max_len = tc.max_len.min(nl.num_ffs().saturating_sub(1));
                        'transfer: for len in 1..=max_len {
                            for _ in 0..tc.candidates.max(1) {
                                let r: Sequence = (0..len)
                                    .map(|_| {
                                        (0..nl.num_pis())
                                            .map(|_| V3::from_bool(rng.gen()))
                                            .collect::<Vec<_>>()
                                    })
                                    .collect();
                                let with_r = r.concat(&tj.seq);
                                stats.attempts += 1;
                                if check(&with_r) {
                                    tail = Some(with_r);
                                    stats.transfer_combinations += 1;
                                    break 'transfer;
                                }
                            }
                        }
                    }
                }
                if let Some(tail) = tail {
                    let combined = ScanTest::new(ti.si.clone(), ti.seq.concat(&tail));
                    entries[i] = Some((combined, both));
                    entries[j] = None;
                    versions[i] += 1;
                    versions[j] += 1;
                    // `j` can never be combined again: every cached verdict
                    // involving it is permanently dead weight. Without this
                    // purge the map grows with the square of the consumed
                    // tests across sweeps on large sets.
                    failed.retain(|&(a, b), _| a != j && b != j);
                    stats.combinations += 1;
                    changed = true;
                } else if failed.len() < cfg.max_failed_pairs || failed.contains_key(&(i, j)) {
                    failed.insert((i, j), (versions[i], versions[j]));
                } else {
                    stats.failed_pairs_dropped += 1;
                }
            }
        }
        if !changed {
            break;
        }
    }
    stats.failed_pairs = failed.len();

    let tests: Vec<ScanTest> = entries.into_iter().flatten().map(|(t, _)| t).collect();
    (TestSet::from_tests(tests), stats)
}

/// Result of the \[4\] baseline flow.
#[derive(Debug, Clone)]
pub struct Baseline4Result {
    /// The initial test set (one single-vector test per member of `C`).
    pub initial: TestSet,
    /// The statically compacted test set.
    pub compacted: TestSet,
    /// Compaction statistics.
    pub stats: StaticCompactionStats,
}

/// Runs the paper's main baseline: the static compaction of \[4\] applied
/// to the combinational-test-set-based initial test set.
pub fn baseline4(
    nl: &Netlist,
    universe: &FaultUniverse,
    comb_tests: &[CombTest],
    targets: &[FaultId],
) -> Baseline4Result {
    let initial = TestSet::from_comb_tests(comb_tests);
    let (compacted, stats) = combine_tests(nl, universe, &initial, targets);
    Baseline4Result {
        initial,
        compacted,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_atpg::comb_tset::{self, CombTsetConfig};
    use atspeed_circuit::bench_fmt::s27;

    fn setup() -> (atspeed_circuit::Netlist, FaultUniverse, Vec<CombTest>) {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let c = comb_tset::generate(&nl, &u, &CombTsetConfig::default())
            .unwrap()
            .tests;
        (nl, u, c)
    }

    /// Combining with the default transfer-sequence insertion.
    fn transfer_cfg() -> CombineConfig {
        CombineConfig {
            transfer: Some(TransferConfig::default()),
            ..CombineConfig::default()
        }
    }

    #[test]
    fn combining_preserves_coverage() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let initial = TestSet::from_comb_tests(&c);
        let before = initial.count_detected(&nl, &u, &targets);
        let (compacted, stats) = combine_tests(&nl, &u, &initial, &targets);
        let after = compacted.count_detected(&nl, &u, &targets);
        assert!(after >= before, "coverage dropped: {before} -> {after}");
        assert!(compacted.len() <= initial.len());
        assert_eq!(
            compacted.total_vectors(),
            initial.total_vectors(),
            "combining never changes the total vector count"
        );
        assert_eq!(stats.combinations, initial.len() - compacted.len());
    }

    #[test]
    fn combining_reduces_clock_cycles() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let r = baseline4(&nl, &u, &c, &targets);
        let n_sv = nl.num_ffs();
        assert!(
            r.compacted.clock_cycles(n_sv) <= r.initial.clock_cycles(n_sv),
            "compaction must not increase application time"
        );
        // s27's compact sets leave room for at least one combination.
        assert!(r.stats.combinations > 0, "expected some combining on s27");
    }

    #[test]
    fn single_test_set_is_a_fixpoint() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let one = TestSet::from_tests(vec![ScanTest::from_comb(&c[0])]);
        let (compacted, stats) = combine_tests(&nl, &u, &one, &targets);
        assert_eq!(compacted.len(), 1);
        assert_eq!(stats.combinations, 0);
    }

    #[test]
    fn average_sequence_length_grows() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let r = baseline4(&nl, &u, &c, &targets);
        if r.stats.combinations > 0 {
            let init_avg = r.initial.at_speed_stats().unwrap().average;
            let comp_avg = r.compacted.at_speed_stats().unwrap().average;
            assert!(comp_avg > init_avg, "combining lengthens sequences");
        }
    }

    #[test]
    fn transfer_sequences_only_help() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let initial = TestSet::from_comb_tests(&c);
        let (plain, _) = combine_tests(&nl, &u, &initial, &targets);
        let (with_transfer, stats) = combine_tests_cfg(&nl, &u, &initial, &targets, transfer_cfg());
        // Transfer insertion can only increase combinations, so the final
        // set is never larger; coverage is preserved either way.
        assert!(with_transfer.len() <= plain.len());
        let before = initial.count_detected(&nl, &u, &targets);
        let after = with_transfer.count_detected(&nl, &u, &targets);
        assert!(after >= before);
        // Every transfer-based combination was also counted as a
        // combination.
        assert!(stats.transfer_combinations <= stats.combinations);
    }

    #[test]
    fn transfer_cost_stays_profitable() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let initial = TestSet::from_comb_tests(&c);
        let (with_transfer, _) = combine_tests_cfg(&nl, &u, &initial, &targets, transfer_cfg());
        let n_sv = nl.num_ffs();
        assert!(
            with_transfer.clock_cycles(n_sv) <= initial.clock_cycles(n_sv),
            "a transfer sequence shorter than N_SV always saves cycles"
        );
    }

    #[test]
    fn failed_pair_cache_stays_bounded_by_live_pairs() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let initial = TestSet::from_comb_tests(&c);
        let (compacted, stats) = combine_tests(&nl, &u, &initial, &targets);
        assert!(
            stats.combinations > 0,
            "needs accepted combinations to exercise the purge"
        );
        // Every surviving cache entry must name two live tests; before the
        // purge existed, entries keyed on consumed indices accumulated and
        // this bound was exceeded whenever compaction shrank the set.
        let live = compacted.len();
        assert!(
            stats.failed_pairs <= live * live.saturating_sub(1),
            "{} cached pairs for {} live tests",
            stats.failed_pairs,
            live
        );
    }

    #[test]
    fn failed_pair_cap_changes_memory_not_results() {
        let (nl, u, c) = setup();
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let initial = TestSet::from_comb_tests(&c);
        let (unbounded, free_stats) =
            combine_tests_cfg(&nl, &u, &initial, &targets, CombineConfig::default());
        assert_eq!(free_stats.failed_pairs_dropped, 0);
        for cap in [0, 1, 4] {
            let (capped, stats) = combine_tests_cfg(
                &nl,
                &u,
                &initial,
                &targets,
                CombineConfig {
                    max_failed_pairs: cap,
                    ..CombineConfig::default()
                },
            );
            // The memo only skips re-simulation: the compacted set and the
            // accepted combinations are identical at any cap.
            assert_eq!(capped, unbounded, "cap={cap}");
            assert_eq!(stats.combinations, free_stats.combinations, "cap={cap}");
            assert!(stats.failed_pairs <= cap, "cap={cap}");
            // Re-checks can only add attempts, never remove them.
            assert!(stats.attempts >= free_stats.attempts, "cap={cap}");
            if free_stats.failed_pairs > cap {
                assert!(stats.failed_pairs_dropped > 0, "cap={cap}");
            }
        }
    }

    /// A synthetic circuit and a set of short random scan tests whose
    /// detected faults span at least three 63-fault words.
    fn wide_setup() -> (
        atspeed_circuit::Netlist,
        FaultUniverse,
        TestSet,
        Vec<FaultId>,
    ) {
        use atspeed_circuit::synth::{generate, SynthSpec};
        let nl = generate(&SynthSpec::new("p4", 6, 3, 10, 120, 41)).unwrap();
        let u = FaultUniverse::full(&nl);
        let mut rng = StdRng::seed_from_u64(41);
        let mut bits = |n: usize| -> Vec<V3> { (0..n).map(|_| V3::from_bool(rng.gen())).collect() };
        let tests: Vec<ScanTest> = (0..16)
            .map(|t| {
                let si = bits(nl.num_ffs());
                let seq: Sequence = (0..1 + t % 3).map(|_| bits(nl.num_pis())).collect();
                ScanTest::new(si, seq)
            })
            .collect();
        let set = TestSet::from_tests(tests);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let targets: Vec<FaultId> = reps
            .iter()
            .zip(set.detects(&nl, &u, &reps))
            .filter_map(|(&f, d)| d.then_some(f))
            .collect();
        assert!(targets.len() > 2 * 63, "{} targets", targets.len());
        (nl, u, set, targets)
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let (nl, u, set, targets) = wide_setup();
        for transfer in [None, Some(TransferConfig::default())] {
            let run = |threads: usize| {
                let cfg = CombineConfig {
                    transfer,
                    sim: SimConfig::with_threads(threads),
                    ..CombineConfig::default()
                };
                combine_tests_cfg(&nl, &u, &set, &targets, cfg)
            };
            let (one, one_stats) = run(1);
            assert!(one_stats.combinations > 0, "{one_stats:?}");
            assert_eq!(transfer.is_some(), one_stats.transfer_combinations > 0);
            for threads in [2, 4] {
                let (out, stats) = run(threads);
                assert_eq!(out, one, "threads={threads} transfer={transfer:?}");
                assert_eq!(stats, one_stats, "threads={threads} transfer={transfer:?}");
            }
        }
    }

    /// Pair checks run their words in waves of `threads` words, so the work
    /// done at a fixed thread count repeats exactly.
    #[test]
    fn work_repeats_exactly_at_two_threads() {
        let (nl, u, set, targets) = wide_setup();
        let cfg = CombineConfig {
            sim: SimConfig::with_threads(2),
            ..CombineConfig::default()
        };
        let gate_evals = || {
            let scope = atspeed_sim::stats::scoped();
            combine_tests_cfg(&nl, &u, &set, &targets, cfg);
            scope.report().totals().gate_evals
        };
        let first = gate_evals();
        assert!(first > 0);
        assert_eq!(gate_evals(), first);
    }

    #[test]
    fn empty_set_is_handled() {
        let (nl, u, _) = setup();
        let (compacted, stats) = combine_tests(&nl, &u, &TestSet::new(), &[]);
        assert!(compacted.is_empty());
        assert_eq!(stats.attempts, 0);
    }
}
