//! Generation of the compact combinational test set `C`.
//!
//! The paper's procedure consumes a compact combinational test set that
//! achieves complete fault coverage (it cites the minimal-test-set work of
//! \[9\]). This module substitutes a classic three-stage flow:
//!
//! 1. **Random-pattern phase** — blocks of 64 random fully-specified tests
//!    are fault-simulated (PPSFP); each test that detects a still-alive
//!    fault is kept, and the phase stops after a configurable streak of
//!    yield-free blocks.
//! 2. **Deterministic phase** — [PODEM](crate::podem) targets every
//!    remaining fault, classifying it as tested, untestable, or aborted;
//!    don't-cares in generated tests are filled randomly and each new test
//!    is fault-simulated against the remaining list for free extra drops.
//! 3. **Reverse-order compaction** — the combined test list is
//!    fault-simulated in reverse order with fault dropping; tests that
//!    detect no still-alive fault are discarded, yielding the compact set.

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombFaultSim, CombTest, V3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::AtpgError;
use crate::podem::{Podem, PodemConfig, PodemOutcome};

/// Configuration for [`generate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombTsetConfig {
    /// RNG seed (random phase and don't-care fill).
    pub seed: u64,
    /// Stop the random phase after this many consecutive yield-free blocks.
    pub random_stale_blocks: usize,
    /// Hard cap on random blocks.
    pub random_max_blocks: usize,
    /// PODEM backtrack budget per fault.
    pub podem: PodemConfig,
    /// Whether to run reverse-order compaction at the end.
    pub reverse_compact: bool,
}

impl Default for CombTsetConfig {
    fn default() -> Self {
        CombTsetConfig {
            seed: 1,
            random_stale_blocks: 3,
            random_max_blocks: 200,
            podem: PodemConfig::default(),
            reverse_compact: true,
        }
    }
}

/// A compact combinational test set together with fault classification.
#[derive(Debug, Clone)]
pub struct CombTestSet {
    /// The tests, fully specified (no X values).
    pub tests: Vec<CombTest>,
    /// Faults proven combinationally untestable.
    pub untestable: Vec<FaultId>,
    /// Faults abandoned at the backtrack limit.
    pub aborted: Vec<FaultId>,
    /// Collapsed faults detected by `tests`.
    pub detected: usize,
}

impl CombTestSet {
    /// Number of tests (the paper's Table 1 column "comb tsts").
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Collapsed faults that are detectable at all (total minus proven
    /// untestable); complete coverage means `detected == detectable`.
    pub fn detectable(&self, universe: &FaultUniverse) -> usize {
        universe.num_collapsed() - self.untestable.len()
    }
}

/// Generates a compact combinational test set for the representatives of
/// `universe`.
///
/// # Errors
///
/// Returns an error when the universe has no representative faults.
pub fn generate(
    nl: &Netlist,
    universe: &FaultUniverse,
    cfg: &CombTsetConfig,
) -> Result<CombTestSet, AtpgError> {
    let reps: Vec<FaultId> = universe.representatives().to_vec();
    if reps.is_empty() {
        return Err(AtpgError::EmptyFaultList);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut sim = CombFaultSim::new(nl);
    let mut tests: Vec<CombTest> = Vec::new();
    let mut alive: Vec<FaultId> = reps.clone();

    // Phase 1: random patterns.
    let sp_random = atspeed_trace::span("comb.random-phase");
    let mut stale = 0usize;
    for _ in 0..cfg.random_max_blocks {
        if alive.is_empty() || stale >= cfg.random_stale_blocks {
            break;
        }
        let block: Vec<CombTest> = (0..64).map(|_| random_test(nl, &mut rng)).collect();
        let masks = sim.detect_block(&block, &alive, universe);
        // Greedily keep tests that detect still-alive faults.
        let mut kept_any = false;
        let mut dropped = vec![false; alive.len()];
        for (slot, test) in block.iter().enumerate() {
            let bit = 1u64 << slot;
            let mut first = true;
            for (k, &m) in masks.iter().enumerate() {
                if !dropped[k] && m & bit != 0 {
                    if first {
                        tests.push(test.clone());
                        kept_any = true;
                        first = false;
                    }
                    dropped[k] = true;
                }
            }
        }
        alive = alive
            .iter()
            .zip(dropped.iter())
            .filter(|(_, &d)| !d)
            .map(|(&f, _)| f)
            .collect();
        stale = if kept_any { 0 } else { stale + 1 };
    }

    drop(sp_random);

    // Phase 2: PODEM for the random-resistant residue.
    let sp_det = atspeed_trace::span("comb.deterministic-phase");
    let mut podem = Podem::new(nl, cfg.podem);
    let mut untestable = Vec::new();
    let mut aborted = Vec::new();
    while let Some(&target) = alive.first() {
        match podem.generate(universe.fault(target)) {
            PodemOutcome::Test(t) => {
                let filled = fill_x(nl, t, &mut rng);
                let masks = sim.detect_block(std::slice::from_ref(&filled), &alive, universe);
                let before = alive.len();
                alive = alive
                    .iter()
                    .zip(masks.iter())
                    .filter(|(_, &m)| m == 0)
                    .map(|(&f, _)| f)
                    .collect();
                // 3-valued detection is monotone under X-fill, so the target
                // must drop; the guard below only protects progress against
                // an engine bug.
                if alive.len() == before {
                    alive.retain(|&f| f != target);
                    aborted.push(target);
                } else {
                    tests.push(filled);
                }
            }
            PodemOutcome::Untestable => {
                untestable.push(target);
                alive.retain(|&f| f != target);
            }
            PodemOutcome::Aborted => {
                aborted.push(target);
                alive.retain(|&f| f != target);
            }
        }
    }

    drop(sp_det);

    // Phase 3: reverse-order compaction.
    if cfg.reverse_compact && !tests.is_empty() {
        let _sp = atspeed_trace::span("comb.reverse-compact");
        tests = reverse_order_compact(&mut sim, tests, &reps, universe);
    }

    let detected = sim
        .detect_all(&tests, &reps, universe)
        .iter()
        .filter(|&&d| d)
        .count();
    Ok(CombTestSet {
        tests,
        untestable,
        aborted,
        detected,
    })
}

/// Reverse-order fault-simulation compaction: keep a test only if it
/// detects a fault no later-ordered kept test detects.
fn reverse_order_compact(
    sim: &mut CombFaultSim<'_>,
    tests: Vec<CombTest>,
    reps: &[FaultId],
    universe: &FaultUniverse,
) -> Vec<CombTest> {
    let mut kept_rev: Vec<CombTest> = Vec::new();
    let mut alive: Vec<FaultId> = reps.to_vec();
    for t in tests.iter().rev() {
        if alive.is_empty() {
            break;
        }
        let masks = sim.detect_block(std::slice::from_ref(t), &alive, universe);
        let detects_new = masks.iter().any(|&m| m != 0);
        if detects_new {
            alive = alive
                .iter()
                .zip(masks.iter())
                .filter(|(_, &m)| m == 0)
                .map(|(&f, _)| f)
                .collect();
            kept_rev.push(t.clone());
        }
    }
    kept_rev.reverse();
    kept_rev
}

fn random_test(nl: &Netlist, rng: &mut StdRng) -> CombTest {
    CombTest::new(
        (0..nl.num_ffs())
            .map(|_| V3::from_bool(rng.gen()))
            .collect(),
        (0..nl.num_pis())
            .map(|_| V3::from_bool(rng.gen()))
            .collect(),
    )
}

/// Fills the don't-cares of a PODEM test with random binary values: the
/// paper's scan-in vectors must be fully specified.
fn fill_x(nl: &Netlist, t: CombTest, rng: &mut StdRng) -> CombTest {
    let _ = nl;
    CombTest::new(
        t.state
            .into_iter()
            .map(|v| {
                if v == V3::X {
                    V3::from_bool(rng.gen())
                } else {
                    v
                }
            })
            .collect(),
        t.inputs
            .into_iter()
            .map(|v| {
                if v == V3::X {
                    V3::from_bool(rng.gen())
                } else {
                    v
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::synth::{generate as synth, SynthSpec};

    #[test]
    fn s27_reaches_complete_coverage() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let set = generate(&nl, &u, &CombTsetConfig::default()).unwrap();
        assert!(set.untestable.is_empty(), "s27 has no redundant faults");
        assert_eq!(set.detected, u.num_collapsed(), "complete coverage");
        assert!(!set.is_empty());
        // s27's minimal complete sets have a handful of tests.
        assert!(set.len() <= 16, "set of {} tests is not compact", set.len());
    }

    #[test]
    fn tests_are_fully_specified() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let set = generate(&nl, &u, &CombTsetConfig::default()).unwrap();
        for t in &set.tests {
            assert!(t.state.iter().all(|v| v.is_known()));
            assert!(t.inputs.iter().all(|v| v.is_known()));
        }
    }

    #[test]
    fn reverse_compaction_never_reduces_coverage() {
        let nl = synth(&SynthSpec::new("ct", 4, 2, 6, 90, 3)).unwrap();
        let u = FaultUniverse::full(&nl);
        let uncompacted_cfg = CombTsetConfig {
            reverse_compact: false,
            ..CombTsetConfig::default()
        };
        let raw = generate(&nl, &u, &uncompacted_cfg).unwrap();
        let compacted = generate(&nl, &u, &CombTsetConfig::default()).unwrap();
        assert_eq!(raw.detected, compacted.detected, "coverage preserved");
        assert!(
            compacted.len() <= raw.len(),
            "compaction cannot grow the set"
        );
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let a = generate(&nl, &u, &CombTsetConfig::default()).unwrap();
        let b = generate(&nl, &u, &CombTsetConfig::default()).unwrap();
        assert_eq!(a.tests, b.tests);
    }

    #[test]
    fn different_seed_changes_tests() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let a = generate(&nl, &u, &CombTsetConfig::default()).unwrap();
        let cfg = CombTsetConfig {
            seed: 99,
            ..CombTsetConfig::default()
        };
        let b = generate(&nl, &u, &cfg).unwrap();
        assert!(a.tests != b.tests || a.len() == b.len());
    }

    /// SAT-ATPG stays PODEM's differential reference: its tests for every
    /// collapsed s27 fault, don't-cares filled the way [`generate`] fills
    /// PODEM's, must reach complete coverage too.
    #[test]
    fn sat_atpg_also_reaches_complete_coverage() {
        use crate::sat_atpg::{SatAtpg, SatAtpgConfig, SatAtpgOutcome};
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let sat = SatAtpg::new(&nl, SatAtpgConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let tests: Vec<CombTest> = u
            .representatives()
            .iter()
            .map(|&fid| match sat.generate(u.fault(fid)) {
                SatAtpgOutcome::Test(t) => fill_x(&nl, t, &mut rng),
                other => panic!("{}: {other:?}", u.fault(fid).describe(&nl)),
            })
            .collect();
        let detected = CombFaultSim::new(&nl).detect_all(&tests, u.representatives(), &u);
        assert!(detected.iter().all(|&d| d), "SAT tests miss a fault");
    }

    #[test]
    fn synthetic_circuit_high_coverage() {
        let nl = synth(&SynthSpec::new("cov", 5, 3, 8, 150, 17)).unwrap();
        let u = FaultUniverse::full(&nl);
        let set = generate(&nl, &u, &CombTsetConfig::default()).unwrap();
        let detectable = set.detectable(&u);
        // Complete coverage of everything not proven untestable, modulo
        // aborted faults.
        assert!(set.detected + set.aborted.len() >= detectable);
    }
}
