//! Partial-scan evaluation (extension).
//!
//! The paper closes with "the proposed procedure can be extended to the
//! case of partial-scan circuits". This module provides the machinery for
//! that extension: a [`PartialScan`] configuration selects which flip-flops
//! are on the scan chain; scan-in controls and scan-out observes only
//! those, non-scanned flip-flops start each test in the unknown state, and
//! the clock-cycle cost model charges scan operations at the *chain length*
//! rather than the full state-variable count:
//!
//! `N_cyc = (k+1)·N_chain + Σ L(T_j)`.
//!
//! Shorter chains make scan cheaper but give up controllability and
//! observability — evaluating a test set under several chain selections
//! (see the `partial_scan` example) exposes exactly that trade-off.

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{FinalObserve, SeqFaultSim, Sequence, State, V3};

use crate::test::TestSet;

/// A partial-scan configuration: which flip-flops are on the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialScan {
    scanned: Vec<bool>,
}

impl PartialScan {
    /// Creates a configuration from a per-flip-flop membership mask.
    pub fn new(scanned: Vec<bool>) -> Self {
        PartialScan { scanned }
    }

    /// Full scan over `n` flip-flops.
    pub fn full(n: usize) -> Self {
        PartialScan {
            scanned: vec![true; n],
        }
    }

    /// Scans the first `k` of `n` flip-flops (a simple deterministic chain
    /// selection useful for sweeps).
    pub fn first_k(n: usize, k: usize) -> Self {
        PartialScan {
            scanned: (0..n).map(|i| i < k).collect(),
        }
    }

    /// The membership mask.
    pub fn scanned(&self) -> &[bool] {
        &self.scanned
    }

    /// Number of flip-flops on the chain.
    pub fn chain_length(&self) -> usize {
        self.scanned.iter().filter(|&&s| s).count()
    }

    /// Whether every flip-flop is scanned.
    pub fn is_full(&self) -> bool {
        self.scanned.iter().all(|&s| s)
    }

    /// Restricts a full-width scan-in state to this chain: non-scanned
    /// flip-flops become X (their value is not controllable by scan).
    pub fn restrict_state(&self, state: &[V3]) -> Vec<V3> {
        assert_eq!(state.len(), self.scanned.len(), "state width mismatch");
        state
            .iter()
            .zip(self.scanned.iter())
            .map(|(&v, &s)| if s { v } else { V3::X })
            .collect()
    }

    /// Clock cycles to apply `set` under this chain:
    /// `(k+1)·N_chain + Σ L(T_j)`.
    pub fn clock_cycles(&self, set: &TestSet) -> usize {
        if set.is_empty() {
            return 0;
        }
        (set.len() + 1) * self.chain_length() + set.total_vectors()
    }

    /// Which of `faults` the set detects under this chain: scan-in values
    /// of non-scanned flip-flops are forced to X, and only chain members
    /// are observed at scan-out. Primary outputs are observed every cycle
    /// as usual.
    pub fn detects(
        &self,
        nl: &Netlist,
        universe: &FaultUniverse,
        set: &TestSet,
        faults: &[FaultId],
    ) -> Vec<bool> {
        assert_eq!(self.scanned.len(), nl.num_ffs(), "mask width mismatch");
        let inits: Vec<State> = set
            .tests
            .iter()
            .map(|t| self.restrict_state(&t.si))
            .collect();
        let runs: Vec<(&State, &Sequence)> = inits
            .iter()
            .zip(&set.tests)
            .map(|(si, t)| (si, &t.seq))
            .collect();
        SeqFaultSim::new(nl).detect_union(
            &runs,
            faults,
            universe,
            FinalObserve::PartialState(&self.scanned),
        )
    }

    /// Convenience: detected count.
    pub fn count_detected(
        &self,
        nl: &Netlist,
        universe: &FaultUniverse,
        set: &TestSet,
        faults: &[FaultId],
    ) -> usize {
        self.detects(nl, universe, set, faults)
            .iter()
            .filter(|&&d| d)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_atpg::comb_tset::{self, CombTsetConfig};
    use atspeed_circuit::bench_fmt::s27;

    fn setup() -> (atspeed_circuit::Netlist, FaultUniverse, TestSet) {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let c = comb_tset::generate(&nl, &u, &CombTsetConfig::default())
            .unwrap()
            .tests;
        let set = TestSet::from_comb_tests(&c);
        (nl, u, set)
    }

    #[test]
    fn full_chain_matches_full_scan_semantics() {
        let (nl, u, set) = setup();
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let pscan = PartialScan::full(nl.num_ffs());
        assert!(pscan.is_full());
        assert_eq!(pscan.chain_length(), 3);
        let partial = pscan.detects(&nl, &u, &set, &reps);
        let full = set.detects(&nl, &u, &reps);
        assert_eq!(partial, full);
        assert_eq!(pscan.clock_cycles(&set), set.clock_cycles(nl.num_ffs()));
    }

    #[test]
    fn shorter_chains_cost_less_and_cover_less() {
        let (nl, u, set) = setup();
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let full = PartialScan::full(3);
        let half = PartialScan::first_k(3, 1);
        assert!(half.clock_cycles(&set) < full.clock_cycles(&set));
        let cov_full = full.count_detected(&nl, &u, &set, &reps);
        let cov_half = half.count_detected(&nl, &u, &set, &reps);
        assert!(cov_half <= cov_full, "{cov_half} > {cov_full}");
    }

    #[test]
    fn restrict_state_masks_unscanned_ffs() {
        let pscan = PartialScan::new(vec![true, false, true]);
        let full = vec![V3::One, V3::One, V3::Zero];
        assert_eq!(pscan.restrict_state(&full), vec![V3::One, V3::X, V3::Zero]);
        assert_eq!(pscan.chain_length(), 2);
    }

    #[test]
    fn empty_chain_still_observes_primary_outputs() {
        let (nl, u, set) = setup();
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let none = PartialScan::first_k(3, 0);
        let cov = none.count_detected(&nl, &u, &set, &reps);
        // No scan at all: detection only through POs from unknown state —
        // far below full scan, but the engine must still run.
        let full_cov = PartialScan::full(3).count_detected(&nl, &u, &set, &reps);
        assert!(cov <= full_cov);
        assert_eq!(none.clock_cycles(&set), set.total_vectors());
    }
}
