//! Scan tests, test sets, and the clock-cycle cost model.

use std::fmt;

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombTest, FinalObserve, SeqFaultSim, Sequence, State, V3};

/// A scan-based test `τ = (SI, T)`: a scan-in state followed by a
/// primary-input sequence applied at speed. The expected scan-out vector
/// `SO` is not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanTest {
    /// The scan-in state `SI` (one value per flip-flop).
    pub si: State,
    /// The primary-input sequence `T`, applied with the functional clock.
    pub seq: Sequence,
}

impl ScanTest {
    /// Creates a test from a scan-in state and input sequence.
    pub fn new(si: State, seq: Sequence) -> Self {
        ScanTest { si, seq }
    }

    /// Converts a combinational test `c = (c_s, c_v)` into the equivalent
    /// single-vector scan test `τ = (c_s, (c_v))`.
    pub fn from_comb(c: &CombTest) -> Self {
        ScanTest {
            si: c.state.clone(),
            seq: std::iter::once(c.inputs.clone()).collect(),
        }
    }

    /// The length `L(T)` of the primary-input sequence.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the input sequence is empty (a degenerate test).
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Which of `faults` this test detects (primary outputs each cycle plus
    /// the scan-out at the end).
    pub fn detects(&self, nl: &Netlist, universe: &FaultUniverse, faults: &[FaultId]) -> Vec<bool> {
        SeqFaultSim::new(nl).detect(&self.si, &self.seq, faults, universe, true)
    }
}

/// Average and range of primary-input sequence lengths — the paper's
/// Table 4 ("at-speed test lengths") statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtSpeedStats {
    /// Mean sequence length.
    pub average: f64,
    /// Shortest sequence.
    pub min: usize,
    /// Longest sequence.
    pub max: usize,
}

impl fmt::Display for AtSpeedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ({}-{})", self.average, self.min, self.max)
    }
}

/// An ordered set of scan tests.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TestSet {
    /// The tests, applied in order.
    pub tests: Vec<ScanTest>,
}

impl TestSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TestSet::default()
    }

    /// Creates a set from tests.
    pub fn from_tests(tests: Vec<ScanTest>) -> Self {
        TestSet { tests }
    }

    /// Builds the paper's \[4\]-style initial test set: one single-vector
    /// scan test per combinational test.
    pub fn from_comb_tests(comb: &[CombTest]) -> Self {
        TestSet {
            tests: comb.iter().map(ScanTest::from_comb).collect(),
        }
    }

    /// Number of tests `k`.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the set has no tests.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Total number of primary-input vectors `Σ L(T_j)`.
    pub fn total_vectors(&self) -> usize {
        self.tests.iter().map(ScanTest::len).sum()
    }

    /// The clock-cycle cost model of the paper:
    /// `N_cyc = (k+1)·N_SV + Σ L(T_j)`.
    ///
    /// `k+1` scan operations are required to apply `k` tests (scan-out of
    /// each test overlaps the scan-in of the next); each primary-input
    /// vector takes one functional cycle. An empty set costs nothing.
    pub fn clock_cycles(&self, n_sv: usize) -> usize {
        if self.tests.is_empty() {
            return 0;
        }
        (self.tests.len() + 1) * n_sv + self.total_vectors()
    }

    /// Sequence-length statistics (the paper's Table 4).
    ///
    /// Returns `None` for an empty set.
    pub fn at_speed_stats(&self) -> Option<AtSpeedStats> {
        if self.tests.is_empty() {
            return None;
        }
        let lens: Vec<usize> = self.tests.iter().map(ScanTest::len).collect();
        let sum: usize = lens.iter().sum();
        Some(AtSpeedStats {
            average: sum as f64 / lens.len() as f64,
            min: *lens.iter().min().expect("non-empty"),
            max: *lens.iter().max().expect("non-empty"),
        })
    }

    /// Which of `faults` the whole set detects (union over tests, with
    /// fault dropping across tests; [`SeqFaultSim::detect_union`]).
    pub fn detects(&self, nl: &Netlist, universe: &FaultUniverse, faults: &[FaultId]) -> Vec<bool> {
        let runs: Vec<(&State, &Sequence)> = self.tests.iter().map(|t| (&t.si, &t.seq)).collect();
        SeqFaultSim::new(nl).detect_union(&runs, faults, universe, FinalObserve::FullState)
    }

    /// Count of detected faults among `faults`.
    pub fn count_detected(
        &self,
        nl: &Netlist,
        universe: &FaultUniverse,
        faults: &[FaultId],
    ) -> usize {
        self.detects(nl, universe, faults)
            .iter()
            .filter(|&&d| d)
            .count()
    }
}

impl FromIterator<ScanTest> for TestSet {
    fn from_iter<I: IntoIterator<Item = ScanTest>>(iter: I) -> Self {
        TestSet {
            tests: iter.into_iter().collect(),
        }
    }
}

impl Extend<ScanTest> for TestSet {
    fn extend<I: IntoIterator<Item = ScanTest>>(&mut self, iter: I) {
        self.tests.extend(iter);
    }
}

/// Fills any X values in a state with a deterministic default (zero), used
/// where the paper requires fully-specified scan-in vectors.
pub fn specify_state(state: &State) -> State {
    state
        .iter()
        .map(|&v| if v == V3::X { V3::Zero } else { v })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_sim::vectors::parse_values;

    fn t(si: &str, rows: &[&str]) -> ScanTest {
        ScanTest::new(
            parse_values(si),
            rows.iter().map(|r| parse_values(r)).collect(),
        )
    }

    #[test]
    fn cost_model_matches_paper_formula() {
        // k tests, N_SV state variables: (k+1)*N_SV + total vectors.
        let set = TestSet::from_tests(vec![t("000", &["0000", "1111"]), t("111", &["1010"])]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_vectors(), 3);
        assert_eq!(set.clock_cycles(3), 3 * 3 + 3);
        assert_eq!(set.clock_cycles(21), 3 * 21 + 3);
        assert_eq!(TestSet::new().clock_cycles(21), 0);
    }

    #[test]
    fn single_test_cost_is_two_scans_plus_sequence() {
        // The paper's best case: one test of length N costs 2*N_SV + N.
        let set = TestSet::from_tests(vec![t("000", &["0000"; 10])]);
        assert_eq!(set.clock_cycles(3), 2 * 3 + 10);
    }

    #[test]
    fn at_speed_stats() {
        let set = TestSet::from_tests(vec![
            t("000", &["0000"; 7]),
            t("111", &["1010"]),
            t("010", &["0101", "1111"]),
        ]);
        let st = set.at_speed_stats().unwrap();
        assert_eq!(st.min, 1);
        assert_eq!(st.max, 7);
        assert!((st.average - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(st.to_string(), "3.33 (1-7)");
        assert!(TestSet::new().at_speed_stats().is_none());
    }

    #[test]
    fn from_comb_produces_length_one_tests() {
        let c = CombTest::new(parse_values("010"), parse_values("1100"));
        let t = ScanTest::from_comb(&c);
        assert_eq!(t.len(), 1);
        assert_eq!(t.si, parse_values("010"));
        assert_eq!(t.seq.vector(0), &parse_values("1100")[..]);
    }

    #[test]
    fn set_detection_is_union_of_test_detection() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let t1 = t("000", &["1010"]);
        let t2 = t("111", &["0101"]);
        let set = TestSet::from_tests(vec![t1.clone(), t2.clone()]);
        let d1 = t1.detects(&nl, &u, &reps);
        let d2 = t2.detects(&nl, &u, &reps);
        let ds = set.detects(&nl, &u, &reps);
        for k in 0..reps.len() {
            assert_eq!(ds[k], d1[k] || d2[k], "fault {k}");
        }
        assert_eq!(
            set.count_detected(&nl, &u, &reps),
            ds.iter().filter(|&&d| d).count()
        );
    }

    #[test]
    fn specify_state_fills_x() {
        let s = parse_values("1x0x");
        assert_eq!(specify_state(&s), parse_values("1000"));
    }

    #[test]
    fn collect_and_extend() {
        let mut set: TestSet = vec![t("000", &["0000"])].into_iter().collect();
        set.extend(vec![t("111", &["1111"])]);
        assert_eq!(set.len(), 2);
    }
}
