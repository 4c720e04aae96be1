//! End-to-end coverage oracle: independent re-verification of the
//! coverage a pipeline run *claims*.
//!
//! Every phase of the procedure reports coverage through its own engine
//! configuration — Phase 1's profile-driven selection, Phase 2's
//! prefix-invariance-optimized omission checks, Phase 3's detection
//! matrix, Phase 4's pair checks — and the perf-oriented paths (compiled
//! kernel, parallel sharding, sharded omission profiles) all promise
//! bit-identical results. The oracle takes none of that on faith: it
//! re-fault-simulates the final test set with the serial reference engine,
//! one test at a time (no sharding, no detection-profile shortcuts), and
//! cross-checks the claims. Per-test claims are simulated over the full
//! claimed list with no dropping of any kind; for the whole-set claim a
//! fault is retired once a test is confirmed to detect it — that *is* the
//! union the claim asserts (detection is monotone over tests, so the
//! outcome is independent of test order), and it keeps the oracle tractable
//! on circuits whose claims run to thousands of faults. The checks:
//!
//! - **Phase 1–2 claim** — `τ_seq` (a per-test claim) detects every fault
//!   the iterate loop reported for it;
//! - **Phase 3 claim** — the topped-up set detects every fault the pipeline
//!   reports as finally detected;
//! - **Phase 4 invariant** — combining never decreases coverage, so the
//!   compacted set must still detect the same claimed set.
//!
//! [`Pipeline`](crate::pipeline::Pipeline) runs these checks itself when
//! built with `.verify(true)`; the `atspeed-verify` crate re-exports
//! [`verify_test_set`] for standalone use (the `verifier` binary and the
//! `tables --verify` flag).

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::SeqFaultSim;

use crate::error::CoreError;
use crate::test::TestSet;

/// The coverage a pipeline run claims for one test set, to be checked by
/// [`verify_test_set`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClaimedCoverage {
    /// Faults the whole set is claimed to detect (the pipeline's
    /// `final_detected` list).
    pub detected: Vec<FaultId>,
    /// Per-test claims: `(test index, faults that test alone detects)`.
    /// The pipeline claims `τ_seq`'s detections this way (test index 0 of
    /// the initial set).
    pub per_test: Vec<(usize, Vec<FaultId>)>,
}

impl ClaimedCoverage {
    /// A claim that the set detects `detected`, with no per-test detail.
    pub fn set_only(detected: Vec<FaultId>) -> Self {
        ClaimedCoverage {
            detected,
            per_test: Vec::new(),
        }
    }
}

/// What the oracle actually re-simulated and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Number of claimed faults re-checked against the whole set.
    pub set_faults_checked: usize,
    /// Number of per-test claimed faults re-checked.
    pub per_test_faults_checked: usize,
    /// Fault simulations performed (one per test per claim list).
    pub simulations: usize,
}

/// Independently re-fault-simulates `set` with the serial reference engine
/// and cross-checks it against `claimed`.
///
/// The union over tests must cover `claimed.detected` (each fault is
/// simulated until the first test confirmed to detect it — computing
/// exactly that union), and each per-test claim must be covered by that
/// test alone, simulated with no dropping at all.
///
/// # Errors
///
/// Returns [`CoreError::VerificationFailed`] naming the first faults found
/// missing. A claimed test index out of range is also a verification
/// failure (the claim refers to a test that no longer exists).
pub fn verify_test_set(
    nl: &Netlist,
    universe: &FaultUniverse,
    set: &TestSet,
    claimed: &ClaimedCoverage,
) -> Result<OracleReport, CoreError> {
    let _sp = atspeed_trace::span("oracle.verify_test_set");
    let mut fsim = SeqFaultSim::new(nl);
    let mut report = OracleReport {
        set_faults_checked: claimed.detected.len(),
        ..OracleReport::default()
    };

    // Whole-set claim: the union over tests must cover every claimed
    // fault. A fault leaves the worklist at the first test confirmed to
    // detect it — union semantics make that exact regardless of test
    // order, and later tests then re-simulate only the faults no earlier
    // test accounted for (without this, verifying a large circuit costs
    // tests × faults full sequential simulations).
    if !claimed.detected.is_empty() {
        let mut remaining: Vec<FaultId> = claimed.detected.clone();
        for t in &set.tests {
            if remaining.is_empty() {
                break;
            }
            report.simulations += 1;
            let det = fsim.detect(&t.si, &t.seq, &remaining, universe, true);
            let mut flags = det.iter();
            remaining.retain(|_| !*flags.next().expect("one detection flag per fault"));
        }
        let missing = remaining;
        if !missing.is_empty() {
            return Err(verification_failed(
                format!(
                    "set of {} tests misses {} of {} claimed faults (first: {:?})",
                    set.len(),
                    missing.len(),
                    claimed.detected.len(),
                    &missing[..missing.len().min(4)],
                ),
                missing.len(),
            ));
        }
    }

    // Per-test claims (τ_seq detections, Phase 3 assignments).
    for (idx, faults) in &claimed.per_test {
        report.per_test_faults_checked += faults.len();
        if faults.is_empty() {
            continue;
        }
        let Some(t) = set.tests.get(*idx) else {
            return Err(verification_failed(
                format!(
                    "per-test claim names test {idx} but the set has {} tests",
                    set.len()
                ),
                faults.len(),
            ));
        };
        report.simulations += 1;
        let det = fsim.detect(&t.si, &t.seq, faults, universe, true);
        let missing: Vec<FaultId> = faults
            .iter()
            .zip(det.iter())
            .filter(|(_, &d)| !d)
            .map(|(&f, _)| f)
            .collect();
        if !missing.is_empty() {
            return Err(verification_failed(
                format!(
                    "test {idx} misses {} of {} faults claimed for it (first: {:?})",
                    missing.len(),
                    faults.len(),
                    &missing[..missing.len().min(4)],
                ),
                missing.len(),
            ));
        }
    }

    atspeed_trace::metrics::global()
        .counter("oracle/faults_checked")
        .add((report.set_faults_checked + report.per_test_faults_checked) as u64);
    Ok(report)
}

fn verification_failed(context: String, missing: usize) -> CoreError {
    atspeed_trace::error!("core.oracle", "coverage verification failed";
        detail = context, missing = missing);
    atspeed_trace::metrics::global()
        .counter("oracle/failures")
        .inc();
    CoreError::VerificationFailed { context, missing }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::ScanTest;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_sim::vectors::parse_values;
    use atspeed_sim::Sequence;

    fn detected_by(nl: &Netlist, u: &FaultUniverse, t: &ScanTest) -> Vec<FaultId> {
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let det = t.detects(nl, u, &reps);
        reps.iter()
            .zip(det.iter())
            .filter(|(_, &d)| d)
            .map(|(&f, _)| f)
            .collect()
    }

    fn some_test() -> ScanTest {
        let seq: Sequence = ["1010", "0110", "0001"]
            .iter()
            .map(|r| parse_values(r))
            .collect();
        ScanTest::new(parse_values("010"), seq)
    }

    #[test]
    fn honest_claims_verify() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let t = some_test();
        let detected = detected_by(&nl, &u, &t);
        assert!(!detected.is_empty());
        let set = TestSet::from_tests(vec![t]);
        let claimed = ClaimedCoverage {
            detected: detected.clone(),
            per_test: vec![(0, detected)],
        };
        let r = verify_test_set(&nl, &u, &set, &claimed).unwrap();
        assert_eq!(r.set_faults_checked, claimed.detected.len());
        assert!(r.simulations >= 2);
    }

    #[test]
    fn union_claim_is_order_independent() {
        // The whole-set check retires faults at their first detection, so
        // make sure a claim that genuinely needs both tests verifies with
        // the tests in either order.
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let strong = some_test();
        let weak = ScanTest::new(
            parse_values("000"),
            std::iter::once(parse_values("0000")).collect(),
        );
        let mut union: Vec<FaultId> = detected_by(&nl, &u, &strong);
        for f in detected_by(&nl, &u, &weak) {
            if !union.contains(&f) {
                union.push(f);
            }
        }
        assert!(union.len() > detected_by(&nl, &u, &strong).len());
        for tests in [
            vec![strong.clone(), weak.clone()],
            vec![weak.clone(), strong.clone()],
        ] {
            let set = TestSet::from_tests(tests);
            let claimed = ClaimedCoverage::set_only(union.clone());
            let r = verify_test_set(&nl, &u, &set, &claimed).unwrap();
            assert_eq!(r.set_faults_checked, union.len());
            assert_eq!(r.simulations, 2);
        }
    }

    #[test]
    fn whole_set_check_stops_once_everything_is_confirmed() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let t = some_test();
        let detected = detected_by(&nl, &u, &t);
        // Two copies of the same test: the first confirms every claimed
        // fault, so the second must not be simulated for the set claim.
        let set = TestSet::from_tests(vec![t.clone(), t]);
        let r = verify_test_set(&nl, &u, &set, &ClaimedCoverage::set_only(detected)).unwrap();
        assert_eq!(r.simulations, 1);
    }

    #[test]
    fn inflated_set_claim_is_rejected() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let t = some_test();
        let detected = detected_by(&nl, &u, &t);
        // Claim the whole universe: more than one short test can detect.
        let all: Vec<FaultId> = u.representatives().to_vec();
        assert!(detected.len() < all.len(), "test must not be complete");
        let set = TestSet::from_tests(vec![t]);
        let err = verify_test_set(&nl, &u, &set, &ClaimedCoverage::set_only(all)).unwrap_err();
        match err {
            CoreError::VerificationFailed { missing, .. } => assert!(missing > 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn wrong_per_test_attribution_is_rejected() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let strong = some_test();
        let weak = ScanTest::new(
            parse_values("000"),
            std::iter::once(parse_values("0000")).collect(),
        );
        let strong_detected = detected_by(&nl, &u, &strong);
        let weak_detected = detected_by(&nl, &u, &weak);
        assert!(weak_detected.len() < strong_detected.len());
        // The set detects everything claimed, but test 1 (weak) is credited
        // with the strong test's faults: a per-phase bookkeeping bug the
        // whole-set union would never catch.
        let set = TestSet::from_tests(vec![strong, weak]);
        let claimed = ClaimedCoverage {
            detected: strong_detected.clone(),
            per_test: vec![(1, strong_detected)],
        };
        let err = verify_test_set(&nl, &u, &set, &claimed).unwrap_err();
        assert!(matches!(err, CoreError::VerificationFailed { .. }));
    }

    #[test]
    fn out_of_range_test_index_is_rejected() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let set = TestSet::from_tests(vec![some_test()]);
        let claimed = ClaimedCoverage {
            detected: Vec::new(),
            per_test: vec![(5, u.representatives().to_vec())],
        };
        assert!(verify_test_set(&nl, &u, &set, &claimed).is_err());
    }

    #[test]
    fn empty_claim_trivially_verifies() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let r = verify_test_set(&nl, &u, &TestSet::new(), &ClaimedCoverage::default()).unwrap();
        assert_eq!(r.simulations, 0);
    }
}
