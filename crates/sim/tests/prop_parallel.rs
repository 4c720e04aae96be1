//! Property-based tests for [`ParallelFsim`]: at every thread count, every
//! parallel operation reports exactly the detected-fault sets of the
//! single-threaded engines on randomly synthesized circuits.
//!
//! This is the determinism contract the whole workspace relies on —
//! `SIM_THREADS` may change wall time, never results. A count-based test
//! below holds the other half of the contract: threads do not add work.

use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{
    stats, CombFaultSim, CombTest, FinalObserve, ParallelFsim, SeqFaultSim, Sequence, SimConfig,
    State, V3,
};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    arb_netlist_with_gates(10..80)
}

fn arb_netlist_with_gates(gates: std::ops::Range<usize>) -> impl Strategy<Value = Netlist> {
    (2usize..6, 1usize..4, 2usize..8, gates, any::<u64>()).prop_map(
        |(pis, pos, ffs, gates, seed)| {
            generate(&SynthSpec::new("prop", pis, pos, ffs, gates, seed)).unwrap()
        },
    )
}

/// Deterministic pseudo-random bit stream (cheap xorshift, test-local).
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> bool {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 & 1 == 1
    }

    fn v3(&mut self) -> V3 {
        V3::from_bool(self.next())
    }
}

fn comb_tests(nl: &Netlist, n: usize, bits: &mut Bits) -> Vec<CombTest> {
    (0..n)
        .map(|_| {
            CombTest::new(
                (0..nl.num_ffs()).map(|_| bits.v3()).collect(),
                (0..nl.num_pis()).map(|_| bits.v3()).collect(),
            )
        })
        .collect()
}

fn sequence(nl: &Netlist, len: usize, bits: &mut Bits) -> Sequence {
    Sequence::from_vectors(
        (0..len)
            .map(|_| (0..nl.num_pis()).map(|_| bits.v3()).collect())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fault-sharded combinational matrix matches the serial engine
    /// exactly, over a partial last 64-test block too.
    #[test]
    fn parallel_comb_matches_serial(
        nl in arb_netlist(),
        seed in any::<u64>(),
        threads in 2usize..6,
        num_tests in 1usize..150,
    ) {
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let mut bits = Bits(seed | 1);
        let tests = comb_tests(&nl, num_tests, &mut bits);

        let mut serial = CombFaultSim::new(&nl);
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
        prop_assert_eq!(
            serial.detect_matrix(&tests, &faults, &u),
            par.detect_matrix(&tests, &faults, &u)
        );
    }

    /// Sequential ops: fault-sharded `detect`/`profiles`/`profiles_bounded`
    /// report the serial results, and the serial union over scan tests
    /// (which drops each fault at its first detecting test) equals the
    /// union of their fault-sharded `detect` sets. The circuits are large
    /// enough that most cases span several 63-fault partitions, and long
    /// enough sequences make a one-word profile budget truncate.
    #[test]
    fn parallel_seq_matches_serial(
        nl in arb_netlist_with_gates(40..160),
        seed in any::<u64>(),
        threads in 2usize..6,
        seq_len in 1usize..90,
    ) {
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let mut bits = Bits(seed | 1);
        let seq = sequence(&nl, seq_len, &mut bits);
        let init: State = (0..nl.num_ffs()).map(|_| bits.v3()).collect();

        let mut serial = SeqFaultSim::new(&nl);
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));

        prop_assert_eq!(
            serial.detect(&init, &seq, &faults, &u, true),
            par.detect(&init, &seq, &faults, &u, true)
        );
        prop_assert_eq!(
            serial.profiles(&init, &seq, &faults, &u),
            par.profiles(&init, &seq, &faults, &u)
        );
        prop_assert_eq!(
            serial.profiles_bounded(&init, &seq, &faults, &u, 1),
            par.profiles_bounded(&init, &seq, &faults, &u, 1)
        );

        // A small batch of scan tests for the union path.
        let runs_owned: Vec<(State, Sequence)> = (0..4)
            .map(|_| {
                let si: State = (0..nl.num_ffs()).map(|_| bits.v3()).collect();
                let s = sequence(&nl, 1 + seq_len / 2, &mut bits);
                (si, s)
            })
            .collect();
        let runs: Vec<(&State, &Sequence)> =
            runs_owned.iter().map(|(s, q)| (s, q)).collect();
        let mut sharded_union = vec![false; faults.len()];
        for &(si, s) in &runs {
            for (d, hit) in sharded_union.iter_mut().zip(par.detect(si, s, &faults, &u, true)) {
                *d |= hit;
            }
        }
        prop_assert_eq!(
            serial.detect_union(&runs, &faults, &u, FinalObserve::FullState),
            sharded_union
        );
    }
}

/// Threads add no passes: a sequential call is dealt into the engine's own
/// 63-fault words, so at 128 faults 2 and 4 threads evaluate exactly the
/// gate-words of 1 thread. (Dealing into `threads × 4` partitions made 2
/// threads evaluate 2.7–3.9× and 4 threads 5.0–7.3× the gate-words of 1 here.)
#[test]
fn threads_add_no_passes() {
    for (gates, seed) in [(400, 11), (1500, 12)] {
        let nl = generate(&SynthSpec::new("passes", 16, 8, 32, gates, seed)).unwrap();
        let u = FaultUniverse::full(&nl);
        let reps = u.representatives();
        let faults: Vec<FaultId> = reps
            .iter()
            .step_by(reps.len() / 128)
            .take(128)
            .copied()
            .collect();
        assert_eq!(faults.len(), 128);
        let mut bits = Bits(seed);
        let seq = sequence(&nl, 24, &mut bits);
        let init: State = vec![V3::Zero; nl.num_ffs()];

        let gate_evals = |threads: usize| {
            let scope = stats::scoped();
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            let det = par.detect(&init, &seq, &faults, &u, true);
            let profiles = par.profiles(&init, &seq, &faults, &u);
            (scope.report().totals().gate_evals, det, profiles)
        };
        let (one, det, profiles) = gate_evals(1);
        for threads in [2, 4] {
            let (n, d, p) = gate_evals(threads);
            assert_eq!((d, p), (det.clone(), profiles.clone()), "threads={threads}");
            assert_eq!(n, one, "{gates} gates: {threads} threads add passes");
        }
    }
}
