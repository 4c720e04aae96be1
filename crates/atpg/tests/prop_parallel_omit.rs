//! Determinism of vector omission across thread counts: with more than one
//! thread the sweep-start profiles are fault-sharded, and the compacted
//! sequence and every statistic must still be bit-for-bit identical to the
//! one-thread sweep, including runs that exhaust the attempt budget
//! mid-sweep.

use atspeed_atpg::compact::{omit_vectors, OmissionConfig};
use atspeed_atpg::random_t0;
use atspeed_circuit::catalog;
use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{SeqFaultSim, Sequence, SimConfig, State, V3};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..6, 1usize..4, 1usize..7, 8usize..60, any::<u64>()).prop_map(
        |(pis, pos, ffs, gates, seed)| {
            generate(&SynthSpec::new("prop", pis, pos, ffs, gates, seed)).unwrap()
        },
    )
}

fn detected_targets(nl: &Netlist, u: &FaultUniverse, init: &State, seq: &Sequence) -> Vec<FaultId> {
    let mut fsim = SeqFaultSim::new(nl);
    let reps: Vec<FaultId> = u.representatives().to_vec();
    let det = fsim.detect(init, seq, &reps, u, true);
    reps.iter()
        .zip(det.iter())
        .filter(|(_, &d)| d)
        .map(|(&f, _)| f)
        .collect()
}

fn assert_parallel_matches_serial(
    nl: &Netlist,
    u: &FaultUniverse,
    init: &State,
    seq: &Sequence,
    targets: &[FaultId],
    base: OmissionConfig,
) {
    let serial_cfg = OmissionConfig {
        sim: SimConfig::with_threads(1),
        ..base
    };
    let (serial, sstats) = omit_vectors(nl, u, init, seq, targets, true, serial_cfg);
    for threads in [2, 4] {
        let cfg = OmissionConfig {
            sim: SimConfig::with_threads(threads),
            ..base
        };
        let (par, pstats) = omit_vectors(nl, u, init, seq, targets, true, cfg);
        assert_eq!(par, serial, "threads={threads}: sequences diverged");
        assert_eq!(pstats, sstats, "threads={threads}: stats diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, random sequences, unlimited budget: identical
    /// compacted sequences and stats at 1/2/4 threads.
    #[test]
    fn parallel_omission_matches_serial(
        nl in arb_netlist(),
        seed in any::<u64>(),
        len in 4usize..24,
    ) {
        let u = FaultUniverse::full(&nl);
        let seq = random_t0(&nl, len, seed);
        let init: Vec<V3> = vec![V3::Zero; nl.num_ffs()];
        let targets = detected_targets(&nl, &u, &init, &seq);
        assert_parallel_matches_serial(
            &nl, &u, &init, &seq, &targets, OmissionConfig::default(),
        );
    }

    /// Budget exhaustion mid-sweep must stop every thread count at the
    /// same attempt.
    #[test]
    fn parallel_omission_matches_serial_under_budget(
        nl in arb_netlist(),
        seed in any::<u64>(),
        len in 4usize..24,
        budget in 1usize..12,
    ) {
        let u = FaultUniverse::full(&nl);
        let seq = random_t0(&nl, len, seed);
        let init: Vec<V3> = vec![V3::Zero; nl.num_ffs()];
        // Use the full representative set (not just detected faults) so
        // rejections are common and the budget bites mid-sweep.
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let base = OmissionConfig {
            attempt_budget: budget,
            ..OmissionConfig::default()
        };
        assert_parallel_matches_serial(&nl, &u, &init, &seq, &targets, base);
        let (_, stats) = omit_vectors(
            &nl, &u, &init, &seq, &targets, true,
            OmissionConfig { sim: SimConfig::with_threads(4), ..base },
        );
        prop_assert!(stats.attempts <= budget);
    }

    /// Singles-only and chunked-only schedules stay deterministic too.
    #[test]
    fn parallel_omission_matches_serial_across_schedules(
        nl in arb_netlist(),
        seed in any::<u64>(),
        len in 4usize..20,
        chunked in any::<bool>(),
        max_passes in 0usize..3,
    ) {
        let u = FaultUniverse::full(&nl);
        let seq = random_t0(&nl, len, seed);
        let init: Vec<V3> = vec![V3::Zero; nl.num_ffs()];
        let targets = detected_targets(&nl, &u, &init, &seq);
        let base = OmissionConfig {
            chunked,
            max_passes,
            ..OmissionConfig::default()
        };
        assert_parallel_matches_serial(&nl, &u, &init, &seq, &targets, base);
    }
}

/// Catalog circuits (real ISCAS-89/ITC-99 structures, not synthetic):
/// identical results at 1/2/4 threads, with and without a tight budget.
#[test]
fn parallel_omission_matches_serial_on_catalog_circuits() {
    for name in ["s298", "s344", "s382", "b01", "b06"] {
        let nl = catalog::by_name(name).unwrap().instantiate();
        let u = FaultUniverse::full(&nl);
        let seq = random_t0(&nl, 32, 0xC0FFEE);
        let init: Vec<V3> = vec![V3::Zero; nl.num_ffs()];
        let targets = detected_targets(&nl, &u, &init, &seq);
        if targets.is_empty() {
            continue;
        }
        assert_parallel_matches_serial(&nl, &u, &init, &seq, &targets, OmissionConfig::default());
        assert_parallel_matches_serial(
            &nl,
            &u,
            &init,
            &seq,
            &targets,
            OmissionConfig {
                attempt_budget: 7,
                ..OmissionConfig::default()
            },
        );
    }
}
