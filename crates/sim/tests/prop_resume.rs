//! Property tests for resuming sequential fault simulation from a record
//! ([`SeqFaultSim::end_states`] then [`SeqFaultSim::detects_all_from`]).
//!
//! Resuming a split sequence must give the verdicts of simulating it whole
//! ([`SeqFaultSim::detect`] with a scan-out), at any split and any thread
//! count. `fsim_seq`'s `detect_matches_per_fault_legacy_simulation` checks
//! `detect` itself against per-fault reference simulation.

use std::collections::BTreeSet;

use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::{bench_fmt, GateKind, NetId, Netlist, NetlistBuilder};
use atspeed_sim::fault::{FaultId, FaultSite, FaultUniverse};
use atspeed_sim::{stats, ParallelFsim, SeqFaultSim, Sequence, SimConfig, State, V3};
use proptest::prelude::*;

/// Circuits of up to 100 flip-flops, so records span several 64-flip-flop
/// words. Every flip-flop input is also a primary output, so the fault
/// universe holds faults on flip-flop input pins and output pins (the
/// generator alone never fans a flip-flop input out).
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..6, 1usize..4, 1usize..100, 0usize..120, any::<u64>()).prop_map(
        |(pis, pos, ffs, extra, seed)| {
            let gates = pos + ffs + 20 + extra;
            let nl = generate(&SynthSpec::new("resume", pis, pos, ffs, gates, seed)).unwrap();
            let mut text = bench_fmt::write(&nl);
            let observed: BTreeSet<NetId> = nl.pos().iter().copied().collect();
            let ds: BTreeSet<NetId> = nl.ffs().iter().map(|ff| ff.d()).collect();
            for d in ds.difference(&observed) {
                text.push_str(&format!("OUTPUT({})\n", nl.net_name(*d)));
            }
            bench_fmt::parse("resume", &text).unwrap()
        },
    )
}

fn has_pin_faults(u: &FaultUniverse) -> bool {
    let sites: Vec<FaultSite> = u.all_ids().map(|f| u.fault(f).site).collect();
    sites.iter().any(|s| matches!(s, FaultSite::FfPin(_)))
        && sites.iter().any(|s| matches!(s, FaultSite::PoPin(_)))
}

/// Deterministic X-heavy stimuli: a third of the values are X.
struct Stimuli(u64);

impl Stimuli {
    fn v3(&mut self) -> V3 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        match self.0 % 3 {
            0 => V3::X,
            1 => V3::Zero,
            _ => V3::One,
        }
    }

    fn state(&mut self, nl: &Netlist) -> State {
        (0..nl.num_ffs()).map(|_| self.v3()).collect()
    }

    fn sequence(&mut self, nl: &Netlist, len: usize) -> Sequence {
        Sequence::from_vectors(
            (0..len)
                .map(|_| (0..nl.num_pis()).map(|_| self.v3()).collect())
                .collect(),
        )
    }
}

/// `seq[from..to]`.
fn slice(seq: &Sequence, from: usize, to: usize) -> Sequence {
    Sequence::from_vectors(seq.iter().skip(from).take(to - from).cloned().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over every uncollapsed fault, pin faults on flip-flop inputs and
    /// primary outputs included: the faults the whole sequence detects
    /// are all detected when resuming after a random split, each of up to
    /// 8 missed faults alone is not, and a record sharded over 2–5 threads
    /// equals the serial one and gives the same verdicts.
    #[test]
    fn resume_matches_whole_sequence(
        nl in arb_netlist(),
        seed in any::<u64>(),
        len in 1usize..40,
        split in any::<usize>(),
        threads in 2usize..6,
    ) {
        let u = FaultUniverse::full(&nl);
        prop_assert!(has_pin_faults(&u));
        let faults: Vec<FaultId> = u.all_ids().collect();
        let mut stim = Stimuli(seed | 1);
        let init = stim.state(&nl);
        let seq = stim.sequence(&nl, len);
        let k = split % (len + 1);
        let (head, tail) = (slice(&seq, 0, k), slice(&seq, k, len));

        let mut serial = SeqFaultSim::new(&nl);
        let det = serial.detect(&init, &seq, &faults, &u, true);
        let rec = serial.end_states(&init, &head, &faults, &u);
        let detected: Vec<usize> = (0..faults.len()).filter(|&p| det[p]).collect();
        let missed: Vec<usize> = (0..faults.len()).filter(|&p| !det[p]).take(8).collect();

        prop_assert!(serial.detects_all_from(&rec, &tail, &detected, &u));
        for &p in &missed {
            prop_assert!(!serial.detects_all_from(&rec, &tail, &[p], &u), "fault {}", p);
        }

        let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
        let par_rec = par.end_states(&init, &head, &faults, &u);
        prop_assert_eq!(&par_rec, &rec);
        prop_assert!(par.detects_all_from(&par_rec, &tail, &detected, &u));
        for &p in &missed {
            let mut with_missed = detected.clone();
            with_missed.push(p);
            prop_assert!(!par.detects_all_from(&par_rec, &tail, &with_missed, &u), "fault {}", p);
        }
    }
}

/// A net that feeds a flip-flop, a primary output and a gate, so the
/// universe holds stuck-at faults on a flip-flop input pin and an output
/// pin.
fn pin_circuit() -> Netlist {
    let mut b = NetlistBuilder::new("pins");
    b.input("a");
    b.input("b");
    b.dff("q1", "d1");
    b.dff("q2", "d2");
    b.gate(GateKind::And, "n1", &["a", "q1"]);
    b.gate(GateKind::Xor, "d1", &["n1", "q2"]);
    b.gate(GateKind::Or, "d2", &["n1", "b"]);
    b.gate(GateKind::Nand, "n2", &["d1", "q2"]);
    b.output("d1");
    b.output("n2");
    b.finish().unwrap()
}

/// Every fault, pin faults included, gets the whole-sequence verdict when
/// resumed alone after every split of X-heavy sequences.
#[test]
fn resume_matches_whole_sequence_per_fault_on_pin_faults() {
    let nl = pin_circuit();
    let u = FaultUniverse::full(&nl);
    assert!(has_pin_faults(&u));
    let faults: Vec<FaultId> = u.all_ids().collect();
    let mut sim = SeqFaultSim::new(&nl);
    for seed in 1..40u64 {
        let mut stim = Stimuli(seed * 0x9e37_79b9);
        let init = stim.state(&nl);
        let seq = stim.sequence(&nl, 6);
        let det = sim.detect(&init, &seq, &faults, &u, true);
        for k in 0..=seq.len() {
            let rec = sim.end_states(&init, &slice(&seq, 0, k), &faults, &u);
            let tail = slice(&seq, k, seq.len());
            for (p, &d) in det.iter().enumerate() {
                assert_eq!(
                    sim.detects_all_from(&rec, &tail, &[p], &u),
                    d,
                    "seed {seed} split {k}: {}",
                    u.fault(faults[p]).describe(&nl)
                );
            }
        }
    }
}

/// Resuming after a 20-vector `T_i` simulates one cycle per word for a
/// 1-vector `T_j`: at most ⌈|A| / 63⌉ × G gate-words for the fault set A
/// checked and G gates, where simulating the 21-vector concatenation whole
/// evaluates up to 21 times that.
#[test]
fn resume_evaluates_only_the_suffix() {
    let nl = generate(&SynthSpec::new("count", 8, 4, 24, 400, 3)).unwrap();
    let u = FaultUniverse::full(&nl);
    let faults: Vec<FaultId> = u.all_ids().collect();
    let mut stim = Stimuli(99);
    let init = stim.state(&nl);
    let ti = stim.sequence(&nl, 20);
    let tj = stim.sequence(&nl, 1);
    let whole = ti.concat(&tj);
    let mut sim = SeqFaultSim::new(&nl);
    let det = sim.detect(&init, &whole, &faults, &u, true);
    let a: Vec<usize> = (0..faults.len()).filter(|&p| det[p]).collect();
    let checked: Vec<FaultId> = a.iter().map(|&p| faults[p]).collect();
    assert!(a.len() > 63, "needs several words: {}", a.len());
    let rec = sim.end_states(&init, &ti, &faults, &u);

    let counted = |f: &mut dyn FnMut() -> bool| {
        let scope = stats::scoped();
        assert!(f());
        scope.report().totals().gate_evals
    };
    let resumed = counted(&mut || sim.detects_all_from(&rec, &tj, &a, &u));
    let from_scratch = counted(&mut || {
        sim.detect(&init, &whole, &checked, &u, true)
            .iter()
            .all(|&d| d)
    });
    let g = nl.num_gates() as u64;
    let bound = a.len().div_ceil(63) as u64 * g;
    assert!(resumed <= bound, "{resumed} > {bound}");
    assert!(from_scratch <= 21 * bound);
    assert!(
        from_scratch > 4 * resumed,
        "whole {from_scratch} vs resumed {resumed}"
    );
}
