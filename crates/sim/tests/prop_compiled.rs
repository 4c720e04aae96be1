//! Differential tests: the compiled CSR kernel against the legacy
//! pointer-walking evaluator, and the serial engines against the parallel
//! front end at `SIM_THREADS` ∈ {1, 4}.
//!
//! The legacy [`CombSim`] walker is the reference implementation: every
//! property here demands *bit-identical* values or detection masks from the
//! compiled full-pass and override paths, including 3-valued X inputs and
//! fault injection. The walker injects faults from a plain list itself, so
//! the kernel's [`Overrides`] overlay is checked against code it shares
//! nothing with. The walker indexes its values by net and the kernel by
//! value slot, so the two are compared through
//! [`CompiledCircuit::slot_of`].
//!
//! A numbering-independence property rebuilds a circuit with its nets
//! interned in a shuffled order: every engine must return the same
//! verdicts on both copies, which share one slot layout but not one net
//! numbering.

use std::collections::HashMap;

use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::{
    catalog, CompiledCircuit, FfId, GateId, NetId, Netlist, NetlistBuilder, PoId,
};
use atspeed_sim::comb::inject;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{
    score_scan_ins, stats, CombFaultSim, CombSim, CombTest, CompiledSim, Fault, FaultSite,
    Overrides, ParallelFsim, SeqFaultSim, SeqSim, Sequence, SimConfig, State, TransitionFault,
    TransitionFaultSim, V3, W3,
};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..6, 1usize..4, 1usize..8, 8usize..80, any::<u64>()).prop_map(
        |(pis, pos, ffs, gates, seed)| {
            generate(&SynthSpec::new("prop", pis, pos, ffs, gates, seed)).unwrap()
        },
    )
}

/// Splitmix-style deterministic stream for seeding test values.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A random 3-valued word: every slot independently 0, 1, or X.
fn random_w3(next: &mut impl FnMut() -> u64) -> W3 {
    let a = next();
    let b = next();
    W3 {
        zero: a & !b,
        one: !a & b,
    }
}

/// Seeds the source nets (primary inputs and flip-flop outputs) of the
/// net-indexed `vals` with random 3-valued words.
fn seed_sources(nl: &Netlist, vals: &mut [W3], next: &mut impl FnMut() -> u64) {
    for &pi in nl.pis() {
        vals[pi.index()] = random_w3(next);
    }
    for ff in nl.ffs() {
        vals[ff.q().index()] = random_w3(next);
    }
}

/// A net-indexed value array (the walker's layout) laid out by slot (the
/// kernel's).
fn by_slot(nl: &Netlist, vals: &[W3]) -> Vec<W3> {
    let cc = nl.compiled();
    let mut slots = vec![W3::ALL_X; vals.len()];
    for net in nl.net_ids() {
        slots[cc.slot_of(net).index()] = vals[net.index()];
    }
    slots
}

/// A random 3-valued word, X in about half the slots.
fn x_heavy_w3(next: &mut impl FnMut() -> u64) -> W3 {
    let known = next();
    let value = next();
    W3 {
        zero: known & !value,
        one: known & value,
    }
}

/// A random fault set over up to 63 collapsed faults of `nl`, one slot
/// each.
fn random_faults(u: &FaultUniverse, next: &mut impl FnMut() -> u64) -> Vec<(Fault, u64)> {
    let reps = u.representatives();
    let mut faults = Vec::new();
    for (k, &fid) in reps.iter().take(63).enumerate() {
        if next() & 3 == 0 {
            faults.push((u.fault(fid), 1u64 << (k % 63 + 1)));
        }
    }
    faults
}

/// Faults stacked on a few sites: on each of up to three gates an output
/// stem fault and faults on several pins, both stuck values possible at
/// one site; stems on primary inputs and flip-flop outputs; faults on
/// primary-output and flip-flop D pins; every mask spans random slots, so
/// slots carry several faults at once.
fn stacked_faults(nl: &Netlist, next: &mut impl FnMut() -> u64) -> Vec<(Fault, u64)> {
    let mut faults = Vec::new();
    let mut push = |site: FaultSite, r: u64, mask: u64| {
        faults.push((
            Fault {
                site,
                stuck: r & 1 == 1,
            },
            mask,
        ));
    };
    for _ in 0..3 {
        let gid = GateId::from_index((next() % nl.num_gates() as u64) as usize);
        let g = nl.gate(gid);
        push(FaultSite::Stem(g.output()), next(), next());
        for pin in 0..g.inputs().len() {
            for _ in 0..next() % 3 {
                push(FaultSite::GatePin(gid, pin as u8), next(), next());
            }
        }
    }
    let sources: Vec<NetId> = nl
        .pis()
        .iter()
        .copied()
        .chain(nl.ffs().iter().map(|ff| ff.q()))
        .collect();
    for _ in 0..4 {
        let net = sources[(next() % sources.len() as u64) as usize];
        push(FaultSite::Stem(net), next(), next());
    }
    for _ in 0..3 {
        let po = PoId::from_index((next() % nl.num_pos() as u64) as usize);
        push(FaultSite::PoPin(po), next(), next());
        if nl.num_ffs() > 0 {
            let ff = FfId::from_index((next() % nl.num_ffs() as u64) as usize);
            push(FaultSite::FfPin(ff), next(), next());
        }
    }
    faults
}

/// `nl` rebuilt with the same primary inputs, flip-flops, gates and
/// primary outputs in the same order, its nets interned in a shuffled
/// order first: the same circuit, the same gate, flip-flop and output ids
/// and so the same value-slot layout, under a different net numbering.
fn renumbered(nl: &Netlist, next: &mut impl FnMut() -> u64) -> Netlist {
    let mut order: Vec<NetId> = nl.net_ids().collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let name = |net: NetId| nl.net_name(net);
    let mut b = NetlistBuilder::new(nl.name());
    for &net in &order {
        b.net(name(net));
    }
    for &pi in nl.pis() {
        b.input(name(pi));
    }
    for ff in nl.ffs() {
        b.dff(name(ff.q()), name(ff.d()));
    }
    for g in nl.gates() {
        let ins: Vec<&str> = g.inputs().iter().map(|&n| name(n)).collect();
        b.gate(g.kind(), name(g.output()), &ins);
    }
    for &po in nl.pos() {
        b.output(name(po));
    }
    b.finish()
        .expect("a renumbered copy of a valid netlist is valid")
}

/// The net of `to` carrying the name of `from`'s net `net`.
fn same_net(from: &Netlist, to: &Netlist, net: NetId) -> NetId {
    to.find_net(from.net_name(net))
        .expect("both copies name the same nets")
}

/// Gate-words credited while `f` runs, with its result.
fn with_work<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let scope = stats::scoped();
    let out = f();
    (out, scope.report().totals().gate_evals)
}

/// The overlay of `faults` over `cc`.
fn overlay<'a>(cc: &'a CompiledCircuit, faults: &[(Fault, u64)]) -> Overrides<'a> {
    let mut ov = Overrides::new(cc);
    for &(fault, mask) in faults {
        ov.add(fault, mask);
    }
    ov
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled full pass == legacy walker on arbitrary 3-valued inputs.
    #[test]
    fn compiled_full_pass_matches_legacy(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let cc = nl.compiled();
        let sim = CompiledSim::new(cc);
        let mut legacy = CombSim::new(&nl);
        let mut reference = vec![W3::ALL_X; nl.num_nets()];
        for _ in 0..4 {
            seed_sources(&nl, &mut reference, &mut next);
            let mut vals = by_slot(&nl, &reference);
            legacy.eval(&mut reference);
            sim.eval(&mut vals);
            prop_assert_eq!(&vals, &by_slot(&nl, &reference));
        }
    }

    /// Compiled full pass with fault overrides == legacy walker with the
    /// same overrides (stem, gate-pin, FF-pin, and PO-pin faults).
    #[test]
    fn compiled_override_pass_matches_legacy(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let u = FaultUniverse::full(&nl);
        let faults = random_faults(&u, &mut next);
        let cc = nl.compiled();
        let ov = overlay(cc, &faults);
        let sim = CompiledSim::new(cc);
        let mut legacy = CombSim::new(&nl);
        let mut reference = vec![W3::ALL_X; nl.num_nets()];
        for _ in 0..4 {
            seed_sources(&nl, &mut reference, &mut next);
            let mut vals = by_slot(&nl, &reference);
            legacy.eval_with(&mut reference, &faults);
            sim.eval_with(&mut vals, &ov);
            prop_assert_eq!(&vals, &by_slot(&nl, &reference));
        }
    }

    /// Faults stacked on one gate (its output stem and several pins, in
    /// overlapping slots), stems on primary inputs and flip-flop outputs,
    /// stacked observation-pin faults, and X-heavy sources: every slot of
    /// every net, and of every observed output and captured state, equals
    /// the reference walker's.
    #[test]
    fn stacked_faults_match_legacy(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let faults = stacked_faults(&nl, &mut next);
        let cc = nl.compiled();
        let ov = overlay(cc, &faults);
        let sim = CompiledSim::new(cc);
        let mut legacy = CombSim::new(&nl);
        let mut reference = vec![W3::ALL_X; nl.num_nets()];
        for _ in 0..4 {
            for net in nl.pis().iter().copied().chain(nl.ffs().iter().map(|ff| ff.q())) {
                reference[net.index()] = x_heavy_w3(&mut next);
            }
            let mut vals = by_slot(&nl, &reference);
            legacy.eval_with(&mut reference, &faults);
            sim.eval_with(&mut vals, &ov);
            for net in nl.net_ids() {
                let at = cc.slot_of(net).index();
                for machine in 0..64 {
                    prop_assert_eq!(
                        vals[at].get(machine),
                        reference[net.index()].get(machine),
                        "net {} machine {}", nl.net_name(net), machine
                    );
                }
            }
            for (k, &po) in nl.pos().iter().enumerate() {
                let po_id = PoId::from_index(k);
                prop_assert_eq!(
                    ov.apply_po_pin(po_id, vals[cc.pos()[k].index()]),
                    inject(&faults, FaultSite::PoPin(po_id), reference[po.index()]),
                    "PO {}", k
                );
            }
            for (f, ff) in nl.ffs().iter().enumerate() {
                let ff_id = FfId::from_index(f);
                prop_assert_eq!(
                    ov.apply_ff_pin(ff_id, vals[cc.ff_d(ff_id).index()]),
                    inject(&faults, FaultSite::FfPin(ff_id), reference[ff.d().index()]),
                    "FF {}", f
                );
            }
        }
    }

    /// The fault-sharded detection matrix over the compiled engines returns
    /// the same masks as the legacy brute-force oracle at 1 and 4 threads.
    #[test]
    fn parallel_compiled_matches_bruteforce(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let tests: Vec<CombTest> = (0..16)
            .map(|_| {
                CombTest::new(
                    (0..nl.num_ffs()).map(|_| V3::from_bool(next() & 1 == 1)).collect(),
                    (0..nl.num_pis()).map(|_| V3::from_bool(next() & 1 == 1)).collect(),
                )
            })
            .collect();
        let oracle: Vec<Vec<u64>> = CombFaultSim::new(&nl)
            .detect_block_bruteforce(&tests, &faults, &u)
            .into_iter()
            .map(|mask| vec![mask])
            .collect();
        for threads in [1usize, 4] {
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            prop_assert_eq!(
                &par.detect_matrix(&tests, &faults, &u),
                &oracle,
                "threads = {}", threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every engine gives the same per-fault verdicts, with the same
    /// gate-words, on a circuit and on a copy whose nets are interned in a
    /// shuffled order, faults mapped by site. The two copies share one
    /// value-slot layout and differ only in their `NetId`s, so a consumer
    /// that indexed a value array by net would read different slots in
    /// each, and a fault site converted wrongly would land elsewhere.
    #[test]
    fn verdicts_do_not_depend_on_net_numbering(nl in arb_netlist(), seed in any::<u64>()) {
        let mut next = rng(seed);
        let copy = renumbered(&nl, &mut next);
        let (u, cu) = (FaultUniverse::full(&nl), FaultUniverse::full(&copy));
        let copy_ids: HashMap<Fault, FaultId> = cu.all_ids().map(|id| (cu.fault(id), id)).collect();
        let faults: Vec<FaultId> = u.all_ids().collect();
        let mapped: Vec<FaultId> = faults
            .iter()
            .map(|&id| {
                let fault = u.fault(id);
                let site = match fault.site {
                    FaultSite::Stem(net) => FaultSite::Stem(same_net(&nl, &copy, net)),
                    other => other,
                };
                copy_ids[&Fault { site, ..fault }]
            })
            .collect();
        let value = |r: u64| match r % 5 {
            0 => V3::X,
            n => V3::from_bool(n & 1 == 1),
        };
        let init: State = (0..nl.num_ffs()).map(|_| value(next())).collect();
        let seq: Sequence = (0..6)
            .map(|_| (0..nl.num_pis()).map(|_| value(next())).collect::<Vec<_>>())
            .collect();

        let (mut a, mut b) = (SeqFaultSim::new(&nl), SeqFaultSim::new(&copy));
        for scan_out in [false, true] {
            prop_assert_eq!(
                with_work(|| a.detect(&init, &seq, &faults, &u, scan_out)),
                with_work(|| b.detect(&init, &seq, &mapped, &cu, scan_out)),
                "detect, scan-out {}", scan_out
            );
        }
        prop_assert_eq!(
            with_work(|| a.profiles(&init, &seq, &faults, &u)),
            with_work(|| b.profiles(&init, &seq, &mapped, &cu)),
            "profiles"
        );
        // The end-state records name each copy's own fault ids, so they are
        // compared through what resuming from them decides, fault by fault.
        let (ra, wa) = with_work(|| a.end_states(&init, &seq, &faults, &u));
        let (rb, wb) = with_work(|| b.end_states(&init, &seq, &mapped, &cu));
        prop_assert_eq!(wa, wb, "end-state work");
        let suffix: Sequence = seq.as_slice()[..2].iter().cloned().collect();
        for k in 0..faults.len() {
            prop_assert_eq!(
                with_work(|| a.detects_all_from(&ra, &suffix, &[k], &u)),
                with_work(|| b.detects_all_from(&rb, &suffix, &[k], &cu)),
                "resumed from the end states, fault {}", k
            );
        }

        let other: State = (0..nl.num_ffs()).map(|_| value(next())).collect();
        let states = [&init, &other, &init];
        prop_assert_eq!(
            with_work(|| score_scan_ins(&nl, &states, &seq, &faults, &u)),
            with_work(|| score_scan_ins(&copy, &states, &seq, &mapped, &cu)),
            "lane scores"
        );

        let tests: Vec<CombTest> = (0..8)
            .map(|_| {
                CombTest::new(
                    (0..nl.num_ffs()).map(|_| value(next())).collect(),
                    (0..nl.num_pis()).map(|_| value(next())).collect(),
                )
            })
            .collect();
        prop_assert_eq!(
            with_work(|| CombFaultSim::new(&nl).detect_all(&tests, &faults, &u)),
            with_work(|| CombFaultSim::new(&copy).detect_all(&tests, &mapped, &cu)),
            "PPSFP"
        );

        let transitions: Vec<TransitionFault> = nl
            .net_ids()
            .map(|net| TransitionFault { net, rising: next() & 1 == 1 })
            .collect();
        let moved: Vec<TransitionFault> = transitions
            .iter()
            .map(|t| TransitionFault { net: same_net(&nl, &copy, t.net), ..*t })
            .collect();
        prop_assert_eq!(
            with_work(|| TransitionFaultSim::new(&nl).detect(&init, &seq, &transitions)),
            with_work(|| TransitionFaultSim::new(&copy).detect(&init, &seq, &moved)),
            "transition faults"
        );
    }
}

/// Deterministic test block for a catalog circuit.
fn catalog_tests(nl: &Netlist, n: usize, seed: u64) -> Vec<CombTest> {
    let mut next = rng(seed);
    (0..n)
        .map(|_| {
            CombTest::new(
                (0..nl.num_ffs())
                    .map(|_| V3::from_bool(next() & 1 == 1))
                    .collect(),
                (0..nl.num_pis())
                    .map(|_| V3::from_bool(next() & 1 == 1))
                    .collect(),
            )
        })
        .collect()
}

/// An evenly spread sample of up to `cap` collapsed faults.
fn sample_faults(u: &FaultUniverse, cap: usize) -> Vec<FaultId> {
    let reps = u.representatives();
    let stride = (reps.len() / cap).max(1);
    reps.iter().copied().step_by(stride).take(cap).collect()
}

/// On every catalog circuit, the compiled event-driven PPSFP engine and the
/// legacy brute-force walker report bit-identical detection masks.
#[test]
fn catalog_detected_sets_match_legacy() {
    for info in catalog::all() {
        let nl = info.instantiate();
        let u = FaultUniverse::full(&nl);
        let faults = sample_faults(&u, 120);
        let tests = catalog_tests(&nl, 16, 0xA5A5 ^ info.num_gates as u64);
        let mut sim = CombFaultSim::new(&nl);
        let fast = sim.detect_block(&tests, &faults, &u);
        let slow = sim.detect_block_bruteforce(&tests, &faults, &u);
        assert_eq!(fast, slow, "detection masks diverge on {}", info.name);
    }
}

/// On every catalog circuit, the compiled sequential simulator reproduces
/// the legacy walker's primary-output values and captured states exactly.
#[test]
fn catalog_good_traces_match_legacy() {
    for info in catalog::all() {
        let nl = info.instantiate();
        let mut next = rng(0x5EED ^ info.num_ffs as u64);
        let seq: Sequence = (0..10)
            .map(|_| {
                (0..nl.num_pis())
                    .map(|_| V3::from_bool(next() & 1 == 1))
                    .collect::<Vec<_>>()
            })
            .collect();
        let init: Vec<V3> = (0..nl.num_ffs())
            .map(|_| V3::from_bool(next() & 1 == 1))
            .collect();
        let trace = SeqSim::new(&nl).run(&init, &seq);

        // Legacy reference: per-cycle full walker passes.
        let mut legacy = CombSim::new(&nl);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        let mut state: Vec<W3> = init.iter().map(|&v| W3::broadcast(v)).collect();
        for t in 0..seq.len() {
            let vec = seq.vector(t);
            for (i, &pi) in nl.pis().iter().enumerate() {
                vals[pi.index()] = W3::broadcast(vec[i]);
            }
            for (f, ff) in nl.ffs().iter().enumerate() {
                vals[ff.q().index()] = state[f];
            }
            legacy.eval(&mut vals);
            let pos: Vec<V3> = nl.pos().iter().map(|&po| vals[po.index()].get(0)).collect();
            assert_eq!(
                trace.po_values[t], pos,
                "PO values diverge on {}",
                info.name
            );
            state = nl.ffs().iter().map(|ff| vals[ff.d().index()]).collect();
            let st: Vec<V3> = state.iter().map(|w| w.get(0)).collect();
            assert_eq!(trace.states[t], st, "states diverge on {}", info.name);
        }
    }
}

/// Sequential fault detection through the parallel front end is identical
/// at 1 and 4 threads on a catalog circuit.
#[test]
fn catalog_seq_detection_thread_invariant() {
    let nl = catalog::by_name("s344").unwrap().instantiate();
    let u = FaultUniverse::full(&nl);
    let faults: Vec<FaultId> = u.representatives().to_vec();
    let mut next = rng(17);
    let seq: Sequence = (0..20)
        .map(|_| {
            (0..nl.num_pis())
                .map(|_| V3::from_bool(next() & 1 == 1))
                .collect::<Vec<_>>()
        })
        .collect();
    let init: Vec<V3> = vec![V3::Zero; nl.num_ffs()];
    let serial =
        ParallelFsim::new(&nl, SimConfig::with_threads(1)).detect(&init, &seq, &faults, &u, true);
    let threaded =
        ParallelFsim::new(&nl, SimConfig::with_threads(4)).detect(&init, &seq, &faults, &u, true);
    assert_eq!(serial, threaded);
    assert!(serial.iter().any(|&d| d), "some fault should be detected");
}
