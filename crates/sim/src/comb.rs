//! The reference walker: levelized combinational evaluation over the
//! pointer-based netlist, with its own fault injection.

use atspeed_circuit::Netlist;

use crate::fault::{Fault, FaultSite};
use crate::logic::W3;

/// Forces onto `w` the faults of `faults` sited at `site`: stuck-at-0
/// first, then stuck-at-1, so a slot carrying both ends at 1.
///
/// This is the reference rule the kernel's overlay must match; tests also
/// use it for the flip-flop-pin and primary-output-pin faults a pass
/// leaves to its caller.
pub fn inject(faults: &[(Fault, u64)], site: FaultSite, w: W3) -> W3 {
    let (mut zero, mut one) = (0u64, 0u64);
    for &(fault, mask) in faults {
        if fault.site == site {
            if fault.stuck {
                one |= mask;
            } else {
                zero |= mask;
            }
        }
    }
    w.force(false, zero).force(true, one)
}

/// Evaluates the combinational core of a netlist over packed values.
///
/// The value array is indexed by [`NetId`](atspeed_circuit::NetId); the caller seeds the source nets
/// (primary inputs and flip-flop outputs) and [`CombSim::eval`] fills in
/// every gate output in levelized order.
///
/// This is the *legacy walker*: it follows the pointer-based
/// [`Netlist::gate`] accessors gate by gate and serves as the reference
/// implementation for differential tests. Hot paths should use the compiled
/// kernel ([`CompiledSim`](crate::kernel::CompiledSim)) instead, which
/// evaluates the flat [`CompiledCircuit`](atspeed_circuit::CompiledCircuit)
/// arrays over a value array in slot order, so a differential test compares
/// the two through
/// [`CompiledCircuit::slot_of`](atspeed_circuit::CompiledCircuit::slot_of).
#[derive(Debug, Clone)]
pub struct CombSim<'a> {
    nl: &'a Netlist,
    // Per-gate input staging buffer, hoisted out of the eval loop so the
    // reference walker does not churn the allocator once warm.
    ins: Vec<W3>,
}

impl<'a> CombSim<'a> {
    /// Creates an evaluator for `nl`.
    pub fn new(nl: &'a Netlist) -> Self {
        CombSim {
            nl,
            ins: Vec::with_capacity(8),
        }
    }

    /// The netlist being evaluated.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Evaluates all gates fault-free.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the netlist's net count.
    pub fn eval(&mut self, vals: &mut [W3]) {
        assert!(vals.len() >= self.nl.num_nets());
        crate::stats::add_gate_evals(self.nl.num_gates() as u64);
        for &gid in self.nl.topo_order() {
            let g = self.nl.gate(gid);
            self.ins.clear();
            self.ins.extend(g.inputs().iter().map(|&n| vals[n.index()]));
            vals[g.output().index()] = W3::eval_gate(g.kind(), &self.ins);
        }
    }

    /// Evaluates all gates with the faults of `faults` injected, each into
    /// the slots of its mask.
    ///
    /// Stem faults on source nets (primary inputs, flip-flop outputs) force
    /// the seeded values first; then each gate reads its inputs through
    /// its pin faults and forces its output through its stem faults, by
    /// [`inject`]. Flip-flop-pin and primary-output-pin faults affect only
    /// what the caller observes, so the pass leaves them to the caller.
    ///
    /// The walk finds every fault by scanning `faults`, sharing no
    /// structure with the kernel's [`Overrides`](crate::kernel::Overrides),
    /// so differential tests check the overlay against an independent
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the netlist's net count.
    pub fn eval_with(&mut self, vals: &mut [W3], faults: &[(Fault, u64)]) {
        assert!(vals.len() >= self.nl.num_nets());
        crate::stats::add_gate_evals(self.nl.num_gates() as u64);
        let sources = self
            .nl
            .pis()
            .iter()
            .copied()
            .chain(self.nl.ffs().iter().map(|ff| ff.q()));
        for net in sources {
            vals[net.index()] = inject(faults, FaultSite::Stem(net), vals[net.index()]);
        }
        for &gid in self.nl.topo_order() {
            let g = self.nl.gate(gid);
            self.ins.clear();
            for (pin, &n) in g.inputs().iter().enumerate() {
                let site = FaultSite::GatePin(gid, pin as u8);
                self.ins.push(inject(faults, site, vals[n.index()]));
            }
            let out = W3::eval_gate(g.kind(), &self.ins);
            vals[g.output().index()] = inject(faults, FaultSite::Stem(g.output()), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::V3;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{Driver, GateKind, NetlistBuilder};

    fn mux() -> atspeed_circuit::Netlist {
        // y = (a AND s') OR (b AND s)
        let mut b = NetlistBuilder::new("mux");
        b.input("a");
        b.input("b");
        b.input("s");
        b.gate(GateKind::Not, "sn", &["s"]);
        b.gate(GateKind::And, "t0", &["a", "sn"]);
        b.gate(GateKind::And, "t1", &["b", "s"]);
        b.gate(GateKind::Or, "y", &["t0", "t1"]);
        b.output("y");
        b.finish().unwrap()
    }

    fn eval_mux(a: V3, b: V3, s: V3) -> V3 {
        let nl = mux();
        let mut sim = CombSim::new(&nl);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        vals[nl.find_net("a").unwrap().index()] = W3::broadcast(a);
        vals[nl.find_net("b").unwrap().index()] = W3::broadcast(b);
        vals[nl.find_net("s").unwrap().index()] = W3::broadcast(s);
        sim.eval(&mut vals);
        vals[nl.find_net("y").unwrap().index()].get(0)
    }

    #[test]
    fn mux_truth_table() {
        assert_eq!(eval_mux(V3::One, V3::Zero, V3::Zero), V3::One);
        assert_eq!(eval_mux(V3::One, V3::Zero, V3::One), V3::Zero);
        assert_eq!(eval_mux(V3::Zero, V3::One, V3::One), V3::One);
        // Unknown select with equal data inputs is conservatively X in
        // 3-valued simulation (the classic mux pessimism).
        assert_eq!(eval_mux(V3::One, V3::One, V3::X), V3::X);
    }

    #[test]
    fn parallel_slots_are_independent() {
        let nl = mux();
        let mut sim = CombSim::new(&nl);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        // slot 0: a=1,s=0 -> y=1 ; slot 1: b=1,s=1 -> y=1 ; slot 2: all 0 -> 0
        let mut a = W3::ALL_X;
        let mut b = W3::ALL_X;
        let mut s = W3::ALL_X;
        a.set(0, V3::One);
        b.set(0, V3::Zero);
        s.set(0, V3::Zero);
        a.set(1, V3::Zero);
        b.set(1, V3::One);
        s.set(1, V3::One);
        a.set(2, V3::Zero);
        b.set(2, V3::Zero);
        s.set(2, V3::Zero);
        vals[nl.find_net("a").unwrap().index()] = a;
        vals[nl.find_net("b").unwrap().index()] = b;
        vals[nl.find_net("s").unwrap().index()] = s;
        sim.eval(&mut vals);
        let y = vals[nl.find_net("y").unwrap().index()];
        assert_eq!(y.get(0), V3::One);
        assert_eq!(y.get(1), V3::One);
        assert_eq!(y.get(2), V3::Zero);
    }

    #[test]
    fn stem_override_forces_value() {
        let nl = mux();
        let mut sim = CombSim::new(&nl);
        let t0 = nl.find_net("t0").unwrap();
        // Stuck-at-1 on t0 in slot 1 only.
        let faults = [(
            Fault {
                site: FaultSite::Stem(t0),
                stuck: true,
            },
            0b10,
        )];
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        vals[nl.find_net("a").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("b").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("s").unwrap().index()] = W3::ALL_ZERO;
        sim.eval_with(&mut vals, &faults);
        let y = vals[nl.find_net("y").unwrap().index()];
        assert_eq!(y.get(0), V3::Zero, "good machine unaffected");
        assert_eq!(y.get(1), V3::One, "faulty machine sees stuck-at-1");
    }

    #[test]
    fn pin_override_affects_single_branch() {
        let nl = s27();
        let mut sim = CombSim::new(&nl);
        // G11 fans out to G17 (a NOT gate driving the PO) and others. A
        // pin fault on G17's input must flip the PO without disturbing the
        // other branches.
        let g11 = nl.find_net("G11").unwrap();
        let g17_gate = match nl.driver(nl.find_net("G17").unwrap()) {
            Driver::Gate(g) => g,
            other => panic!("unexpected driver {other:?}"),
        };
        let faults = [(
            Fault {
                site: FaultSite::GatePin(g17_gate, 0),
                stuck: true,
            },
            0b10,
        )];
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        for &pi in nl.pis() {
            vals[pi.index()] = W3::ALL_ZERO;
        }
        for ff in nl.ffs() {
            vals[ff.q().index()] = W3::ALL_ZERO;
        }
        sim.eval_with(&mut vals, &faults);
        // The branch value itself (stem G11) is untouched in both slots.
        assert_eq!(vals[g11.index()].get(0), vals[g11.index()].get(1));
        let g17 = nl.find_net("G17").unwrap();
        assert_eq!(vals[g17.index()].get(0), V3::One);
        assert_eq!(vals[g17.index()].get(1), V3::Zero);
    }

    #[test]
    fn stuck_at_one_wins_at_one_site() {
        let nl = mux();
        let mut sim = CombSim::new(&nl);
        let y = nl.find_net("y").unwrap();
        let stem = |stuck| Fault {
            site: FaultSite::Stem(y),
            stuck,
        };
        // Slot 1 carries both stuck values, in either list order.
        for faults in [
            [(stem(true), 0b10), (stem(false), 0b110)],
            [(stem(false), 0b110), (stem(true), 0b10)],
        ] {
            let mut vals = vec![W3::ALL_X; nl.num_nets()];
            for name in ["a", "b", "s"] {
                vals[nl.find_net(name).unwrap().index()] = W3::ALL_ONE;
            }
            sim.eval_with(&mut vals, &faults);
            let w = vals[y.index()];
            assert_eq!((w.get(0), w.get(1), w.get(2)), (V3::One, V3::One, V3::Zero));
        }
    }

    #[test]
    fn source_stem_override_applies_to_seeded_pi() {
        let nl = mux();
        let mut sim = CombSim::new(&nl);
        let a = nl.find_net("a").unwrap();
        let faults = [(
            Fault {
                site: FaultSite::Stem(a),
                stuck: true,
            },
            0b10,
        )];
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        vals[a.index()] = W3::ALL_ZERO;
        vals[nl.find_net("b").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("s").unwrap().index()] = W3::ALL_ZERO;
        sim.eval_with(&mut vals, &faults);
        let y = vals[nl.find_net("y").unwrap().index()];
        assert_eq!(y.get(0), V3::Zero);
        assert_eq!(y.get(1), V3::One);
    }
}
