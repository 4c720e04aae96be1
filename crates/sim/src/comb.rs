//! Levelized combinational evaluation with fault-injection overrides.

use atspeed_circuit::{Driver, FfId, GateId, NetId, Netlist, PoId};

use crate::fault::{Fault, FaultSite};
use crate::logic::W3;

/// Fault-injection overrides for one simulation pass.
///
/// Holds, per simulation slot, the stuck-at values to force. Stem overrides
/// are applied to a net's value right after it is computed (or seeded, for
/// primary inputs and flip-flop outputs); pin overrides are applied where a
/// specific consumer reads the net — a gate input pin, a flip-flop D input,
/// or a primary-output position — leaving all other consumers fault-free.
///
/// The structure is sized for a netlist once and reused across passes via
/// [`Overrides::clear`], keeping per-pass cost proportional to the number of
/// injected faults rather than the circuit size.
#[derive(Debug, Clone)]
pub struct Overrides {
    stem_force0: Vec<u64>,
    stem_force1: Vec<u64>,
    touched_stems: Vec<NetId>,
    gate_flagged: Vec<bool>,
    gate_pins: Vec<(GateId, u8, bool, u64)>,
    ff_pins: Vec<(FfId, bool, u64)>,
    po_pins: Vec<(PoId, bool, u64)>,
}

impl Overrides {
    /// Creates an empty override set sized for `nl`.
    pub fn new(nl: &Netlist) -> Self {
        Overrides {
            stem_force0: vec![0; nl.num_nets()],
            stem_force1: vec![0; nl.num_nets()],
            touched_stems: Vec::new(),
            gate_flagged: vec![false; nl.num_gates()],
            gate_pins: Vec::new(),
            ff_pins: Vec::new(),
            po_pins: Vec::new(),
        }
    }

    /// Removes all injected faults; cost is proportional to how many faults
    /// were injected, not to the circuit size.
    pub fn clear(&mut self) {
        for net in self.touched_stems.drain(..) {
            self.stem_force0[net.index()] = 0;
            self.stem_force1[net.index()] = 0;
        }
        for (gate, _, _, _) in self.gate_pins.drain(..) {
            self.gate_flagged[gate.index()] = false;
        }
        self.ff_pins.clear();
        self.po_pins.clear();
    }

    /// Injects `fault` into the slots of `mask`.
    ///
    /// Slot 0 is conventionally the good machine in fault simulation; the
    /// caller is responsible for keeping bit 0 out of `mask` there.
    pub fn add(&mut self, fault: Fault, mask: u64) {
        match fault.site {
            FaultSite::Stem(net) => {
                let i = net.index();
                if self.stem_force0[i] == 0 && self.stem_force1[i] == 0 {
                    self.touched_stems.push(net);
                }
                if fault.stuck {
                    self.stem_force1[i] |= mask;
                } else {
                    self.stem_force0[i] |= mask;
                }
            }
            FaultSite::GatePin(gate, pin) => {
                self.gate_flagged[gate.index()] = true;
                self.gate_pins.push((gate, pin, fault.stuck, mask));
            }
            FaultSite::FfPin(ff) => self.ff_pins.push((ff, fault.stuck, mask)),
            FaultSite::PoPin(po) => self.po_pins.push((po, fault.stuck, mask)),
        }
    }

    /// Whether no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.touched_stems.is_empty()
            && self.gate_pins.is_empty()
            && self.ff_pins.is_empty()
            && self.po_pins.is_empty()
    }

    /// Applies the stem override for `net` to `w`.
    #[inline]
    pub fn apply_stem(&self, net: NetId, w: W3) -> W3 {
        let i = net.index();
        let f0 = self.stem_force0[i];
        let f1 = self.stem_force1[i];
        if f0 == 0 && f1 == 0 {
            w
        } else {
            w.force(false, f0).force(true, f1)
        }
    }

    /// Applies pin overrides for input `pin` of `gate` to `w`.
    #[inline]
    pub fn apply_gate_pin(&self, gate: GateId, pin: u8, w: W3) -> W3 {
        if !self.gate_flagged[gate.index()] {
            return w;
        }
        let mut out = w;
        for &(g, p, stuck, mask) in &self.gate_pins {
            if g == gate && p == pin {
                out = out.force(stuck, mask);
            }
        }
        out
    }

    /// Applies pin overrides for the D input of `ff` to `w`.
    #[inline]
    pub fn apply_ff_pin(&self, ff: FfId, w: W3) -> W3 {
        let mut out = w;
        for &(f, stuck, mask) in &self.ff_pins {
            if f == ff {
                out = out.force(stuck, mask);
            }
        }
        out
    }

    /// Applies pin overrides for primary output `po` to `w`.
    #[inline]
    pub fn apply_po_pin(&self, po: PoId, w: W3) -> W3 {
        let mut out = w;
        for &(p, stuck, mask) in &self.po_pins {
            if p == po {
                out = out.force(stuck, mask);
            }
        }
        out
    }

    /// The nets with an active stem override, for the kernel's seed pass.
    #[inline]
    pub(crate) fn stems(&self) -> &[NetId] {
        &self.touched_stems
    }

    /// Whether `gate` has at least one input-pin override.
    #[inline]
    pub(crate) fn is_gate_flagged(&self, gate: GateId) -> bool {
        self.gate_flagged[gate.index()]
    }
}

/// Evaluates the combinational core of a netlist over packed values.
///
/// The value array is indexed by [`NetId`]; the caller seeds the source nets
/// (primary inputs and flip-flop outputs) and [`CombSim::eval`] fills in
/// every gate output in levelized order.
///
/// This is the *legacy walker*: it follows the pointer-based
/// [`Netlist::gate`] accessors gate by gate and serves as the reference
/// implementation for differential tests. Hot paths should use the compiled
/// kernel ([`CompiledSim`](crate::kernel::CompiledSim)) instead, which
/// evaluates the flat [`CompiledCircuit`](atspeed_circuit::CompiledCircuit)
/// arrays.
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

    /// Evaluates all gates with fault injection.
    ///
    /// Stem overrides on source nets (primary inputs, flip-flop outputs) are
    /// applied to the seeded values first, then each gate is evaluated with
    /// its pin overrides and its output stem override.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the netlist's net count.
    pub fn eval_with(&mut self, vals: &mut [W3], ov: &Overrides) {
        assert!(vals.len() >= self.nl.num_nets());
        crate::stats::add_gate_evals(self.nl.num_gates() as u64);
        for &net in &ov.touched_stems {
            if !matches!(self.nl.driver(net), Driver::Gate(_)) {
                vals[net.index()] = ov.apply_stem(net, vals[net.index()]);
            }
        }
        for &gid in self.nl.topo_order() {
            let g = self.nl.gate(gid);
            self.ins.clear();
            if ov.gate_flagged[gid.index()] {
                for (pin, &n) in g.inputs().iter().enumerate() {
                    self.ins
                        .push(ov.apply_gate_pin(gid, pin as u8, vals[n.index()]));
                }
            } else {
                self.ins.extend(g.inputs().iter().map(|&n| vals[n.index()]));
            }
            let out = W3::eval_gate(g.kind(), &self.ins);
            vals[g.output().index()] = ov.apply_stem(g.output(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::V3;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};

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
        let mut ov = Overrides::new(&nl);
        let t0 = nl.find_net("t0").unwrap();
        // Stuck-at-1 on t0 in slot 1 only.
        ov.add(
            Fault {
                site: FaultSite::Stem(t0),
                stuck: true,
            },
            0b10,
        );
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        vals[nl.find_net("a").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("b").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("s").unwrap().index()] = W3::ALL_ZERO;
        sim.eval_with(&mut vals, &ov);
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
        let mut ov = Overrides::new(&nl);
        ov.add(
            Fault {
                site: FaultSite::GatePin(g17_gate, 0),
                stuck: true,
            },
            0b10,
        );
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        for &pi in nl.pis() {
            vals[pi.index()] = W3::ALL_ZERO;
        }
        for ff in nl.ffs() {
            vals[ff.q().index()] = W3::ALL_ZERO;
        }
        sim.eval_with(&mut vals, &ov);
        // The branch value itself (stem G11) is untouched in both slots.
        assert_eq!(vals[g11.index()].get(0), vals[g11.index()].get(1));
        let g17 = nl.find_net("G17").unwrap();
        assert_eq!(vals[g17.index()].get(0), V3::One);
        assert_eq!(vals[g17.index()].get(1), V3::Zero);
    }

    #[test]
    fn clear_resets_and_is_reusable() {
        let nl = mux();
        let mut sim = CombSim::new(&nl);
        let mut ov = Overrides::new(&nl);
        ov.add(
            Fault {
                site: FaultSite::Stem(nl.find_net("y").unwrap()),
                stuck: true,
            },
            !1u64,
        );
        assert!(!ov.is_empty());
        ov.clear();
        assert!(ov.is_empty());
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        vals[nl.find_net("a").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("b").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("s").unwrap().index()] = W3::ALL_ZERO;
        sim.eval_with(&mut vals, &ov);
        assert_eq!(vals[nl.find_net("y").unwrap().index()], W3::ALL_ZERO);
    }

    #[test]
    fn source_stem_override_applies_to_seeded_pi() {
        let nl = mux();
        let mut sim = CombSim::new(&nl);
        let mut ov = Overrides::new(&nl);
        let a = nl.find_net("a").unwrap();
        ov.add(
            Fault {
                site: FaultSite::Stem(a),
                stuck: true,
            },
            0b10,
        );
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        vals[a.index()] = W3::ALL_ZERO;
        vals[nl.find_net("b").unwrap().index()] = W3::ALL_ZERO;
        vals[nl.find_net("s").unwrap().index()] = W3::ALL_ZERO;
        sim.eval_with(&mut vals, &ov);
        let y = vals[nl.find_net("y").unwrap().index()];
        assert_eq!(y.get(0), V3::Zero);
        assert_eq!(y.get(1), V3::One);
    }
}
