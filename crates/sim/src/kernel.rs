//! The compiled simulation kernel: one levelized full pass over the
//! evaluation program of a [`CompiledCircuit`], on a value array the
//! caller owns, and the [`Overrides`] overlay that injects faults into it.
//!
//! [`CompiledSim`] walks the program's ops in order — kind, output net and
//! pin span stored once each, in op order, grouped by kind and fanin within
//! each level — and folds each op's function directly over its pin span:
//! no gate-id lookups, no per-gate pointer chase, no per-call input buffer.
//!
//! The caller keeps one [`W3`] word (64 slots) per net, indexed by
//! [`NetId`], seeds the source nets (primary inputs and flip-flop outputs)
//! and calls [`CompiledSim::eval`], or [`CompiledSim::eval_with`] to inject
//! faults. Every pass evaluates every op in order, so afterwards the array
//! holds a consistent evaluation of every net whatever it held before:
//! engines reuse one array across cycles and fault chunks with no change
//! tracking and no allocation. There is deliberately no event-driven delta
//! pass: skipping unchanged cones costs more in queue bookkeeping than it
//! saves (DESIGN.md, "One evaluation kernel").
//!
//! Throughput counters are in **gate-word** units — one gate advanced by
//! one 64-slot word — so a pass over `G` gates credits `G` gate
//! evaluations.

use atspeed_circuit::{CompiledCircuit, FfId, GateKind, NetId, PoId};

use crate::fault::{Fault, FaultSite};
use crate::logic::W3;

/// Folds `kind` over two operands (the reduction step of a gate function,
/// inversion excluded).
#[inline]
pub(crate) fn combine(kind: GateKind, a: W3, b: W3) -> W3 {
    match kind {
        GateKind::And | GateKind::Nand => a.and(b),
        GateKind::Or | GateKind::Nor => a.or(b),
        GateKind::Xor | GateKind::Xnor => a.xor(b),
        // Single-input kinds never reach the reduction step.
        GateKind::Not | GateKind::Buf => a,
    }
}

/// Evaluates one op by folding its function over the pin span — no
/// staging buffer. The per-kind dispatch is hoisted out of the pin loop so
/// each fold body is a straight run of rail ops the compiler vectorizes.
#[inline(always)]
fn eval_op(kind: GateKind, span: &[NetId], vals: &[W3]) -> W3 {
    let first = vals[span[0].index()];
    let base = match kind {
        GateKind::And | GateKind::Nand => span[1..]
            .iter()
            .fold(first, |acc, &net| acc.and(vals[net.index()])),
        GateKind::Or | GateKind::Nor => span[1..]
            .iter()
            .fold(first, |acc, &net| acc.or(vals[net.index()])),
        GateKind::Xor | GateKind::Xnor => span[1..]
            .iter()
            .fold(first, |acc, &net| acc.xor(vals[net.index()])),
        GateKind::Not | GateKind::Buf => first,
    };
    if kind.inverts() {
        base.not()
    } else {
        base
    }
}

/// Evaluates a faulty op from its overlay entry: `entry[0]` forces the
/// output, `entry[1 + p]` input pin `p`.
#[inline(never)]
fn eval_op_forced(kind: GateKind, span: &[NetId], vals: &[W3], entry: &[Force]) -> W3 {
    let pins = &entry[1..=span.len()];
    let mut acc = pins[0].apply(vals[span[0].index()]);
    for (&net, pin) in span[1..].iter().zip(&pins[1..]) {
        acc = combine(kind, acc, pin.apply(vals[net.index()]));
    }
    let out = if kind.inverts() { acc.not() } else { acc };
    entry[0].apply(out)
}

/// Levelized full-pass evaluator over a [`CompiledCircuit`].
#[derive(Debug, Clone, Copy)]
pub struct CompiledSim<'a> {
    cc: &'a CompiledCircuit,
}

impl<'a> CompiledSim<'a> {
    /// Creates an evaluator over `cc`.
    pub fn new(cc: &'a CompiledCircuit) -> Self {
        CompiledSim { cc }
    }

    /// The compiled circuit being evaluated.
    #[inline]
    pub fn circuit(&self) -> &'a CompiledCircuit {
        self.cc
    }

    /// Full levelized pass, fault-free: fills in every gate output from the
    /// seeded source nets.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's net count.
    pub fn eval(&self, vals: &mut [W3]) {
        let cc = self.cc;
        assert!(vals.len() >= cc.num_nets());
        crate::stats::add_gate_evals(cc.num_gates() as u64);
        for (kind, out, span) in cc.ops() {
            vals[out.index()] = eval_op(kind, span, vals);
        }
    }

    /// Full levelized pass with the faults of `ov` injected: stems on
    /// source nets force the seeded values first, then each op is
    /// evaluated with its overlay entry, if it has one.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's net count, or if `ov`
    /// was built for another circuit.
    pub fn eval_with(&self, vals: &mut [W3], ov: &Overrides<'_>) {
        let cc = self.cc;
        assert!(vals.len() >= cc.num_nets());
        assert_eq!(
            ov.op_slot.len(),
            cc.num_gates(),
            "overlay of another circuit"
        );
        crate::stats::add_gate_evals(cc.num_gates() as u64);
        for &(net, force) in &ov.sources {
            vals[net.index()] = force.apply(vals[net.index()]);
        }
        for ((kind, out, span), &slot) in cc.ops().zip(&ov.op_slot) {
            vals[out.index()] = if slot == 0 {
                eval_op(kind, span, vals)
            } else {
                eval_op_forced(kind, span, vals, &ov.forces[slot as usize..])
            };
        }
    }
}

/// The slots a fault site forces to 0 and to 1.
#[derive(Debug, Clone, Copy, Default)]
struct Force {
    zero: u64,
    one: u64,
}

impl Force {
    fn add(&mut self, stuck: bool, mask: u64) {
        if stuck {
            self.one |= mask;
        } else {
            self.zero |= mask;
        }
    }

    /// Stuck-at-0 first, then stuck-at-1: a slot carrying both ends at 1.
    #[inline]
    fn apply(self, w: W3) -> W3 {
        w.force(false, self.zero).force(true, self.one)
    }
}

/// Fault-injection overlay for one simulation pass.
///
/// Holds, per simulation slot, the stuck-at values to force. Stem faults
/// force a net's value right after it is computed (or seeded, for primary
/// inputs and flip-flop outputs); pin faults force the value where one
/// consumer reads the net — a gate input pin, a flip-flop D input, or a
/// primary-output position — leaving all other consumers fault-free.
///
/// Gate faults live in a per-op overlay over the circuit's evaluation
/// program: `op_slot` holds one `u32` per op, 0 for a fault-free op, else
/// the position of the op's entry in a small table — the output's force
/// pair followed by one force pair per input pin. A fault-free op costs the
/// kernel one slot load, a faulty one one table entry. When one slot
/// carries both stuck values at one site, stuck-at-1 wins.
///
/// The overlay is sized for a circuit once and reused across passes via
/// [`Overrides::clear`], which costs in proportion to the injected faults,
/// not the circuit size.
#[derive(Debug, Clone)]
pub struct Overrides<'a> {
    cc: &'a CompiledCircuit,
    op_slot: Vec<u32>,
    // Entries, each `1 + fanin` long; index 0 is a placeholder so that a
    // zero slot means "no entry".
    forces: Vec<Force>,
    // The ops that own an entry, for `clear`.
    touched: Vec<usize>,
    // Stems on primary inputs and flip-flop outputs, forced before a pass.
    sources: Vec<(NetId, Force)>,
    ff_pins: Vec<(FfId, bool, u64)>,
    po_pins: Vec<(PoId, bool, u64)>,
}

impl<'a> Overrides<'a> {
    /// Creates an empty overlay over `cc`'s evaluation program.
    pub fn new(cc: &'a CompiledCircuit) -> Self {
        Overrides {
            cc,
            op_slot: vec![0; cc.num_gates()],
            forces: vec![Force::default()],
            touched: Vec::new(),
            sources: Vec::new(),
            ff_pins: Vec::new(),
            po_pins: Vec::new(),
        }
    }

    /// Removes all injected faults; cost is proportional to how many faults
    /// were injected, not to the circuit size.
    pub fn clear(&mut self) {
        for op in self.touched.drain(..) {
            self.op_slot[op] = 0;
        }
        self.forces.truncate(1);
        self.sources.clear();
        self.ff_pins.clear();
        self.po_pins.clear();
    }

    /// Injects `fault` into the slots of `mask`.
    ///
    /// Slot 0 is conventionally the good machine in fault simulation; the
    /// caller is responsible for keeping bit 0 out of `mask` there.
    ///
    /// # Panics
    ///
    /// Panics if a gate-pin fault names a pin its gate does not have.
    pub fn add(&mut self, fault: Fault, mask: u64) {
        match fault.site {
            FaultSite::Stem(net) => match self.cc.driver_op(net) {
                Some(op) => {
                    let e = self.entry(op);
                    self.forces[e].add(fault.stuck, mask);
                }
                None => match self.sources.iter_mut().find(|(n, _)| *n == net) {
                    Some((_, force)) => force.add(fault.stuck, mask),
                    None => {
                        let mut force = Force::default();
                        force.add(fault.stuck, mask);
                        self.sources.push((net, force));
                    }
                },
            },
            FaultSite::GatePin(gate, pin) => {
                let op = self.cc.op_of(gate);
                let pin = usize::from(pin);
                assert!(pin < self.cc.op_inputs(op).len(), "{gate} has no pin {pin}");
                let e = self.entry(op);
                self.forces[e + 1 + pin].add(fault.stuck, mask);
            }
            FaultSite::FfPin(ff) => self.ff_pins.push((ff, fault.stuck, mask)),
            FaultSite::PoPin(po) => self.po_pins.push((po, fault.stuck, mask)),
        }
    }

    /// The position of `op`'s entry, appending a fault-free one first if
    /// the op has none.
    fn entry(&mut self, op: usize) -> usize {
        match self.op_slot[op] {
            0 => {
                let e = self.forces.len();
                let len = 1 + self.cc.op_inputs(op).len();
                self.forces.resize(e + len, Force::default());
                self.op_slot[op] = u32::try_from(e).expect("overlay table overflow");
                self.touched.push(op);
                e
            }
            e => e as usize,
        }
    }

    /// Whether no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
            && self.sources.is_empty()
            && self.ff_pins.is_empty()
            && self.po_pins.is_empty()
    }

    /// Applies pin overrides for the D input of `ff` to `w` (stuck-at-1
    /// wins, as at every other site).
    #[inline]
    pub fn apply_ff_pin(&self, ff: FfId, w: W3) -> W3 {
        let mut force = Force::default();
        for &(f, stuck, mask) in &self.ff_pins {
            if f == ff {
                force.add(stuck, mask);
            }
        }
        force.apply(w)
    }

    /// Applies pin overrides for primary output `po` to `w` (stuck-at-1
    /// wins, as at every other site).
    #[inline]
    pub fn apply_po_pin(&self, po: PoId, w: W3) -> W3 {
        let mut force = Force::default();
        for &(p, stuck, mask) in &self.po_pins {
            if p == po {
                force.add(stuck, mask);
            }
        }
        force.apply(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::CombSim;
    use crate::fault::FaultUniverse;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::synth::{generate, SynthSpec};
    use atspeed_circuit::Netlist;

    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn random_w3(r: &mut impl FnMut() -> u64) -> W3 {
        // Random mix of 0/1/X per slot, dual-rail consistent.
        let a = r();
        let b = r();
        W3 {
            zero: a & !b,
            one: !a & b,
        }
    }

    fn seed_sources(nl: &Netlist, vals: &mut [W3], r: &mut impl FnMut() -> u64) {
        for &pi in nl.pis() {
            vals[pi.index()] = random_w3(r);
        }
        for ff in nl.ffs() {
            vals[ff.q().index()] = random_w3(r);
        }
    }

    #[test]
    fn full_pass_matches_legacy_walker() {
        for nl in [
            s27(),
            generate(&SynthSpec::new("k", 6, 4, 9, 200, 7)).unwrap(),
        ] {
            let sim = CompiledSim::new(nl.compiled());
            let mut legacy = CombSim::new(&nl);
            let mut vals = vec![W3::ALL_X; nl.num_nets()];
            let mut r = rng(0xfeed);
            for _ in 0..10 {
                seed_sources(&nl, &mut vals, &mut r);
                let mut reference = vals.clone();
                sim.eval(&mut vals);
                legacy.eval(&mut reference);
                assert_eq!(vals, reference);
            }
        }
    }

    #[test]
    fn full_pass_with_overrides_matches_legacy_walker() {
        let nl = generate(&SynthSpec::new("ko", 6, 4, 9, 200, 13)).unwrap();
        let u = FaultUniverse::full(&nl);
        let sim = CompiledSim::new(nl.compiled());
        let mut legacy = CombSim::new(&nl);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        let mut ov = Overrides::new(nl.compiled());
        let mut r = rng(0xbeef);
        let faults: Vec<_> = u.all_ids().collect();
        for chunk in faults.chunks(63) {
            let injected: Vec<(Fault, u64)> = chunk
                .iter()
                .enumerate()
                .map(|(k, &fid)| (u.fault(fid), 1u64 << (k + 1)))
                .collect();
            ov.clear();
            for &(fault, mask) in &injected {
                ov.add(fault, mask);
            }
            seed_sources(&nl, &mut vals, &mut r);
            let mut reference = vals.clone();
            sim.eval_with(&mut vals, &ov);
            legacy.eval_with(&mut reference, &injected);
            assert_eq!(vals, reference);
        }
    }

    /// One overlay cleared and refilled round after round gives the same
    /// pass as a fresh overlay each round, whatever the earlier rounds
    /// injected.
    #[test]
    fn reused_overlay_matches_a_fresh_one_every_round() {
        let nl = generate(&SynthSpec::new("kr", 6, 4, 9, 200, 17)).unwrap();
        let cc = nl.compiled();
        let u = FaultUniverse::full(&nl);
        let all: Vec<_> = u.all_ids().collect();
        let sim = CompiledSim::new(cc);
        let mut reused = Overrides::new(cc);
        let mut r = rng(0x0dd);
        for round in 0..10 {
            // A different random set each round, stacking several faults
            // per slot and per site.
            let n = (r() % 120) as usize;
            let injected: Vec<(Fault, u64)> = (0..n)
                .map(|_| (u.fault(all[(r() % all.len() as u64) as usize]), r() & !1))
                .collect();
            reused.clear();
            assert!(reused.is_empty());
            let mut fresh = Overrides::new(cc);
            for &(fault, mask) in &injected {
                reused.add(fault, mask);
                fresh.add(fault, mask);
            }
            let mut a = vec![W3::ALL_X; nl.num_nets()];
            seed_sources(&nl, &mut a, &mut r);
            let mut b = a.clone();
            sim.eval_with(&mut a, &reused);
            sim.eval_with(&mut b, &fresh);
            assert_eq!(a, b, "round {round}");
        }
    }

    /// Both stuck values on one site in one slot: stuck-at-1 wins, on an
    /// output stem, a gate pin and a primary-input stem alike.
    #[test]
    fn stuck_at_one_wins_at_every_site() {
        let nl = s27();
        let cc = nl.compiled();
        let sim = CompiledSim::new(cc);
        let (gid, _) = nl
            .gates()
            .iter()
            .enumerate()
            .find(|(_, g)| g.inputs().len() >= 2)
            .expect("s27 has a two-input gate");
        let gid = atspeed_circuit::GateId::from_index(gid);
        let sites = [
            FaultSite::Stem(cc.output(gid)),
            FaultSite::GatePin(gid, 1),
            FaultSite::Stem(nl.pis()[0]),
        ];
        for site in sites {
            let mut ov = Overrides::new(cc);
            ov.add(Fault { site, stuck: false }, 0b110);
            ov.add(Fault { site, stuck: true }, 0b010);
            let mut vals = vec![W3::ALL_X; nl.num_nets()];
            seed_sources(&nl, &mut vals, &mut rng(0x51));
            let mut reference = vals.clone();
            sim.eval_with(&mut vals, &ov);
            let injected = [
                (Fault { site, stuck: true }, 0b010),
                (Fault { site, stuck: false }, 0b110),
            ];
            CombSim::new(&nl).eval_with(&mut reference, &injected);
            assert_eq!(vals, reference, "{site:?}");
        }
    }

    #[test]
    fn clear_resets_and_is_reusable() {
        // y = (a AND s') OR (b AND s)
        let mut b = atspeed_circuit::NetlistBuilder::new("mux");
        for name in ["a", "b", "s"] {
            b.input(name);
        }
        b.gate(GateKind::Not, "sn", &["s"]);
        b.gate(GateKind::And, "t0", &["a", "sn"]);
        b.gate(GateKind::And, "t1", &["b", "s"]);
        b.gate(GateKind::Or, "y", &["t0", "t1"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let sim = CompiledSim::new(nl.compiled());
        let mut ov = Overrides::new(nl.compiled());
        let y = nl.find_net("y").unwrap();
        let a = nl.find_net("a").unwrap();
        let y_gate = match nl.driver(y) {
            atspeed_circuit::Driver::Gate(g) => g,
            other => panic!("unexpected driver {other:?}"),
        };
        for site in [
            FaultSite::Stem(y),
            FaultSite::Stem(a),
            FaultSite::GatePin(y_gate, 1),
        ] {
            ov.add(Fault { site, stuck: true }, !1u64);
        }
        ov.add(
            Fault {
                site: FaultSite::PoPin(PoId::from_index(0)),
                stuck: true,
            },
            !1u64,
        );
        assert!(!ov.is_empty());
        ov.clear();
        assert!(ov.is_empty());
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        for name in ["a", "b", "s"] {
            vals[nl.find_net(name).unwrap().index()] = W3::ALL_ZERO;
        }
        sim.eval_with(&mut vals, &ov);
        assert_eq!(vals[y.index()], W3::ALL_ZERO);
        assert_eq!(
            ov.apply_po_pin(PoId::from_index(0), W3::ALL_ZERO),
            W3::ALL_ZERO
        );
    }

    /// Engines reuse one value array across cycles and fault chunks, so a
    /// pass must not read anything but the seeded sources: garbage left
    /// on gate outputs by earlier passes cannot leak into the result.
    #[test]
    fn full_pass_ignores_stale_gate_outputs() {
        let nl = generate(&SynthSpec::new("ks", 6, 4, 9, 200, 21)).unwrap();
        let u = FaultUniverse::full(&nl);
        let sim = CompiledSim::new(nl.compiled());
        let mut ov = Overrides::new(nl.compiled());
        for (k, &fid) in u.representatives().iter().take(63).enumerate() {
            ov.add(u.fault(fid), 1u64 << (k + 1));
        }
        let mut r = rng(0xabc);
        for round in 0..10 {
            let mut fresh = vec![W3::ALL_X; nl.num_nets()];
            seed_sources(&nl, &mut fresh, &mut r);
            let mut stale: Vec<W3> = (0..nl.num_nets()).map(|_| random_w3(&mut r)).collect();
            for &pi in nl.pis() {
                stale[pi.index()] = fresh[pi.index()];
            }
            for ff in nl.ffs() {
                stale[ff.q().index()] = fresh[ff.q().index()];
            }
            if round % 2 == 0 {
                sim.eval(&mut fresh);
                sim.eval(&mut stale);
            } else {
                sim.eval_with(&mut fresh, &ov);
                sim.eval_with(&mut stale, &ov);
            }
            assert_eq!(fresh, stale, "round {round}");
        }
    }

    /// Gate-eval counters are in gate-word units: a full pass credits one
    /// word per gate, with or without overrides, and skips nothing.
    #[test]
    fn full_pass_credits_one_gate_word_per_gate() {
        let nl = generate(&SynthSpec::new("kc", 6, 4, 9, 200, 91)).unwrap();
        let cc = nl.compiled();
        let sim = CompiledSim::new(cc);
        let ov = Overrides::new(cc);
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        seed_sources(&nl, &mut vals, &mut rng(0x5CA1E));

        let scope = crate::stats::scoped();
        crate::stats::set_phase("kernel");
        sim.eval(&mut vals);
        sim.eval_with(&mut vals, &ov);
        crate::stats::flush();
        let t = scope.report().totals();
        assert_eq!(t.gate_evals, 2 * cc.num_gates() as u64);
        assert_eq!(t.events_skipped, 0);
    }
}
