//! The compiled simulation kernel: one levelized full pass over the
//! evaluation program of a [`CompiledCircuit`], on a value array the
//! caller owns, and the [`Overrides`] overlay that injects faults into it.
//!
//! [`CompiledSim`] walks the program run by run ([`CompiledCircuit::runs`]:
//! consecutive ops of one level sharing a kind and a fanin) and dispatches
//! once per run into a loop specialised for that kind and fanin, whose pin
//! count and fold are constants: no per-op kind dispatch, no pin-offset
//! loads, no gate-id lookups, no per-call input buffer. Pairs the circuits
//! rarely use share one generic loop.
//!
//! The caller keeps one [`W3`] word (64 machines) per value slot, in the
//! circuit's slot order ([`CompiledCircuit::slot_of`]): the primary
//! inputs, then the flip-flop outputs, then every op's output in program
//! order. It seeds the source slots `0..S` and calls
//! [`CompiledSim::eval`], or [`CompiledSim::eval_with`] to inject faults.
//! A run's ops write one contiguous stretch of slots and read only slots
//! below it, so the pass splits the array at the run's first output slot
//! and writes the run's outputs as one slice. Every pass evaluates every
//! op in order, so afterwards the array holds a consistent evaluation of
//! every slot whatever it held before: engines reuse one array across
//! cycles and fault chunks with no change tracking and no allocation.
//! There is deliberately no event-driven delta pass: skipping unchanged
//! cones costs more in queue bookkeeping than it saves (DESIGN.md, "One
//! evaluation kernel").
//!
//! Throughput counters are in **gate-word** units — one gate advanced by
//! one 64-slot word — so a pass over `G` gates credits `G` gate
//! evaluations.

use atspeed_circuit::{CompiledCircuit, FfId, GateKind, PoId, Run, Slot};

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
fn eval_op(kind: GateKind, span: &[Slot], vals: &[W3]) -> W3 {
    let first = vals[span[0].index()];
    let base = match kind {
        GateKind::And | GateKind::Nand => span[1..]
            .iter()
            .fold(first, |acc, &pin| acc.and(vals[pin.index()])),
        GateKind::Or | GateKind::Nor => span[1..]
            .iter()
            .fold(first, |acc, &pin| acc.or(vals[pin.index()])),
        GateKind::Xor | GateKind::Xnor => span[1..]
            .iter()
            .fold(first, |acc, &pin| acc.xor(vals[pin.index()])),
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
fn eval_op_forced(kind: GateKind, span: &[Slot], vals: &[W3], entry: &[Force]) -> W3 {
    let pins = &entry[1..=span.len()];
    let mut acc = pins[0].apply(vals[span[0].index()]);
    for (&slot, pin) in span[1..].iter().zip(&pins[1..]) {
        acc = combine(kind, acc, pin.apply(vals[slot.index()]));
    }
    let out = if kind.inverts() { acc.not() } else { acc };
    entry[0].apply(out)
}

/// Evaluates a run whose ops all have `N` pins, folded with `fold` and
/// complemented when `INVERT`: with both fixed, the pin loop unrolls. The
/// pins read `below`, the outputs fill `outs` in order.
#[inline(always)]
fn fixed_run<const N: usize, const INVERT: bool>(
    outs: &mut [W3],
    pins: &[Slot],
    below: &[W3],
    fold: impl Fn(W3, W3) -> W3,
) {
    for (out, span) in outs.iter_mut().zip(pins.chunks_exact(N)) {
        let acc = span[1..].iter().fold(below[span[0].index()], |acc, pin| {
            fold(acc, below[pin.index()])
        });
        *out = if INVERT { acc.not() } else { acc };
    }
}

/// Evaluates one run fault-free into `outs` (its output slots), reading
/// its pins from `below` (every slot under them), dispatching once on its
/// kind and fanin. The pairs the circuits use get a specialised loop; the
/// rest (3-input XOR, 1-input AND family, gates wider than 4) share a
/// generic one.
fn eval_run(run: &Run<'_>, below: &[W3], outs: &mut [W3]) {
    use GateKind::{And, Buf, Nand, Nor, Not, Or, Xnor, Xor};
    let pins = run.pins;
    match (run.kind, run.fanin) {
        (Buf, 1) => fixed_run::<1, false>(outs, pins, below, W3::and),
        (Not, 1) => fixed_run::<1, true>(outs, pins, below, W3::and),
        (And, 2) => fixed_run::<2, false>(outs, pins, below, W3::and),
        (And, 3) => fixed_run::<3, false>(outs, pins, below, W3::and),
        (Nand, 2) => fixed_run::<2, true>(outs, pins, below, W3::and),
        (Nand, 3) => fixed_run::<3, true>(outs, pins, below, W3::and),
        (Or, 2) => fixed_run::<2, false>(outs, pins, below, W3::or),
        (Or, 3) => fixed_run::<3, false>(outs, pins, below, W3::or),
        (Nor, 2) => fixed_run::<2, true>(outs, pins, below, W3::or),
        (Nor, 3) => fixed_run::<3, true>(outs, pins, below, W3::or),
        (Xor, 2) => fixed_run::<2, false>(outs, pins, below, W3::xor),
        (Xnor, 2) => fixed_run::<2, true>(outs, pins, below, W3::xor),
        (Xor, 4) => fixed_run::<4, false>(outs, pins, below, W3::xor),
        (kind, fanin) => {
            for (out, span) in outs.iter_mut().zip(pins.chunks_exact(fanin)) {
                *out = eval_op(kind, span, below);
            }
        }
    }
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

    /// Full levelized pass, fault-free: fills in every op's output slot
    /// from the seeded source slots.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's slot count.
    pub fn eval(&self, vals: &mut [W3]) {
        self.pass(vals, &[], &[]);
    }

    /// Full levelized pass with the faults of `ov` injected: stems on
    /// source nets force the seeded values first, then each run is
    /// evaluated fault-free and its faulty ops are evaluated again from
    /// their overlay entries.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's slot count, or if
    /// `ov` was built for another circuit.
    pub fn eval_with(&self, vals: &mut [W3], ov: &Overrides<'_>) {
        assert_eq!(
            ov.cc.num_gates(),
            self.cc.num_gates(),
            "overlay of another circuit"
        );
        for &(slot, force) in &ov.sources {
            vals[slot.index()] = force.apply(vals[slot.index()]);
        }
        self.pass(vals, &ov.faulty, &ov.forces);
    }

    /// The pass itself. `faulty` lists the faulty ops in ascending op
    /// order, each with the position of its entry in `forces`. Each run
    /// splits the array at its first output slot: its pins read the part
    /// below, its outputs are the stretch above. Ops of one run never read
    /// each other's outputs, so re-evaluating a run's faulty ops after the
    /// run overwrites only their own fault-free outputs.
    fn pass(&self, vals: &mut [W3], faulty: &[(u32, u32)], forces: &[Force]) {
        let cc = self.cc;
        assert!(vals.len() >= cc.num_nets());
        crate::stats::add_gate_evals(cc.num_gates() as u64);
        debug_assert!(faulty.windows(2).all(|w| w[0].0 < w[1].0));
        let mut next = 0;
        for run in cc.runs() {
            let (below, above) = vals.split_at_mut(run.outputs.start);
            let outs = &mut above[..run.outputs.len()];
            eval_run(&run, below, outs);
            while let Some(&(op, e)) = faulty.get(next).filter(|f| (f.0 as usize) < run.ops.end) {
                let i = op as usize - run.ops.start;
                let span = &run.pins[i * run.fanin..(i + 1) * run.fanin];
                outs[i] = eval_op_forced(run.kind, span, below, &forces[e as usize..]);
                next += 1;
            }
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
/// program: the faulty ops in ascending op order, each with the position of
/// its entry in a small table — the output's force pair followed by one
/// force pair per input pin. The kernel walks that list beside the program
/// and re-evaluates each faulty op from its entry after its run; a
/// fault-free op costs nothing extra. When one slot carries both stuck
/// values at one site, stuck-at-1 wins.
///
/// The overlay's size follows the injected faults, not the circuit, and it
/// is reused across passes via [`Overrides::clear`].
#[derive(Debug, Clone)]
pub struct Overrides<'a> {
    cc: &'a CompiledCircuit,
    // Entries, each `1 + fanin` long.
    forces: Vec<Force>,
    // The ops that own an entry, in ascending op order, each with its
    // entry's position in `forces`.
    faulty: Vec<(u32, u32)>,
    // Stems on primary inputs and flip-flop outputs, by source slot,
    // forced before a pass.
    sources: Vec<(Slot, Force)>,
    ff_pins: Vec<(FfId, bool, u64)>,
    po_pins: Vec<(PoId, bool, u64)>,
}

impl<'a> Overrides<'a> {
    /// Creates an empty overlay over `cc`'s evaluation program.
    pub fn new(cc: &'a CompiledCircuit) -> Self {
        Overrides {
            cc,
            forces: Vec::new(),
            faulty: Vec::new(),
            sources: Vec::new(),
            ff_pins: Vec::new(),
            po_pins: Vec::new(),
        }
    }

    /// Removes all injected faults, keeping the lists' capacity; the cost
    /// does not depend on the circuit size.
    pub fn clear(&mut self) {
        self.forces.clear();
        self.faulty.clear();
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
            FaultSite::Stem(net) => {
                let slot = self.cc.slot_of(net);
                match self.cc.slot_op(slot) {
                    Some(op) => {
                        let e = self.entry(op);
                        self.forces[e].add(fault.stuck, mask);
                    }
                    None => match self.sources.iter_mut().find(|(s, _)| *s == slot) {
                        Some((_, force)) => force.add(fault.stuck, mask),
                        None => {
                            let mut force = Force::default();
                            force.add(fault.stuck, mask);
                            self.sources.push((slot, force));
                        }
                    },
                }
            }
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
    /// the op has none. The op joins `faulty` at its sorted position.
    fn entry(&mut self, op: usize) -> usize {
        let op = op as u32;
        match self.faulty.binary_search_by_key(&op, |&(o, _)| o) {
            Ok(i) => self.faulty[i].1 as usize,
            Err(i) => {
                let e = self.forces.len();
                let len = 1 + self.cc.op_inputs(op as usize).len();
                self.forces.resize(e + len, Force::default());
                let pos = u32::try_from(e).expect("overlay table overflow");
                self.faulty.insert(i, (op, pos));
                e
            }
        }
    }

    /// Whether no faults are injected.
    pub fn is_empty(&self) -> bool {
        self.faulty.is_empty()
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

    /// Seeds the source nets of a net-indexed array (the walker's layout).
    fn seed_sources(nl: &Netlist, vals: &mut [W3], r: &mut impl FnMut() -> u64) {
        for &pi in nl.pis() {
            vals[pi.index()] = random_w3(r);
        }
        for ff in nl.ffs() {
            vals[ff.q().index()] = random_w3(r);
        }
    }

    /// A net-indexed array laid out in the kernel's slot order.
    fn by_slot(nl: &Netlist, vals: &[W3]) -> Vec<W3> {
        let cc = nl.compiled();
        let mut slots = vec![W3::ALL_X; vals.len()];
        for net in nl.net_ids() {
            slots[cc.slot_of(net).index()] = vals[net.index()];
        }
        slots
    }

    #[test]
    fn full_pass_matches_legacy_walker() {
        for nl in [
            s27(),
            generate(&SynthSpec::new("k", 6, 4, 9, 200, 7)).unwrap(),
        ] {
            let sim = CompiledSim::new(nl.compiled());
            let mut legacy = CombSim::new(&nl);
            let mut reference = vec![W3::ALL_X; nl.num_nets()];
            let mut r = rng(0xfeed);
            for _ in 0..10 {
                seed_sources(&nl, &mut reference, &mut r);
                let mut vals = by_slot(&nl, &reference);
                sim.eval(&mut vals);
                legacy.eval(&mut reference);
                assert_eq!(vals, by_slot(&nl, &reference));
            }
        }
    }

    #[test]
    fn full_pass_with_overrides_matches_legacy_walker() {
        let nl = generate(&SynthSpec::new("ko", 6, 4, 9, 200, 13)).unwrap();
        let u = FaultUniverse::full(&nl);
        let sim = CompiledSim::new(nl.compiled());
        let mut legacy = CombSim::new(&nl);
        let mut reference = vec![W3::ALL_X; nl.num_nets()];
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
            seed_sources(&nl, &mut reference, &mut r);
            let mut vals = by_slot(&nl, &reference);
            sim.eval_with(&mut vals, &ov);
            legacy.eval_with(&mut reference, &injected);
            assert_eq!(vals, by_slot(&nl, &reference));
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
            let mut a = by_slot(&nl, &a);
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
            FaultSite::Stem(nl.gate(gid).output()),
            FaultSite::GatePin(gid, 1),
            FaultSite::Stem(nl.pis()[0]),
        ];
        for site in sites {
            let mut ov = Overrides::new(cc);
            ov.add(Fault { site, stuck: false }, 0b110);
            ov.add(Fault { site, stuck: true }, 0b010);
            let mut reference = vec![W3::ALL_X; nl.num_nets()];
            seed_sources(&nl, &mut reference, &mut rng(0x51));
            let mut vals = by_slot(&nl, &reference);
            sim.eval_with(&mut vals, &ov);
            let injected = [
                (Fault { site, stuck: true }, 0b010),
                (Fault { site, stuck: false }, 0b110),
            ];
            CombSim::new(&nl).eval_with(&mut reference, &injected);
            assert_eq!(vals, by_slot(&nl, &reference), "{site:?}");
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
        let cc = nl.compiled();
        let mut vals = vec![W3::ALL_X; nl.num_nets()];
        for name in ["a", "b", "s"] {
            vals[cc.slot_of(nl.find_net(name).unwrap()).index()] = W3::ALL_ZERO;
        }
        sim.eval_with(&mut vals, &ov);
        assert_eq!(vals[cc.slot_of(y).index()], W3::ALL_ZERO);
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
        let sources = nl.compiled().num_sources();
        for round in 0..10 {
            let mut fresh = vec![W3::ALL_X; nl.num_nets()];
            seed_sources(&nl, &mut fresh, &mut r);
            let mut fresh = by_slot(&nl, &fresh);
            let mut stale: Vec<W3> = (0..nl.num_nets()).map(|_| random_w3(&mut r)).collect();
            stale[..sources].copy_from_slice(&fresh[..sources]);
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

    /// Every gate kind at each fanin in {1, 2, 3, 4, 5, 17, 256} it
    /// accepts, two gates per pair in each of two layers (the second reads
    /// the first), so every dispatch arm, the generic loop included, runs
    /// a run of several ops, some of them reading faulty outputs.
    fn every_arm() -> Netlist {
        const FANINS: [usize; 7] = [1, 2, 3, 4, 5, 17, 256];
        let mut b = atspeed_circuit::NetlistBuilder::new("arms");
        let mut layer: Vec<String> = (0..256).map(|i| format!("i{i}")).collect();
        for pi in &layer {
            b.input(pi);
        }
        for l in 0..2 {
            let mut next = Vec::new();
            for kind in GateKind::ALL {
                for fanin in FANINS.into_iter().filter(|&n| kind.accepts_fanin(n)) {
                    for copy in 0..2 {
                        let name = format!("l{l}_{kind}{fanin}_{copy}");
                        // A stride prime to 256 keeps layer 1's pins distinct.
                        let ins: Vec<&str> = (0..fanin)
                            .map(|p| layer[(next.len() + 7 * p) % layer.len()].as_str())
                            .collect();
                        b.gate(kind, &name, &ins);
                        next.push(name);
                    }
                }
            }
            layer = next;
        }
        for po in &layer {
            b.output(po);
        }
        b.finish().unwrap()
    }

    /// Runs the kernel under `injected` and the walker with the same
    /// faults, from the same random sources with X, and compares every net.
    fn assert_pass_matches_walker(
        nl: &Netlist,
        injected: &[(Fault, u64)],
        r: &mut impl FnMut() -> u64,
    ) {
        let cc = nl.compiled();
        let mut ov = Overrides::new(cc);
        for &(fault, mask) in injected {
            ov.add(fault, mask);
        }
        let mut reference = vec![W3::ALL_X; nl.num_nets()];
        seed_sources(nl, &mut reference, r);
        let mut vals = by_slot(nl, &reference);
        CompiledSim::new(cc).eval_with(&mut vals, &ov);
        CombSim::new(nl).eval_with(&mut reference, injected);
        assert_eq!(vals, by_slot(nl, &reference), "{injected:?}");
    }

    #[test]
    fn every_dispatch_arm_matches_the_walker() {
        let nl = every_arm();
        let cc = nl.compiled();
        let mut pairs: Vec<(GateKind, usize)> =
            cc.runs().map(|run| (run.kind, run.fanin)).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 6 * 7 + 2, "{pairs:?}");
        let mut r = rng(0xa2b5);

        // Fault-free, through both entry points.
        let sim = CompiledSim::new(cc);
        for _ in 0..4 {
            let mut reference = vec![W3::ALL_X; nl.num_nets()];
            seed_sources(&nl, &mut reference, &mut r);
            let mut vals = by_slot(&nl, &reference);
            let mut with = vals.clone();
            sim.eval(&mut vals);
            sim.eval_with(&mut with, &Overrides::new(cc));
            CombSim::new(&nl).eval(&mut reference);
            assert_eq!(vals, by_slot(&nl, &reference));
            assert_eq!(with, by_slot(&nl, &reference));
        }

        // Each op's output and every pin, one site per slot: stuck-at-0,
        // stuck-at-1, then both in one slot (stuck-at-1 wins).
        let sites: Vec<FaultSite> = nl
            .gate_ids()
            .flat_map(|gid| {
                let g = nl.gate(gid);
                std::iter::once(FaultSite::Stem(g.output()))
                    .chain((0..g.inputs().len()).map(move |p| FaultSite::GatePin(gid, p as u8)))
            })
            .collect();
        for chunk in sites.chunks(63) {
            let slot = |k: usize| 1u64 << (k + 1);
            for stucks in [&[false][..], &[true], &[false, true]] {
                let injected: Vec<(Fault, u64)> = chunk
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &site)| {
                        stucks
                            .iter()
                            .map(move |&stuck| (Fault { site, stuck }, slot(k)))
                    })
                    .collect();
                assert_pass_matches_walker(&nl, &injected, &mut r);
            }
        }

        // Faulty ops at the program's ends and two neighbours inside a run.
        let run = cc
            .runs()
            .find(|run| run.ops.len() >= 2)
            .expect("a run of two ops");
        let ops = [0, cc.num_gates() - 1, run.ops.start, run.ops.start + 1];
        let injected: Vec<(Fault, u64)> = ops
            .iter()
            .enumerate()
            .flat_map(|(i, &op)| {
                let gid = nl
                    .gate_ids()
                    .find(|&g| cc.op_of(g) == op)
                    .expect("op owns a gate");
                let last_pin = (cc.op_inputs(op).len() - 1) as u8;
                [
                    (
                        FaultSite::Stem(nl.gate(gid).output()),
                        i % 2 == 0,
                        1u64 << (2 * i + 1),
                    ),
                    (
                        FaultSite::GatePin(gid, last_pin),
                        i % 2 == 1,
                        1u64 << (2 * i + 2),
                    ),
                ]
            })
            .map(|(site, stuck, mask)| (Fault { site, stuck }, mask))
            .collect();
        for _ in 0..8 {
            assert_pass_matches_walker(&nl, &injected, &mut r);
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
