//! The compiled simulation kernel: one levelized full pass over a
//! [`CompiledCircuit`], on a value array the caller owns.
//!
//! [`CompiledSim`] is the hot-path counterpart of the legacy
//! [`CombSim`](crate::comb::CombSim) walker. It indexes the flat CSR arrays
//! of a [`CompiledCircuit`] — no per-gate pointer chase, no per-call input
//! buffer — and folds each gate's function directly over its pin span.
//!
//! The caller keeps one [`W3`] word (64 slots) per net, indexed by
//! [`NetId`](atspeed_circuit::NetId), seeds the source nets (primary
//! inputs and flip-flop outputs) and calls [`CompiledSim::eval`], or
//! [`CompiledSim::eval_with`] to inject faults. Every pass evaluates every gate in level order, so afterwards
//! the array holds a consistent evaluation of every net whatever it held
//! before: engines reuse one array across cycles and fault chunks with no
//! change tracking and no allocation. There is deliberately no
//! event-driven delta pass: skipping unchanged cones costs more in queue
//! bookkeeping than it saves (DESIGN.md, "One evaluation kernel").
//!
//! Throughput counters are in **gate-word** units — one gate advanced by
//! one 64-slot word — so a pass over `G` gates credits `G` gate
//! evaluations.

use atspeed_circuit::{CompiledCircuit, GateId, GateKind};

use crate::comb::Overrides;
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

/// Evaluates one gate by folding its function over the pin span — no
/// staging buffer. The per-kind dispatch is hoisted out of the pin loop so
/// each fold body is a straight run of rail ops the compiler vectorizes.
#[inline]
fn eval_gate(cc: &CompiledCircuit, vals: &[W3], gid: GateId) -> W3 {
    let kind = cc.kind(gid);
    let span = cc.inputs(gid);
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

/// Evaluates one gate with input-pin overrides applied (the rare,
/// flagged-gate path).
#[inline]
fn eval_gate_flagged(cc: &CompiledCircuit, vals: &[W3], gid: GateId, ov: &Overrides) -> W3 {
    let kind = cc.kind(gid);
    let span = cc.inputs(gid);
    let mut acc = ov.apply_gate_pin(gid, 0, vals[span[0].index()]);
    for (pin, &net) in span.iter().enumerate().skip(1) {
        let w = ov.apply_gate_pin(gid, pin as u8, vals[net.index()]);
        acc = combine(kind, acc, w);
    }
    if kind.inverts() {
        acc.not()
    } else {
        acc
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
        for &gid in cc.schedule() {
            vals[cc.output(gid).index()] = eval_gate(cc, vals, gid);
        }
    }

    /// Full levelized pass with fault injection (same override semantics as
    /// the legacy [`CombSim::eval_with`](crate::comb::CombSim::eval_with)):
    /// stem overrides on source nets are applied to the seeded values first.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's net count.
    pub fn eval_with(&self, vals: &mut [W3], ov: &Overrides) {
        let cc = self.cc;
        assert!(vals.len() >= cc.num_nets());
        crate::stats::add_gate_evals(cc.num_gates() as u64);
        for &net in ov.stems() {
            if !cc.gate_driven(net) {
                vals[net.index()] = ov.apply_stem(net, vals[net.index()]);
            }
        }
        for &gid in cc.schedule() {
            let out = if ov.is_gate_flagged(gid) {
                eval_gate_flagged(cc, vals, gid, ov)
            } else {
                eval_gate(cc, vals, gid)
            };
            let onet = cc.output(gid);
            vals[onet.index()] = ov.apply_stem(onet, out);
        }
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
        let mut ov = Overrides::new(&nl);
        let mut r = rng(0xbeef);
        let faults: Vec<_> = u.all_ids().collect();
        for chunk in faults.chunks(63) {
            ov.clear();
            for (k, &fid) in chunk.iter().enumerate() {
                ov.add(u.fault(fid), 1u64 << (k + 1));
            }
            seed_sources(&nl, &mut vals, &mut r);
            let mut reference = vals.clone();
            sim.eval_with(&mut vals, &ov);
            legacy.eval_with(&mut reference, &ov);
            assert_eq!(vals, reference);
        }
    }

    /// Engines reuse one value array across cycles and fault chunks, so a
    /// pass must not read anything but the seeded sources: garbage left
    /// on gate outputs by earlier passes cannot leak into the result.
    #[test]
    fn full_pass_ignores_stale_gate_outputs() {
        let nl = generate(&SynthSpec::new("ks", 6, 4, 9, 200, 21)).unwrap();
        let u = FaultUniverse::full(&nl);
        let sim = CompiledSim::new(nl.compiled());
        let mut ov = Overrides::new(&nl);
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
        let ov = Overrides::new(&nl);
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
