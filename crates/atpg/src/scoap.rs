//! SCOAP testability measures (Goldstein's controllability/observability
//! analysis).
//!
//! SCOAP assigns every net three integer measures:
//!
//! - `CC0(n)` / `CC1(n)` — *combinational controllability*: the minimum
//!   number of input assignments needed to drive net `n` to 0 / 1 (inputs
//!   cost 1);
//! - `CO(n)` — *combinational observability*: the effort to propagate the
//!   value of `n` to an observation point (primary output or flip-flop D
//!   input, which full scan observes), 0 at the observation points
//!   themselves.
//!
//! The measures are computed over the full-scan view (flip-flop outputs are
//! controllable like primary inputs), and indexed like every value array of
//! the compiled circuit: by value slot
//! ([`CompiledCircuit::slot_of`](atspeed_circuit::CompiledCircuit::slot_of)). [`Podem`](crate::podem) uses them to
//! steer its backtrace: when one input of a gate must take the controlling
//! value, picking the *cheapest* X input resolves the objective with the
//! fewest implied assignments; when all inputs must be non-controlling, the
//! *most expensive* input is assigned first so that infeasible objectives
//! fail fast.

use atspeed_circuit::{CompiledCircuit, GateKind, Netlist, Slot};

/// SCOAP measures for every net of a netlist, by value slot.
#[derive(Debug, Clone)]
pub struct Scoap {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

/// Cost cap: redundant/unreachable values saturate here instead of
/// overflowing.
const INF: u32 = u32::MAX / 4;

impl Scoap {
    /// Computes the measures for `nl` over the full-scan view.
    pub fn compute(nl: &Netlist) -> Self {
        Self::compute_with(nl.compiled())
    }

    /// [`Scoap::compute`] over a pre-built compiled view; both passes walk
    /// the flat level schedule and CSR pin spans.
    pub fn compute_with(cc: &CompiledCircuit) -> Self {
        let n = cc.num_nets();
        let mut cc0 = vec![INF; n];
        let mut cc1 = vec![INF; n];
        // Sources: primary inputs and (scanned) flip-flop outputs, the
        // slots below `num_sources`, cost 1.
        cc0[..cc.num_sources()].fill(1);
        cc1[..cc.num_sources()].fill(1);
        // Forward pass in levelized order.
        for &gid in cc.schedule() {
            let ins = cc.inputs(gid);
            let (c_out0, c_out1) = match cc.kind(gid) {
                GateKind::And | GateKind::Nand => {
                    // Output base-0: any input 0; base-1: all inputs 1.
                    let any0 = ins.iter().map(|i| cc0[i.index()]).min().unwrap_or(INF);
                    let all1: u32 = ins
                        .iter()
                        .map(|i| cc1[i.index()])
                        .fold(0u32, |a, b| a.saturating_add(b));
                    (any0.saturating_add(1), all1.saturating_add(1))
                }
                GateKind::Or | GateKind::Nor => {
                    let all0: u32 = ins
                        .iter()
                        .map(|i| cc0[i.index()])
                        .fold(0u32, |a, b| a.saturating_add(b));
                    let any1 = ins.iter().map(|i| cc1[i.index()]).min().unwrap_or(INF);
                    (all0.saturating_add(1), any1.saturating_add(1))
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Cheapest even/odd parity assignment over the inputs.
                    let (even, odd) =
                        parity_costs(ins.iter().map(|i| (cc0[i.index()], cc1[i.index()])));
                    (even.saturating_add(1), odd.saturating_add(1))
                }
                GateKind::Not | GateKind::Buf => (
                    cc0[ins[0].index()].saturating_add(1),
                    cc1[ins[0].index()].saturating_add(1),
                ),
            };
            let out = cc.gate_slot(gid).index();
            if cc.kind(gid).inverts() {
                cc0[out] = c_out1.min(INF);
                cc1[out] = c_out0.min(INF);
            } else {
                cc0[out] = c_out0.min(INF);
                cc1[out] = c_out1.min(INF);
            }
        }

        // Backward pass for observability.
        let mut co = vec![INF; n];
        for (i, c) in co.iter_mut().enumerate() {
            if cc.observed(Slot::from_index(i)) {
                *c = 0;
            }
        }
        for &gid in cc.schedule().iter().rev() {
            let out_co = co[cc.gate_slot(gid).index()];
            if out_co >= INF {
                continue;
            }
            let ins = cc.inputs(gid);
            for (p, &inet) in ins.iter().enumerate() {
                // To observe input p: observe the output and hold every
                // other input at a non-controlling value (for XOR: any
                // binary value; take the cheaper).
                let mut cost = out_co.saturating_add(1);
                for (q, &other) in ins.iter().enumerate() {
                    if q == p {
                        continue;
                    }
                    let side = match cc.kind(gid) {
                        GateKind::And | GateKind::Nand => cc1[other.index()],
                        GateKind::Or | GateKind::Nor => cc0[other.index()],
                        GateKind::Xor | GateKind::Xnor => {
                            cc0[other.index()].min(cc1[other.index()])
                        }
                        GateKind::Not | GateKind::Buf => 0,
                    };
                    cost = cost.saturating_add(side);
                }
                let slot = &mut co[inet.index()];
                *slot = (*slot).min(cost.min(INF));
            }
        }

        Scoap { cc0, cc1, co }
    }

    /// Controllability to 0 of the net in a slot.
    #[inline]
    pub fn cc0(&self, slot: Slot) -> u32 {
        self.cc0[slot.index()]
    }

    /// Controllability to 1 of the net in a slot.
    #[inline]
    pub fn cc1(&self, slot: Slot) -> u32 {
        self.cc1[slot.index()]
    }

    /// Controllability to a given value.
    #[inline]
    pub fn cc(&self, slot: Slot, value: bool) -> u32 {
        if value {
            self.cc1(slot)
        } else {
            self.cc0(slot)
        }
    }

    /// Observability of the net in a slot.
    #[inline]
    pub fn co(&self, slot: Slot) -> u32 {
        self.co[slot.index()]
    }

    /// A combined per-fault difficulty estimate: controllability of the
    /// complement of the stuck value at the site plus its observability.
    /// Useful for ordering deterministic test generation hardest-first or
    /// easiest-first.
    pub fn fault_difficulty(&self, nl: &Netlist, fault: atspeed_sim::fault::Fault) -> u32 {
        use atspeed_sim::fault::FaultSite;
        let net = match fault.site {
            FaultSite::Stem(n) => n,
            FaultSite::GatePin(g, p) => nl.gate(g).inputs()[p as usize],
            FaultSite::FfPin(f) => nl.ff(f).d(),
            FaultSite::PoPin(p) => nl.pos()[p.index()],
        };
        let slot = nl.compiled().slot_of(net);
        self.cc(slot, !fault.stuck).saturating_add(self.co(slot))
    }
}

/// Minimum cost of setting the inputs (given their `(cc0, cc1)` pairs) to
/// an even / odd number of ones: `(even_cost, odd_cost)`.
fn parity_costs(costs: impl Iterator<Item = (u32, u32)>) -> (u32, u32) {
    let mut even = 0u32;
    let mut odd = INF;
    for (c0, c1) in costs {
        let new_even = (even.saturating_add(c0)).min(odd.saturating_add(c1));
        let new_odd = (even.saturating_add(c1)).min(odd.saturating_add(c0));
        even = new_even.min(INF);
        odd = new_odd.min(INF);
    }
    (even, odd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};

    #[test]
    fn inputs_cost_one_and_observed_nets_cost_zero() {
        let nl = s27();
        let s = Scoap::compute(&nl);
        let at = |net| nl.compiled().slot_of(net);
        for &pi in nl.pis() {
            assert_eq!(s.cc0(at(pi)), 1);
            assert_eq!(s.cc1(at(pi)), 1);
        }
        for ff in nl.ffs() {
            assert_eq!(s.cc0(at(ff.q())), 1, "pseudo-PI");
            assert_eq!(s.co(at(ff.d())), 0, "pseudo-PO");
        }
        for &po in nl.pos() {
            assert_eq!(s.co(at(po)), 0);
        }
    }

    #[test]
    fn and_gate_measures() {
        let mut b = NetlistBuilder::new("and2");
        b.input("a");
        b.input("b");
        b.gate(GateKind::And, "y", &["a", "b"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let s = Scoap::compute(&nl);
        let at = |name| nl.compiled().slot_of(nl.find_net(name).unwrap());
        let (y, a) = (at("y"), at("a"));
        // y=0: one input at 0 (cost 1) + 1 = 2; y=1: both at 1 + 1 = 3.
        assert_eq!(s.cc0(y), 2);
        assert_eq!(s.cc1(y), 3);
        // Observing a: y observed (0) + 1 + set b=1 (1) = 2.
        assert_eq!(s.co(a), 2);
    }

    #[test]
    fn nor_gate_inverts_controllabilities() {
        let mut b = NetlistBuilder::new("nor2");
        b.input("a");
        b.input("b");
        b.gate(GateKind::Nor, "y", &["a", "b"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let s = Scoap::compute(&nl);
        let y = nl.compiled().slot_of(nl.find_net("y").unwrap());
        // y=1 needs both inputs 0: 1+1+1 = 3; y=0 needs one input 1: 2.
        assert_eq!(s.cc1(y), 3);
        assert_eq!(s.cc0(y), 2);
    }

    #[test]
    fn xor_parity_costs() {
        let mut b = NetlistBuilder::new("xor2");
        b.input("a");
        b.input("b");
        b.gate(GateKind::Xor, "y", &["a", "b"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let s = Scoap::compute(&nl);
        let y = nl.compiled().slot_of(nl.find_net("y").unwrap());
        // Even parity (00 or 11): 2 + 1 = 3; odd parity likewise 3.
        assert_eq!(s.cc0(y), 3);
        assert_eq!(s.cc1(y), 3);
    }

    #[test]
    fn deeper_nets_cost_more() {
        let mut b = NetlistBuilder::new("chain");
        b.input("a");
        b.gate(GateKind::Buf, "x", &["a"]);
        b.gate(GateKind::Buf, "y", &["x"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let s = Scoap::compute(&nl);
        let at = |name| nl.compiled().slot_of(nl.find_net(name).unwrap());
        let (a, x, y) = (at("a"), at("x"), at("y"));
        assert!(s.cc1(a) < s.cc1(x));
        assert!(s.cc1(x) < s.cc1(y));
        assert!(s.co(a) > s.co(x), "observability decreases toward outputs");
    }

    #[test]
    fn fault_difficulty_reflects_structure() {
        let nl = s27();
        let u = atspeed_sim::fault::FaultUniverse::full(&nl);
        let s = Scoap::compute(&nl);
        let difficulties: Vec<u32> = u
            .representatives()
            .iter()
            .map(|&f| s.fault_difficulty(&nl, u.fault(f)))
            .collect();
        assert!(difficulties.iter().all(|&d| (1..INF).contains(&d)));
        // Not all faults are equally hard.
        assert!(difficulties.iter().min() < difficulties.iter().max());
    }

    #[test]
    fn parity_helper_handles_edge_cases() {
        assert_eq!(parity_costs(std::iter::empty()), (0, INF));
        assert_eq!(parity_costs([(1, 1)].into_iter()), (1, 1));
        assert_eq!(parity_costs([(1, 5), (1, 5)].into_iter()), (2, 6));
    }
}
