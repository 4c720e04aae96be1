//! The single stuck-at fault model and structural equivalence collapsing.
//!
//! The fault universe contains, for both stuck-at-0 and stuck-at-1:
//!
//! - a **stem** fault on every net (primary inputs, gate outputs, flip-flop
//!   outputs), and
//! - a **branch** fault on every consumer pin of nets with fanout greater
//!   than one (gate input pins, flip-flop D inputs, primary-output
//!   positions). Pins of fanout-free nets are equivalent to the stem and are
//!   not enumerated separately.
//!
//! Structural equivalence collapsing merges the classic gate-local classes
//! (for example, any AND input stuck-at-0 with the AND output stuck-at-0;
//! a flip-flop behaves as a buffer). On the embedded s27 fixture this yields
//! the well-known counts of 52 total and 32 collapsed faults.

use std::collections::HashMap;
use std::fmt;

use atspeed_circuit::{FfId, GateId, GateKind, NetId, Netlist, PoId, Sink};

/// Where a stuck-at fault is located.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// On a net's stem, affecting every consumer.
    Stem(NetId),
    /// On one gate input pin, affecting only that gate.
    GatePin(GateId, u8),
    /// On a flip-flop's D input, affecting only the captured value.
    FfPin(FfId),
    /// On one primary-output position.
    PoPin(PoId),
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// The fault's location.
    pub site: FaultSite,
    /// The stuck value: `true` for stuck-at-1.
    pub stuck: bool,
}

impl Fault {
    /// Renders the fault in the conventional `net[/pin] s-a-v` notation.
    pub fn describe(&self, nl: &Netlist) -> String {
        let v = u8::from(self.stuck);
        match self.site {
            FaultSite::Stem(n) => format!("{} s-a-{v}", nl.net_name(n)),
            FaultSite::GatePin(g, p) => {
                let gate = nl.gate(g);
                format!(
                    "{}->{} s-a-{v}",
                    nl.net_name(gate.inputs()[p as usize]),
                    nl.net_name(gate.output()),
                )
            }
            FaultSite::FfPin(f) => format!("{}->DFF s-a-{v}", nl.net_name(nl.ff(f).d())),
            FaultSite::PoPin(p) => format!("PO{} s-a-{v}", p.index()),
        }
    }
}

/// Identifies a fault within a [`FaultUniverse`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultId(u32);

impl FaultId {
    /// The dense index of this fault.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a fault id from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        FaultId(u32::try_from(i).expect("fault index overflow"))
    }
}

impl fmt::Debug for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// The complete collapsed stuck-at fault universe of a netlist.
#[derive(Debug, Clone)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
    class_of: Vec<u32>,
    representatives: Vec<FaultId>,
}

impl FaultUniverse {
    /// Enumerates and collapses all stuck-at faults of `nl`.
    pub fn full(nl: &Netlist) -> Self {
        let mut faults = Vec::new();
        // Stems for every net, in net order: sa0 then sa1.
        for net in nl.net_ids() {
            faults.push(Fault {
                site: FaultSite::Stem(net),
                stuck: false,
            });
            faults.push(Fault {
                site: FaultSite::Stem(net),
                stuck: true,
            });
        }
        // Branch faults on pins of fanout stems.
        for net in nl.net_ids() {
            let sinks = nl.fanouts(net);
            if sinks.len() <= 1 {
                continue;
            }
            for &sink in sinks {
                let site = match sink {
                    Sink::GatePin(g, p) => FaultSite::GatePin(g, p),
                    Sink::FfD(f) => FaultSite::FfPin(f),
                    Sink::Po(p) => FaultSite::PoPin(p),
                };
                faults.push(Fault { site, stuck: false });
                faults.push(Fault { site, stuck: true });
            }
        }

        let lookup: HashMap<(FaultSite, bool), u32> = faults
            .iter()
            .enumerate()
            .map(|(i, f)| ((f.site, f.stuck), i as u32))
            .collect();
        let index_of = |site: FaultSite, stuck: bool, _faults: &[Fault]| -> u32 {
            *lookup
                .get(&(site, stuck))
                .expect("fault exists in universe")
        };
        // Union-find for equivalence collapsing.
        let mut parent: Vec<u32> = (0..faults.len() as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        let union = |parent: &mut Vec<u32>, a: u32, b: u32| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                // Keep the smaller index as the class representative.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi as usize] = lo;
            }
        };

        // The fault handle for the value feeding a sink pin: the pin's own
        // branch fault when the source net fans out, else the source stem.
        let pin_handle = |net: NetId, sink: Sink, stuck: bool, faults: &[Fault]| -> u32 {
            if nl.fanouts(net).len() > 1 {
                let site = match sink {
                    Sink::GatePin(g, p) => FaultSite::GatePin(g, p),
                    Sink::FfD(f) => FaultSite::FfPin(f),
                    Sink::Po(p) => FaultSite::PoPin(p),
                };
                index_of(site, stuck, faults)
            } else {
                index_of(FaultSite::Stem(net), stuck, faults)
            }
        };

        for (gi, g) in nl.gates().iter().enumerate() {
            let gid = GateId::from_index(gi);
            let out = g.output();
            let out_f = |stuck: bool| index_of(FaultSite::Stem(out), stuck, &faults);
            for (p, &inet) in g.inputs().iter().enumerate() {
                let sink = Sink::GatePin(gid, p as u8);
                match g.kind() {
                    GateKind::And => union(
                        &mut parent,
                        pin_handle(inet, sink, false, &faults),
                        out_f(false),
                    ),
                    GateKind::Nand => union(
                        &mut parent,
                        pin_handle(inet, sink, false, &faults),
                        out_f(true),
                    ),
                    GateKind::Or => union(
                        &mut parent,
                        pin_handle(inet, sink, true, &faults),
                        out_f(true),
                    ),
                    GateKind::Nor => union(
                        &mut parent,
                        pin_handle(inet, sink, true, &faults),
                        out_f(false),
                    ),
                    GateKind::Buf => {
                        union(
                            &mut parent,
                            pin_handle(inet, sink, false, &faults),
                            out_f(false),
                        );
                        union(
                            &mut parent,
                            pin_handle(inet, sink, true, &faults),
                            out_f(true),
                        );
                    }
                    GateKind::Not => {
                        union(
                            &mut parent,
                            pin_handle(inet, sink, false, &faults),
                            out_f(true),
                        );
                        union(
                            &mut parent,
                            pin_handle(inet, sink, true, &faults),
                            out_f(false),
                        );
                    }
                    GateKind::Xor | GateKind::Xnor => {}
                }
            }
        }
        // Note: faults are deliberately NOT collapsed across flip-flops.
        // In a scan circuit the D and Q sides of a flip-flop are distinct
        // observation/control points: a Q-stem fault corrupts the scanned-in
        // state while a D-side fault corrupts the captured value before
        // scan-out, so the two are not equivalent under scan operations.

        let class_of: Vec<u32> = (0..faults.len() as u32)
            .map(|i| find(&mut parent, i))
            .collect();
        let mut representatives: Vec<FaultId> = class_of
            .iter()
            .enumerate()
            .filter(|(i, &c)| *i as u32 == c)
            .map(|(i, _)| FaultId::from_index(i))
            .collect();
        representatives.sort_unstable();

        FaultUniverse {
            faults,
            class_of,
            representatives,
        }
    }

    /// Total number of faults before collapsing.
    #[inline]
    pub fn num_faults(&self) -> usize {
        self.faults.len()
    }

    /// Number of equivalence classes (the paper's reported fault counts).
    #[inline]
    pub fn num_collapsed(&self) -> usize {
        self.representatives.len()
    }

    /// The fault with the given id.
    #[inline]
    pub fn fault(&self, id: FaultId) -> Fault {
        self.faults[id.index()]
    }

    /// One representative fault per equivalence class, ascending by id.
    /// Simulating representatives decides detection for every class member.
    #[inline]
    pub fn representatives(&self) -> &[FaultId] {
        &self.representatives
    }

    /// The representative of `id`'s equivalence class.
    #[inline]
    pub fn class_of(&self, id: FaultId) -> FaultId {
        FaultId(self.class_of[id.index()])
    }

    /// Iterates over all fault ids (uncollapsed).
    pub fn all_ids(&self) -> impl Iterator<Item = FaultId> + '_ {
        (0..self.faults.len()).map(FaultId::from_index)
    }

    /// The net whose value the fault corrupts (the branch's source net for
    /// pin faults).
    pub fn site_net(&self, nl: &Netlist, id: FaultId) -> NetId {
        match self.fault(id).site {
            FaultSite::Stem(n) => n,
            FaultSite::GatePin(g, p) => nl.gate(g).inputs()[p as usize],
            FaultSite::FfPin(f) => nl.ff(f).d(),
            FaultSite::PoPin(p) => nl.pos()[p.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};

    #[test]
    fn s27_fault_counts_match_classic_values() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        assert_eq!(u.num_faults(), 52, "uncollapsed");
        assert_eq!(u.num_collapsed(), 32, "collapsed");
    }

    #[test]
    fn representatives_are_class_fixpoints() {
        let u = FaultUniverse::full(&s27());
        for &rep in u.representatives() {
            assert_eq!(u.class_of(rep), rep);
        }
        for id in u.all_ids() {
            let c = u.class_of(id);
            assert_eq!(u.class_of(c), c, "class_of is idempotent");
            assert!(c <= id, "representative is the smallest member");
        }
    }

    #[test]
    fn classes_partition_the_universe() {
        let u = FaultUniverse::full(&s27());
        let covered: usize = u
            .all_ids()
            .filter(|&id| u.representatives().contains(&u.class_of(id)))
            .count();
        assert_eq!(covered, u.num_faults());
    }

    #[test]
    fn inverter_chain_collapses_fully() {
        // a -> NOT x -> NOT y: all faults collapse to 2 classes
        // (a s-a-0 ≡ x s-a-1 ≡ y s-a-0, and the complements).
        let mut b = NetlistBuilder::new("chain");
        b.input("a");
        b.gate(GateKind::Not, "x", &["a"]);
        b.gate(GateKind::Not, "y", &["x"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        assert_eq!(u.num_faults(), 6);
        assert_eq!(u.num_collapsed(), 2);
    }

    #[test]
    fn and_gate_collapsing() {
        // y = AND(a, b): a/0 ≡ b/0 ≡ y/0, so 6 faults -> 4 classes.
        let mut b = NetlistBuilder::new("and2");
        b.input("a");
        b.input("b");
        b.gate(GateKind::And, "y", &["a", "b"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        assert_eq!(u.num_faults(), 6);
        assert_eq!(u.num_collapsed(), 4);
    }

    #[test]
    fn xor_gate_does_not_collapse() {
        let mut b = NetlistBuilder::new("xor2");
        b.input("a");
        b.input("b");
        b.gate(GateKind::Xor, "y", &["a", "b"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        assert_eq!(u.num_faults(), 6);
        assert_eq!(u.num_collapsed(), 6);
    }

    #[test]
    fn fanout_creates_branch_faults() {
        // a feeds two gates: 2 stems for a + 2 branches per pin.
        let mut b = NetlistBuilder::new("fan");
        b.input("a");
        b.gate(GateKind::Not, "x", &["a"]);
        b.gate(GateKind::Buf, "y", &["a"]);
        b.output("x");
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        // Nets: a, x, y -> 6 stems; branches on a's two pins -> 4.
        assert_eq!(u.num_faults(), 10);
        // NOT collapses pin faults into x stems; BUF into y stems;
        // a's stem faults remain distinct: 6 classes.
        assert_eq!(u.num_collapsed(), 6);
    }

    #[test]
    fn ff_boundary_is_not_collapsed() {
        let mut b = NetlistBuilder::new("dffc");
        b.input("a");
        b.dff("q", "d");
        b.gate(GateKind::Not, "d", &["a"]);
        b.gate(GateKind::Not, "y", &["q"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        // Chain a -NOT- d -DFF- q -NOT- y: the inverters collapse their own
        // pin/stem pairs, but the flip-flop boundary keeps the D-side and
        // Q-side classes apart (scan controls/observes them separately):
        // {a/0 ≡ d/1, a/1 ≡ d/0, q/0 ≡ y/1, q/1 ≡ y/0}.
        assert_eq!(u.num_collapsed(), 4);
    }

    #[test]
    fn describe_names_sites() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let descriptions: Vec<String> = u
            .representatives()
            .iter()
            .map(|&id| u.fault(id).describe(&nl))
            .collect();
        assert!(descriptions.iter().any(|d| d.contains("s-a-0")));
        assert!(descriptions.iter().any(|d| d.contains("s-a-1")));
    }

    #[test]
    fn site_net_resolves_pins() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        for id in u.all_ids() {
            let net = u.site_net(&nl, id);
            assert!(net.index() < nl.num_nets());
        }
    }
}
