//! PODEM combinational test generation over the full-scan view.
//!
//! The full-scan view treats primary inputs and flip-flop outputs
//! (pseudo-primary inputs, set by scan-in) as assignable inputs, and primary
//! outputs plus flip-flop D inputs (pseudo-primary outputs, observed by
//! scan-out) as observation points. PODEM searches over input assignments
//! only, implying all internal values by 3-valued simulation, and is
//! complete: with an unbounded backtrack budget, exhausting the search space
//! proves a fault combinationally untestable.
//!
//! PODEM implies one candidate assignment at a time, so there is no
//! pattern dimension to fill. Instead the good and the faulty machine
//! share one dual-rail [`W3`] word per value slot, bit 0 good and bit 1
//! faulty, and one gate evaluation serves both. Every per-net array is
//! indexed by value slot ([`CompiledCircuit::slot_of`]), so assignable
//! input `i` (the primary inputs, then the flip-flop outputs) is slot `i`,
//! and the fault's nets are converted once per call.
//!
//! Each search step pays only for what it changes. A call starts with one
//! full pass; after that, implication is event-driven: only the ops
//! downstream of the inputs a decision, flip or backtrack changed are
//! re-evaluated, level by level. The two machines can differ only on the
//! fault's fanout cone, which is built once per call, so the D-frontier
//! search, the X-path check and the observation check walk the cone
//! instead of the circuit.

use atspeed_circuit::{CompiledCircuit, Driver, GateId, Netlist, Slot};
use atspeed_sim::fault::{Fault, FaultSite};
use atspeed_sim::{CombTest, V3, W3};
use atspeed_trace::{Counter, Histogram};

use crate::scoap::Scoap;

/// The word bits of the two machines: bit 0 good, bit 1 faulty.
const BOTH: u64 = 0b11;
const FAULTY: u64 = 0b10;

/// Configuration for [`Podem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Abort the search for one fault after this many backtracks.
    pub backtrack_limit: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 400,
        }
    }
}

/// Result of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found; unassigned inputs are X.
    Test(CombTest),
    /// The search space was exhausted: the fault is combinationally
    /// untestable (redundant) in the full-scan view.
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

/// PODEM test generator with reusable scratch state.
///
/// All value propagation (implication, D-frontier scan, X-path check) and
/// the backtrace run over the flat [`CompiledCircuit`] program and CSR pin
/// spans; the netlist is only consulted to find a stem fault's driving
/// gate.
#[derive(Debug)]
pub struct Podem<'a> {
    nl: &'a Netlist,
    cc: &'a CompiledCircuit,
    cfg: PodemConfig,
    /// One value per assignable input: the source slots, primary inputs
    /// then flip-flop outputs, so input `i` is slot `i`.
    assignment: Vec<V3>,
    /// Assignable inputs changed since the last implication.
    changed: Vec<usize>,
    /// Both machines' value per slot (bits 0 and 1; the others stay X).
    vals: Vec<W3>,
    /// How the current fault forces the faulty machine.
    inject: Inject,
    /// The current fault's fanout cone.
    cone: Cone,
    /// Ops awaiting re-evaluation, one bucket per program level.
    buckets: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// Pin scratch for one gate evaluation, as wide as the widest gate.
    gins: Vec<W3>,
    /// X-path reachability per slot; only the current cone's slots are
    /// meaningful.
    reach: Vec<bool>,
    /// SCOAP measures guiding the backtrace input choices.
    scoap: Scoap,
    /// Per-fault search metrics, resolved once from the global registry so
    /// the per-fault hot path never takes the registry lock.
    metrics: PodemMetrics,
}

/// Where the faulty machine departs from the good one.
#[derive(Debug, Clone, Copy)]
struct Inject {
    stuck: bool,
    /// The slot whose value excites the fault (it must carry the
    /// complement of the stuck value).
    site: Slot,
    /// A stem fault's slot: its value is the stuck value.
    stem: Option<Slot>,
    /// A gate-pin fault's op and pin: that pin reads the stuck value.
    pin: Option<(usize, usize)>,
}

/// The slots a fault can make differ, and what lives on them.
///
/// For a stem fault it is the site net and its transitive fanout; for a
/// gate-pin fault, the faulted gate's output and its fanout. Observation-pin
/// faults have an empty cone: their faulty machine equals the good one.
/// The cone is closed under fanout, so no gate outside it reads a net on
/// which the machines differ.
#[derive(Debug)]
struct Cone {
    /// Per slot: inside the cone.
    member: Vec<bool>,
    /// The cone's slots, in discovery order (what `member` marks).
    slots: Vec<Slot>,
    /// The gates writing cone slots, in `schedule()` order.
    gates: Vec<GateId>,
    /// Their ops, in program order.
    ops: Vec<u32>,
    /// The cone's observed slots (primary outputs and flip-flop D nets).
    observed: Vec<Slot>,
}

/// The lowest and highest levels holding queued ops.
struct Pending {
    lo: usize,
    hi: usize,
}

/// Handles into the global metrics registry for PODEM search telemetry.
#[derive(Debug)]
struct PodemMetrics {
    backtracks: Histogram,
    decision_depth: Histogram,
    tests: Counter,
    untestable: Counter,
    aborted: Counter,
}

impl PodemMetrics {
    fn resolve() -> Self {
        let m = atspeed_trace::metrics::global();
        PodemMetrics {
            backtracks: m.histogram("podem/backtracks"),
            decision_depth: m.histogram("podem/decision_depth"),
            tests: m.counter("podem/tests"),
            untestable: m.counter("podem/untestable"),
            aborted: m.counter("podem/aborted"),
        }
    }
}

impl<'a> Podem<'a> {
    /// Creates a generator for `nl`.
    pub fn new(nl: &'a Netlist, cfg: PodemConfig) -> Self {
        let cc = nl.compiled();
        let widest = cc.ops().map(|(_, _, ins)| ins.len()).max().unwrap_or(0);
        Podem {
            nl,
            cc,
            cfg,
            assignment: vec![V3::X; cc.num_sources()],
            changed: Vec::new(),
            vals: vec![W3::ALL_X; cc.num_nets()],
            inject: Inject {
                stuck: false,
                site: Slot::from_index(0),
                stem: None,
                pin: None,
            },
            cone: Cone {
                member: vec![false; cc.num_nets()],
                slots: Vec::new(),
                gates: Vec::new(),
                ops: Vec::new(),
                observed: Vec::new(),
            },
            buckets: vec![Vec::new(); cc.max_level() as usize + 1],
            queued: vec![false; cc.num_gates()],
            gins: vec![W3::ALL_X; widest],
            reach: vec![false; cc.num_nets()],
            scoap: Scoap::compute_with(cc),
            metrics: PodemMetrics::resolve(),
        }
    }

    /// Attempts to generate a test for `fault`.
    ///
    /// Each call is one span (`"podem"`) when tracing is enabled, and
    /// records the search's backtrack count and maximum decision depth in
    /// the global metric histograms, plus one outcome counter.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        // The fault label costs an allocation, so it is only rendered when
        // a trace is actually being recorded; the report tooling uses it
        // to rank the slowest PODEM searches by fault.
        let _sp = if atspeed_trace::tracing_enabled() {
            let desc = fault.describe(self.nl);
            atspeed_trace::span_args("podem", &[("fault", &desc)])
        } else {
            atspeed_trace::span("podem")
        };
        let mut backtracks = 0usize;
        let mut max_depth = 0usize;
        let outcome = self.search(fault, &mut backtracks, &mut max_depth);
        self.metrics.backtracks.record(backtracks as u64);
        self.metrics.decision_depth.record(max_depth as u64);
        match outcome {
            PodemOutcome::Test(_) => self.metrics.tests.inc(),
            PodemOutcome::Untestable => self.metrics.untestable.inc(),
            PodemOutcome::Aborted => self.metrics.aborted.inc(),
        }
        outcome
    }

    fn search(
        &mut self,
        fault: Fault,
        backtracks_out: &mut usize,
        max_depth_out: &mut usize,
    ) -> PodemOutcome {
        self.assignment.fill(V3::X);
        self.changed.clear();
        self.build_cone(fault);
        self.full_pass();

        // Decision: (input index, value, flipped-already).
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;
        let outcome = loop {
            if self.error_observed(fault) {
                break PodemOutcome::Test(self.make_test());
            }
            let step = self
                .objective(fault)
                .and_then(|(slot, val)| self.backtrace(slot, val));
            match step {
                Some((input, value)) => {
                    decisions.push((input, value, false));
                    *max_depth_out = (*max_depth_out).max(decisions.len());
                    self.assign(input, V3::from_bool(value));
                    self.imply();
                }
                None => {
                    let mut verdict = None;
                    loop {
                        match decisions.pop() {
                            None => {
                                verdict = Some(PodemOutcome::Untestable);
                                break;
                            }
                            Some((input, _, true)) => {
                                self.assign(input, V3::X);
                            }
                            Some((input, value, false)) => {
                                backtracks += 1;
                                if backtracks > self.cfg.backtrack_limit {
                                    // Restore a clean assignment before leaving.
                                    self.assignment.fill(V3::X);
                                    verdict = Some(PodemOutcome::Aborted);
                                    break;
                                }
                                decisions.push((input, !value, true));
                                self.assign(input, V3::from_bool(!value));
                                self.imply();
                                break;
                            }
                        }
                    }
                    if let Some(v) = verdict {
                        break v;
                    }
                }
            }
        };
        *backtracks_out = backtracks;
        outcome
    }

    /// Records the fault's site and forcing, converting its nets to slots
    /// once, and marks its fanout cone, clearing only what the previous
    /// fault marked.
    fn build_cone(&mut self, fault: Fault) {
        let cc = self.cc;
        let site = match fault.site {
            FaultSite::Stem(n) => cc.slot_of(n),
            FaultSite::GatePin(g, p) => cc.inputs(g)[p as usize],
            FaultSite::FfPin(f) => cc.ff_d(f),
            FaultSite::PoPin(p) => cc.pos()[p.index()],
        };
        self.inject = Inject {
            stuck: fault.stuck,
            site,
            stem: None,
            pin: None,
        };
        let cone = &mut self.cone;
        for slot in cone.slots.drain(..) {
            cone.member[slot.index()] = false;
        }
        cone.gates.clear();
        cone.ops.clear();
        cone.observed.clear();
        // The seed slot, and the gate writing it if any.
        let (seed, driver) = match fault.site {
            FaultSite::Stem(net) => {
                self.inject.stem = Some(site);
                match self.nl.driver(net) {
                    Driver::Gate(g) => (site, Some(g)),
                    _ => (site, None),
                }
            }
            FaultSite::GatePin(g, p) => {
                self.inject.pin = Some((cc.op_of(g), usize::from(p)));
                (cc.gate_slot(g), Some(g))
            }
            FaultSite::FfPin(_) | FaultSite::PoPin(_) => return,
        };
        cone.member[seed.index()] = true;
        cone.slots.push(seed);
        cone.gates.extend(driver);
        let mut next = 0;
        while let Some(&slot) = cone.slots.get(next) {
            next += 1;
            for &g in cc.fanout_gates(slot) {
                let out = cc.gate_slot(g);
                if !cone.member[out.index()] {
                    cone.member[out.index()] = true;
                    cone.slots.push(out);
                    cone.gates.push(g);
                }
            }
        }
        for &slot in &cone.slots {
            if cc.observed(slot) {
                cone.observed.push(slot);
            }
        }
        cone.ops
            .extend(cone.gates.iter().map(|&g| cc.op_of(g) as u32));
        cone.gates.sort_unstable_by_key(|&g| (cc.gate_level(g), g));
        cone.ops.sort_unstable();
    }

    fn assign(&mut self, input: usize, value: V3) {
        self.assignment[input] = value;
        self.changed.push(input);
    }

    /// Evaluates both machines over the whole program from the current
    /// assignment.
    fn full_pass(&mut self) {
        for i in 0..self.assignment.len() {
            self.set_input(i);
        }
        for op in 0..self.cc.num_gates() {
            self.eval_op(op);
        }
    }

    /// Brings both machines up to date with the inputs changed since the
    /// last implication, re-evaluating only the ops downstream of them.
    fn imply(&mut self) {
        let mut pending = Pending {
            lo: usize::MAX,
            hi: 0,
        };
        for k in 0..self.changed.len() {
            let input = self.changed[k];
            if self.set_input(input) {
                self.schedule_fanout(Slot::from_index(input), &mut pending);
            }
        }
        self.changed.clear();
        let mut level = pending.lo;
        while level <= pending.hi {
            while let Some(op) = self.buckets[level].pop() {
                let op = op as usize;
                self.queued[op] = false;
                if self.eval_op(op) {
                    self.schedule_fanout(self.cc.op_slot(op), &mut pending);
                }
            }
            level += 1;
        }
        if cfg!(debug_assertions) {
            let vals = self.vals.clone();
            self.full_pass();
            assert!(
                vals == self.vals,
                "event-driven implication differs from a full pass"
            );
        }
    }

    /// Queues the ops reading `slot`. They sit at higher levels than its
    /// driver, so the bucket being drained never receives an op.
    fn schedule_fanout(&mut self, slot: Slot, pending: &mut Pending) {
        let cc = self.cc;
        for &g in cc.fanout_gates(slot) {
            let op = cc.op_of(g);
            if !self.queued[op] {
                self.queued[op] = true;
                let level = cc.gate_level(g) as usize;
                self.buckets[level].push(op as u32);
                pending.lo = pending.lo.min(level);
                pending.hi = pending.hi.max(level);
            }
        }
    }

    /// Copies assignable input `input` into both machines (its slot is
    /// `input`); returns whether its value changed.
    fn set_input(&mut self, input: usize) -> bool {
        let mut w = match self.assignment[input].to_bool() {
            Some(b) => W3::ALL_X.force(b, BOTH),
            None => W3::ALL_X,
        };
        if self.inject.stem == Some(Slot::from_index(input)) {
            w = w.force(self.inject.stuck, FAULTY);
        }
        let changed = self.vals[input] != w;
        self.vals[input] = w;
        changed
    }

    /// Evaluates op `op` in both machines at once; returns whether its
    /// output changed.
    fn eval_op(&mut self, op: usize) -> bool {
        let cc = self.cc;
        let out = cc.op_slot(op);
        let ins = cc.op_inputs(op);
        for (p, &pin) in ins.iter().enumerate() {
            self.gins[p] = self.vals[pin.index()];
        }
        if let Some((pin_op, pin)) = self.inject.pin {
            if pin_op == op {
                self.gins[pin] = self.gins[pin].force(self.inject.stuck, FAULTY);
            }
        }
        let mut w = W3::eval_gate(cc.op_kind(op), &self.gins[..ins.len()]);
        if self.inject.stem == Some(out) {
            w = w.force(self.inject.stuck, FAULTY);
        }
        let changed = self.vals[out.index()] != w;
        self.vals[out.index()] = w;
        changed
    }

    fn good(&self, slot: Slot) -> V3 {
        self.vals[slot.index()].get(0)
    }

    fn error_observed(&self, fault: Fault) -> bool {
        match fault.site {
            // Observation-pin faults are detected as soon as the observed
            // net carries the complement of the stuck value.
            FaultSite::FfPin(_) | FaultSite::PoPin(_) => {
                self.good(self.inject.site) == V3::from_bool(!fault.stuck)
            }
            _ => self
                .cone
                .observed
                .iter()
                .any(|&o| differs(self.vals[o.index()])),
        }
    }

    /// Picks the next objective `(slot, value)`, or `None` to backtrack.
    fn objective(&mut self, fault: Fault) -> Option<(Slot, bool)> {
        let site = self.inject.site;
        let want = !fault.stuck;
        match self.good(site) {
            V3::X => return Some((site, want)),
            v if v == V3::from_bool(fault.stuck) => return None,
            _ => {}
        }
        if matches!(fault.site, FaultSite::FfPin(_) | FaultSite::PoPin(_)) {
            // Excited observation-pin fault is already detected; being here
            // means excitation failed, which the arm above handled.
            return None;
        }
        // Fault excited: advance the D-frontier.
        self.d_frontier_objective(fault)
    }

    /// Finds a D-frontier gate with an X input and an X-path to an
    /// observable, and returns the objective that feeds it a
    /// non-controlling value.
    ///
    /// Only cone gates can read a net on which the machines differ, so
    /// walking the cone in `schedule()` order finds the same first gate as
    /// walking the whole schedule.
    fn d_frontier_objective(&mut self, fault: Fault) -> Option<(Slot, bool)> {
        self.xpath_reach();
        let cc = self.cc;
        for &gid in &self.cone.gates {
            let out = cc.gate_slot(gid);
            // Output already resolved in both machines: not frontier.
            if !is_x(self.vals[out.index()]) {
                continue;
            }
            if !self.reach[out.index()] {
                continue;
            }
            let mut has_error_input = false;
            let mut x_input: Option<Slot> = None;
            for (p, &pin) in cc.inputs(gid).iter().enumerate() {
                let mut w = self.vals[pin.index()];
                if let FaultSite::GatePin(fg, fp) = fault.site {
                    if fg == gid && usize::from(fp) == p {
                        w = w.force(fault.stuck, FAULTY);
                    }
                }
                if differs(w) {
                    has_error_input = true;
                } else if w.get(0) == V3::X && x_input.is_none() {
                    x_input = Some(pin);
                }
            }
            if has_error_input {
                if let Some(pin) = x_input {
                    let value = match cc.kind(gid).controlling_value() {
                        Some(c) => !c,
                        // XOR-class and buffers propagate for any binary
                        // side value; prefer 0.
                        None => false,
                    };
                    return Some((pin, value));
                }
            }
        }
        None
    }

    /// Marks the cone slots from which an observable is reachable through
    /// composite-X slots. A path from a cone slot stays in the cone, so one
    /// reverse sweep of the cone's ops decides every cone slot; marks left
    /// on the inputs feeding the cone are never read.
    fn xpath_reach(&mut self) {
        let Podem {
            cc,
            vals,
            cone,
            reach,
            ..
        } = self;
        for &slot in &cone.slots {
            reach[slot.index()] = false;
        }
        for &o in &cone.observed {
            if is_x(vals[o.index()]) {
                reach[o.index()] = true;
            }
        }
        // Reverse program order is reverse level order.
        for &op in cone.ops.iter().rev() {
            let out = cc.op_slot(op as usize);
            if !reach[out.index()] || !is_x(vals[out.index()]) {
                continue;
            }
            for &pin in cc.op_inputs(op as usize) {
                if is_x(vals[pin.index()]) {
                    reach[pin.index()] = true;
                }
            }
        }
    }

    /// Walks an objective back to an unassigned input; `None` on dead end.
    /// A source slot is the assignable input of the same index.
    fn backtrace(&self, mut slot: Slot, mut value: bool) -> Option<(usize, bool)> {
        loop {
            match self.cc.slot_op(slot) {
                None => {
                    let i = slot.index();
                    return (self.assignment[i] == V3::X).then_some((i, value));
                }
                Some(op) => {
                    let kind = self.cc.op_kind(op);
                    let base = if kind.inverts() { !value } else { value };
                    match kind {
                        atspeed_circuit::GateKind::Not | atspeed_circuit::GateKind::Buf => {
                            slot = self.cc.op_inputs(op)[0];
                            value = base;
                        }
                        atspeed_circuit::GateKind::Xor | atspeed_circuit::GateKind::Xnor => {
                            // Choose the easiest-to-control X input (SCOAP);
                            // aim for the parity implied by the known inputs.
                            let mut chosen: Option<Slot> = None;
                            let mut parity = false;
                            for &pin in self.cc.op_inputs(op) {
                                match self.good(pin) {
                                    V3::X => {
                                        let cost =
                                            |s: Slot| self.scoap.cc0(s).min(self.scoap.cc1(s));
                                        if chosen.is_none_or(|c| cost(pin) < cost(c)) {
                                            chosen = Some(pin);
                                        }
                                    }
                                    V3::One => parity = !parity,
                                    _ => {}
                                }
                            }
                            slot = chosen?;
                            value = base ^ parity;
                        }
                        _ => {
                            let c = kind
                                .controlling_value()
                                .expect("AND/OR-class gate has a controlling value");
                            // If the base function must output its
                            // controlled value (0 for AND, 1 for OR), one
                            // controlling input suffices; otherwise every
                            // input must be non-controlling. Either way the
                            // next objective sets an X input.
                            let want_controlling = match kind {
                                atspeed_circuit::GateKind::And
                                | atspeed_circuit::GateKind::Nand => !base,
                                atspeed_circuit::GateKind::Or | atspeed_circuit::GateKind::Nor => {
                                    base
                                }
                                _ => unreachable!("XOR/NOT/BUF handled above"),
                            };
                            let target = if want_controlling { c } else { !c };
                            // SCOAP guidance: when one controlling input
                            // suffices, take the cheapest X input; when all
                            // inputs must be non-controlling, take the
                            // hardest first so infeasible goals fail fast.
                            let mut chosen: Option<Slot> = None;
                            for &pin in self.cc.op_inputs(op) {
                                if self.good(pin) != V3::X {
                                    continue;
                                }
                                let cost = self.scoap.cc(pin, target);
                                let better = match chosen {
                                    None => true,
                                    Some(cur) => {
                                        let cur_cost = self.scoap.cc(cur, target);
                                        if want_controlling {
                                            cost < cur_cost
                                        } else {
                                            cost > cur_cost
                                        }
                                    }
                                };
                                if better {
                                    chosen = Some(pin);
                                }
                            }
                            slot = chosen?;
                            value = target;
                        }
                    }
                }
            }
        }
    }

    fn make_test(&self) -> CombTest {
        let n_pi = self.nl.num_pis();
        CombTest::new(
            self.assignment[n_pi..].to_vec(),
            self.assignment[..n_pi].to_vec(),
        )
    }
}

/// Whether a net is composite X: X in the good or the faulty machine.
fn is_x(w: W3) -> bool {
    w.known() & BOTH != BOTH
}

/// Whether the machines carry opposite binary values on a net.
fn differs(w: W3) -> bool {
    ((w.zero & (w.one >> 1)) | (w.one & (w.zero >> 1))) & 1 != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};
    use atspeed_sim::fault::FaultUniverse;
    use atspeed_sim::CombFaultSim;

    fn verify_test(nl: &Netlist, fault_id: atspeed_sim::FaultId, test: &CombTest) -> bool {
        let u = FaultUniverse::full(nl);
        let mut sim = CombFaultSim::new(nl);
        sim.detect_block(std::slice::from_ref(test), &[fault_id], &u)[0] & 1 != 0
    }

    #[test]
    fn generates_verified_tests_for_all_s27_faults() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut podem = Podem::new(&nl, PodemConfig::default());
        for &fid in u.representatives() {
            match podem.generate(u.fault(fid)) {
                PodemOutcome::Test(t) => {
                    assert!(
                        verify_test(&nl, fid, &t),
                        "generated test misses {}",
                        u.fault(fid).describe(&nl)
                    );
                }
                other => panic!(
                    "s27 fault {} should be testable, got {other:?}",
                    u.fault(fid).describe(&nl)
                ),
            }
        }
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        // y = OR(a, NOT(a)) is constantly 1: y stuck-at-1 is untestable.
        let mut b = NetlistBuilder::new("red");
        b.input("a");
        b.gate(GateKind::Not, "an", &["a"]);
        b.gate(GateKind::Or, "y", &["a", "an"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        let y = nl.find_net("y").unwrap();
        let fid = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(y),
                        stuck: true,
                    }
            })
            .unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default());
        assert_eq!(podem.generate(u.fault(fid)), PodemOutcome::Untestable);
    }

    #[test]
    fn detects_testable_fault_in_redundant_circuit() {
        let mut b = NetlistBuilder::new("red2");
        b.input("a");
        b.input("b");
        b.gate(GateKind::Not, "an", &["a"]);
        b.gate(GateKind::Or, "t", &["a", "an"]);
        b.gate(GateKind::And, "y", &["t", "b"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        let bnet = nl.find_net("b").unwrap();
        let fid = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(bnet),
                        stuck: false,
                    }
            })
            .unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default());
        match podem.generate(u.fault(fid)) {
            PodemOutcome::Test(t) => assert!(verify_test(&nl, fid, &t)),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn pseudo_inputs_are_assignable() {
        // A fault only excitable through the flip-flop state.
        let mut b = NetlistBuilder::new("st");
        b.input("a");
        b.dff("q", "d");
        b.gate(GateKind::And, "d", &["a", "q"]);
        b.gate(GateKind::Buf, "y", &["q"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        let q = nl.find_net("q").unwrap();
        let fid = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(q),
                        stuck: false,
                    }
            })
            .unwrap();
        let mut podem = Podem::new(&nl, PodemConfig::default());
        match podem.generate(u.fault(fid)) {
            PodemOutcome::Test(t) => {
                assert_eq!(t.state[0], V3::One, "must scan in q=1 to excite q/0");
                assert!(verify_test(&nl, fid, &t));
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_circuit_faults_are_mostly_testable() {
        use atspeed_circuit::synth::{generate, SynthSpec};
        let nl = generate(&SynthSpec::new("pt", 4, 2, 5, 80, 11)).unwrap();
        let u = FaultUniverse::full(&nl);
        let mut podem = Podem::new(&nl, PodemConfig::default());
        let mut tested = 0usize;
        let mut verified = 0usize;
        for &fid in u.representatives() {
            if let PodemOutcome::Test(t) = podem.generate(u.fault(fid)) {
                tested += 1;
                if verify_test(&nl, fid, &t) {
                    verified += 1;
                }
            }
        }
        assert!(tested > 0);
        assert_eq!(
            tested, verified,
            "every PODEM test must be confirmed by fault simulation"
        );
        // Synthetic circuits are largely irredundant.
        assert!(
            tested * 10 >= u.num_collapsed() * 8,
            "testable {tested}/{}",
            u.num_collapsed()
        );
    }

    #[test]
    fn wide_gates_get_tests() {
        // A 17-input and a 256-input AND, past the old 16-pin scratch.
        let names: Vec<String> = (0..atspeed_circuit::MAX_FANIN)
            .map(|i| format!("i{i}"))
            .collect();
        let pins: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = NetlistBuilder::new("wide");
        for n in &pins {
            b.input(n);
        }
        b.gate(GateKind::And, "w17", &pins[..17]);
        b.gate(GateKind::And, "w256", &pins);
        b.output("w17");
        b.output("w256");
        let nl = b.finish().unwrap();
        let u = FaultUniverse::full(&nl);
        let mut podem = Podem::new(&nl, PodemConfig::default());
        for (net, width) in [("w17", 17), ("w256", 256)] {
            let fault = Fault {
                site: FaultSite::Stem(nl.find_net(net).unwrap()),
                stuck: false,
            };
            let fid = u.all_ids().find(|&id| u.fault(id) == fault).unwrap();
            match podem.generate(fault) {
                PodemOutcome::Test(t) => {
                    assert!(t.inputs[..width].iter().all(|&v| v == V3::One), "{net}");
                    assert!(verify_test(&nl, fid, &t), "{net}");
                }
                other => panic!("{net} stuck-at-0 should be testable, got {other:?}"),
            }
        }
    }

    /// The search works on value slots, so it must make the same decisions
    /// on a copy of a circuit whose nets are interned in reverse order
    /// (same gates, inputs and flip-flops, so the same slots, under other
    /// net ids): same outcome, test, backtracks and depth for every fault.
    #[test]
    fn search_does_not_depend_on_net_numbering() {
        use atspeed_circuit::synth::{generate, SynthSpec};
        use atspeed_circuit::NetId;
        let nl = generate(&SynthSpec::new("renum", 6, 3, 8, 200, 5)).unwrap();
        let name = |net: NetId| nl.net_name(net);
        let mut b = NetlistBuilder::new("renum");
        for i in (0..nl.num_nets()).rev() {
            b.net(name(NetId::from_index(i)));
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
        let copy = b.finish().unwrap();
        assert_ne!(nl.pis()[0], copy.pis()[0], "the copy renumbers the nets");
        let u = FaultUniverse::full(&nl);
        let mut a = Podem::new(&nl, PodemConfig::default());
        let mut b = Podem::new(&copy, PodemConfig::default());
        for &fid in u.representatives() {
            let fault = u.fault(fid);
            let site = match fault.site {
                FaultSite::Stem(net) => FaultSite::Stem(copy.find_net(name(net)).unwrap()),
                other => other,
            };
            let moved = Fault { site, ..fault };
            let (mut bt_a, mut depth_a, mut bt_b, mut depth_b) = (0, 0, 0, 0);
            assert_eq!(
                a.search(fault, &mut bt_a, &mut depth_a),
                b.search(moved, &mut bt_b, &mut depth_b),
                "{}",
                fault.describe(&nl)
            );
            assert_eq!((bt_a, depth_a), (bt_b, depth_b), "{}", fault.describe(&nl));
        }
    }

    /// Pins the search itself, not just its verdicts: a change to which
    /// decisions PODEM makes moves one of these totals. Backtracks and
    /// maximum decision depths are summed over faults; specified bits are
    /// the non-X bits of the tests found.
    #[test]
    fn search_totals_are_pinned() {
        use atspeed_circuit::catalog;
        // (circuit, faults, tests, untestable, aborted, backtracks,
        //  sum of max depth, specified bits)
        let expected = [
            ("s298", 538, 479, 50, 9, 8_712, 4_893, 4_488),
            ("b03", 740, 721, 11, 8, 3_640, 9_097, 8_793),
            ("b06", 258, 216, 42, 0, 905, 1_297, 1_060),
        ];
        for (name, faults, tests, untestable, aborted, backtracks, depth, bits) in expected {
            let nl = catalog::by_name(name).unwrap().instantiate();
            let u = FaultUniverse::full(&nl);
            let mut podem = Podem::new(&nl, PodemConfig::default());
            let mut got = (0usize, 0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
            for &fid in u.representatives() {
                let (mut bt, mut max_depth) = (0usize, 0usize);
                match podem.search(u.fault(fid), &mut bt, &mut max_depth) {
                    PodemOutcome::Test(t) => {
                        got.1 += 1;
                        got.6 += t
                            .state
                            .iter()
                            .chain(&t.inputs)
                            .filter(|v| v.is_known())
                            .count();
                    }
                    PodemOutcome::Untestable => got.2 += 1,
                    PodemOutcome::Aborted => got.3 += 1,
                }
                got.0 += 1;
                got.4 += bt;
                got.5 += max_depth;
            }
            assert_eq!(
                got,
                (faults, tests, untestable, aborted, backtracks, depth, bits),
                "{name}: (faults, tests, untestable, aborted, backtracks, depth, bits)"
            );
        }
    }
}
