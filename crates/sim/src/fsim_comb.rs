//! Parallel-pattern single-fault (PPSFP) combinational fault simulation
//! over the full-scan view.
//!
//! In a full-scan circuit a test with a one-vector primary-input sequence is
//! equivalent to a combinational test: the scan-in state and the primary
//! inputs drive the combinational core, and the primary outputs plus the
//! captured next state (scanned out) are observed. This module simulates up
//! to 64 such tests per pass (one per word slot) and propagates each fault
//! event-driven through its fanout cone, which is orders of magnitude faster
//! than re-evaluating the whole circuit per fault.

use atspeed_circuit::{CompiledCircuit, Driver, GateId, Netlist, Slot};

use crate::comb::{inject, CombSim};
use crate::fault::{FaultId, FaultSite, FaultUniverse};
use crate::kernel::CompiledSim;
use crate::logic::{V3, W3};
use crate::vectors::State;

/// A combinational (single-vector, full-scan) test: a scan-in state and one
/// primary-input vector. This is a test `c_j = (c_js, c_jv)` of the paper's
/// combinational test set `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombTest {
    /// Scan-in state (one value per flip-flop).
    pub state: State,
    /// Primary-input vector.
    pub inputs: Vec<V3>,
}

impl CombTest {
    /// Creates a test from a state and input vector.
    pub fn new(state: State, inputs: Vec<V3>) -> Self {
        CombTest { state, inputs }
    }
}

/// PPSFP fault simulator with reusable scratch state.
///
/// Evaluation runs over the netlist's [`CompiledCircuit`] view: the good
/// machine is a full compiled levelized pass, and each fault's propagation
/// walks the compiled CSR fanout spans event-driven through level buckets.
/// Every value array is indexed by the circuit's value slots
/// ([`CompiledCircuit::slot_of`]); a stem fault's net is converted once
/// per fault.
#[derive(Debug)]
pub struct CombFaultSim<'a> {
    nl: &'a Netlist,
    cc: &'a CompiledCircuit,
    good: Vec<W3>,
    fval: Vec<W3>,
    has_fval: Vec<bool>,
    touched: Vec<Slot>,
    buckets: Vec<Vec<GateId>>,
    in_queue: Vec<bool>,
    processed: Vec<GateId>,
    counted: bool,
}

impl<'a> CombFaultSim<'a> {
    /// Creates a simulator for `nl`.
    pub fn new(nl: &'a Netlist) -> Self {
        let cc = nl.compiled();
        CombFaultSim {
            nl,
            cc,
            good: vec![W3::ALL_X; cc.num_nets()],
            fval: vec![W3::ALL_X; cc.num_nets()],
            has_fval: vec![false; cc.num_nets()],
            touched: Vec::new(),
            buckets: vec![Vec::new(); cc.max_level() as usize + 2],
            in_queue: vec![false; cc.num_gates()],
            processed: Vec::new(),
            counted: true,
        }
    }

    /// A simulator whose calls add no fault-simulation invocation:
    /// [`ParallelFsim`](crate::parallel::ParallelFsim) counts each of its
    /// own calls once and runs its partitions on these.
    pub(crate) fn uncounted(nl: &'a Netlist) -> Self {
        CombFaultSim {
            counted: false,
            ..CombFaultSim::new(nl)
        }
    }

    fn count_invocation(&self) {
        if self.counted {
            crate::stats::add_invocation();
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// Simulates one block of up to 64 tests against `faults`.
    ///
    /// Returns, per fault, the mask of test slots that detect it.
    ///
    /// # Panics
    ///
    /// Panics if `tests` is empty or longer than 64, or if test widths do
    /// not match the netlist.
    pub fn detect_block(
        &mut self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<u64> {
        assert!(
            !tests.is_empty() && tests.len() <= 64,
            "1..=64 tests per block"
        );
        self.count_invocation();
        self.seed_and_eval_good(tests);
        faults
            .iter()
            .map(|&fid| self.propagate_one(fid, universe))
            .collect()
    }

    /// Runs the whole test list (in blocks of 64) against `faults` with
    /// fault dropping; returns which faults some test detects.
    pub fn detect_all(
        &mut self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<bool> {
        self.count_invocation();
        let mut detected = vec![false; faults.len()];
        let mut alive: Vec<usize> = (0..faults.len()).collect();
        for block in tests.chunks(64) {
            if alive.is_empty() {
                break;
            }
            self.seed_and_eval_good(block);
            let before = alive.len();
            alive.retain(|&k| {
                let mask = self.propagate_one(faults[k], universe);
                if mask != 0 {
                    detected[k] = true;
                    false
                } else {
                    true
                }
            });
            crate::stats::add_dropped((before - alive.len()) as u64);
        }
        detected
    }

    /// Computes the full detection matrix without dropping: for each fault,
    /// one bit per test, packed into `ceil(tests/64)` words. Used by
    /// Phase 3 of the paper to compute `n(f)` and `last(f)`.
    pub fn detect_matrix(
        &mut self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<Vec<u64>> {
        self.count_invocation();
        let words = tests.len().div_ceil(64);
        let mut matrix = vec![vec![0u64; words]; faults.len()];
        for (b, block) in tests.chunks(64).enumerate() {
            self.seed_and_eval_good(block);
            for (k, &fid) in faults.iter().enumerate() {
                matrix[k][b] = self.propagate_one(fid, universe);
            }
        }
        matrix
    }

    fn seed_and_eval_good(&mut self, tests: &[CombTest]) {
        let cc = self.cc;
        // The primary inputs hold slots `0..pis`, the flip-flop outputs the
        // slots after them.
        let (pis, ffs) = (cc.num_pis(), cc.num_ffs());
        for i in 0..pis {
            let mut w = W3::ALL_X;
            for (s, t) in tests.iter().enumerate() {
                debug_assert_eq!(t.inputs.len(), pis, "input width mismatch");
                w.set(s, t.inputs[i]);
            }
            self.good[i] = w;
        }
        for f in 0..ffs {
            let mut w = W3::ALL_X;
            for (s, t) in tests.iter().enumerate() {
                debug_assert_eq!(t.state.len(), ffs, "state width mismatch");
                w.set(s, t.state[f]);
            }
            self.good[pis + f] = w;
        }
        CompiledSim::new(cc).eval(&mut self.good);
    }

    /// Event-driven single-fault propagation; returns the detect mask.
    fn propagate_one(&mut self, fid: FaultId, universe: &FaultUniverse) -> u64 {
        let fault = universe.fault(fid);
        // Pin faults at observation points never propagate through logic.
        match fault.site {
            FaultSite::FfPin(ff) => {
                let g = self.good[self.cc.ff_d(ff).index()];
                return if fault.stuck { g.zero } else { g.one };
            }
            FaultSite::PoPin(po) => {
                let g = self.good[self.cc.pos()[po.index()].index()];
                return if fault.stuck { g.zero } else { g.one };
            }
            _ => {}
        }

        debug_assert!(self.touched.is_empty() && self.processed.is_empty());
        let mut min_level = u32::MAX;
        // A stem fault's slot, looked up once per fault.
        let stem = match fault.site {
            FaultSite::Stem(net) => {
                let slot = self.cc.slot_of(net);
                let g = self.good[slot.index()];
                let fv = g.force(fault.stuck, u64::MAX);
                if fv != g {
                    self.set_fval(slot, fv);
                    min_level = self.schedule_sinks(slot, min_level);
                }
                Some(slot)
            }
            FaultSite::GatePin(gate, _) => {
                min_level = self.schedule_gate(gate, min_level);
                None
            }
            FaultSite::FfPin(_) | FaultSite::PoPin(_) => unreachable!(),
        };

        if min_level != u32::MAX {
            let mut level = min_level as usize;
            while level < self.buckets.len() {
                while let Some(gid) = self.buckets[level].pop() {
                    self.eval_faulty_gate(gid, fault, stem);
                }
                level += 1;
            }
        }

        // Collect detections at observed slots, then reset scratch state.
        let mut mask = 0u64;
        for &slot in &self.touched {
            let differs = self.good[slot.index()].diff_known(self.fval[slot.index()]);
            if differs != 0 && self.cc.observed(slot) {
                mask |= differs;
            }
        }
        for slot in self.touched.drain(..) {
            self.has_fval[slot.index()] = false;
        }
        crate::stats::add_gate_evals(self.processed.len() as u64);
        crate::stats::add_events_skipped(self.cc.num_gates() as u64 - self.processed.len() as u64);
        for gid in self.processed.drain(..) {
            self.in_queue[gid.index()] = false;
        }
        mask
    }

    #[inline]
    fn set_fval(&mut self, slot: Slot, w: W3) {
        if !self.has_fval[slot.index()] {
            self.has_fval[slot.index()] = true;
            self.touched.push(slot);
        }
        self.fval[slot.index()] = w;
    }

    #[inline]
    fn value_of(&self, slot: Slot) -> W3 {
        if self.has_fval[slot.index()] {
            self.fval[slot.index()]
        } else {
            self.good[slot.index()]
        }
    }

    fn schedule_sinks(&mut self, slot: Slot, mut min_level: u32) -> u32 {
        let cc = self.cc;
        for &gid in cc.fanout_gates(slot) {
            min_level = self.schedule_gate(gid, min_level);
        }
        min_level
    }

    fn schedule_gate(&mut self, gid: GateId, min_level: u32) -> u32 {
        let level = self.cc.gate_level(gid);
        if !self.in_queue[gid.index()] {
            self.in_queue[gid.index()] = true;
            self.processed.push(gid);
            self.buckets[level as usize].push(gid);
        }
        min_level.min(level)
    }

    /// Evaluates gate `gid` in the faulty machine; `stem` is the slot a
    /// stem fault forces.
    fn eval_faulty_gate(&mut self, gid: GateId, fault: crate::fault::Fault, stem: Option<Slot>) {
        let cc = self.cc;
        let op = cc.op_of(gid);
        let kind = cc.op_kind(op);
        let span = cc.op_inputs(op);
        // Fold the gate function over the compiled pin span, applying the
        // single injected pin fault (if it lands here) in the stream.
        let mut acc = W3::ALL_X;
        for (p, &pin) in span.iter().enumerate() {
            let mut w = self.value_of(pin);
            if let FaultSite::GatePin(fg, fp) = fault.site {
                if fg == gid && fp == p as u8 {
                    w = w.force(fault.stuck, u64::MAX);
                }
            }
            acc = if p == 0 {
                w
            } else {
                crate::kernel::combine(kind, acc, w)
            };
        }
        let out = if kind.inverts() { acc.not() } else { acc };
        let oslot = cc.op_slot(op);
        // A stem fault downstream of itself cannot occur (acyclic), but
        // reconvergence can route through the fault slot only if the gate
        // drives it — keep the forced value authoritative.
        let out = if stem == Some(oslot) {
            out.force(fault.stuck, u64::MAX)
        } else {
            out
        };
        if out != self.value_of(oslot) {
            self.set_fval(oslot, out);
            for &g2 in cc.fanout_gates(oslot) {
                self.schedule_gate(g2, u32::MAX);
            }
        }
    }

    /// Brute-force reference: full re-evaluation per fault (used by tests
    /// as the differential oracle for the event-driven core). The walker
    /// works on nets, so it reads the compiled good machine through
    /// `slot_of`.
    pub fn detect_block_bruteforce(
        &mut self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<u64> {
        use atspeed_circuit::{FfId, PoId};
        assert!(!tests.is_empty() && tests.len() <= 64);
        self.seed_and_eval_good(tests);
        let cc = self.cc;
        let good: Vec<W3> = self
            .nl
            .net_ids()
            .map(|net| self.good[cc.slot_of(net).index()])
            .collect();
        let mut sim = CombSim::new(self.nl);
        let mut out = Vec::with_capacity(faults.len());
        let mut vals = vec![W3::ALL_X; self.nl.num_nets()];
        for &fid in faults {
            let injected = [(universe.fault(fid), u64::MAX)];
            // Re-seed sources.
            for net in self.nl.net_ids() {
                if !matches!(self.nl.driver(net), Driver::Gate(_)) {
                    vals[net.index()] = good[net.index()];
                }
            }
            sim.eval_with(&mut vals, &injected);
            let mut mask = 0u64;
            for (k, &po) in self.nl.pos().iter().enumerate() {
                let site = FaultSite::PoPin(PoId::from_index(k));
                let w = inject(&injected, site, vals[po.index()]);
                mask |= good[po.index()].diff_known(w);
            }
            for (f, ff) in self.nl.ffs().iter().enumerate() {
                let site = FaultSite::FfPin(FfId::from_index(f));
                let w = inject(&injected, site, vals[ff.d().index()]);
                mask |= good[ff.d().index()].diff_known(w);
            }
            out.push(mask);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::parse_values;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::synth::{generate, SynthSpec};

    fn s27_tests() -> Vec<CombTest> {
        // Exhaustive over 3 state bits x 4 input bits.
        let mut tests = Vec::new();
        for st in 0..8u32 {
            for pv in 0..16u32 {
                tests.push(CombTest::new(
                    (0..3).map(|b| V3::from_bool(st & (1 << b) != 0)).collect(),
                    (0..4).map(|b| V3::from_bool(pv & (1 << b) != 0)).collect(),
                ));
            }
        }
        tests
    }

    #[test]
    fn event_driven_matches_bruteforce_on_s27() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut sim = CombFaultSim::new(&nl);
        let tests = s27_tests();
        let faults: Vec<FaultId> = u.all_ids().collect();
        for block in tests.chunks(64) {
            let fast = sim.detect_block(block, &faults, &u);
            let slow = sim.detect_block_bruteforce(block, &faults, &u);
            for (k, (&a, &b)) in fast.iter().zip(slow.iter()).enumerate() {
                assert_eq!(
                    a,
                    b,
                    "fault {} differs: event {:#x} brute {:#x}",
                    u.fault(faults[k]).describe(&nl),
                    a,
                    b
                );
            }
        }
    }

    #[test]
    fn event_driven_matches_bruteforce_on_synthetic() {
        let nl = generate(&SynthSpec::new("diff", 5, 3, 8, 120, 99)).unwrap();
        let u = FaultUniverse::full(&nl);
        let mut sim = CombFaultSim::new(&nl);
        // Deterministic pseudo-random block of tests.
        let mut x = 0x12345678u64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let tests: Vec<CombTest> = (0..64)
            .map(|_| {
                CombTest::new(
                    (0..nl.num_ffs())
                        .map(|_| V3::from_bool(rnd() & 1 == 1))
                        .collect(),
                    (0..nl.num_pis())
                        .map(|_| V3::from_bool(rnd() & 1 == 1))
                        .collect(),
                )
            })
            .collect();
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let fast = sim.detect_block(&tests, &faults, &u);
        let slow = sim.detect_block_bruteforce(&tests, &faults, &u);
        let mismatches: Vec<String> = faults
            .iter()
            .enumerate()
            .filter(|(k, _)| fast[*k] != slow[*k])
            .map(|(_k, &f)| u.fault(f).describe(&nl))
            .collect();
        assert!(mismatches.is_empty(), "mismatches: {mismatches:?}");
    }

    #[test]
    fn matrix_matches_blockwise_detection() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut sim = CombFaultSim::new(&nl);
        let tests = s27_tests();
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let matrix = sim.detect_matrix(&tests, &faults, &u);
        let detected = sim.detect_all(&tests, &faults, &u);
        for (k, row) in matrix.iter().enumerate() {
            let any = row.iter().any(|&w| w != 0);
            assert_eq!(any, detected[k]);
        }
    }

    #[test]
    fn x_state_limits_detection() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut sim = CombFaultSim::new(&nl);
        // All-X scan state: many faults become undetectable by one vector.
        let t_x = vec![CombTest::new(parse_values("xxx"), parse_values("1010"))];
        let t_bin = vec![CombTest::new(parse_values("010"), parse_values("1010"))];
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let det_x: usize = sim
            .detect_block(&t_x, &faults, &u)
            .iter()
            .filter(|&&m| m != 0)
            .count();
        let det_bin: usize = sim
            .detect_block(&t_bin, &faults, &u)
            .iter()
            .filter(|&&m| m != 0)
            .count();
        assert!(
            det_x <= det_bin,
            "X state cannot detect more ({det_x} vs {det_bin})"
        );
    }

    #[test]
    fn dropping_stops_simulation_of_detected_faults() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut sim = CombFaultSim::new(&nl);
        let tests = s27_tests();
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let det = sim.detect_all(&tests, &faults, &u);
        // s27 is fully testable: every representative must fall.
        assert!(det.iter().all(|&d| d), "all s27 faults detectable");
    }

    #[test]
    #[should_panic(expected = "1..=64 tests per block")]
    fn rejects_oversized_block() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut sim = CombFaultSim::new(&nl);
        let t = CombTest::new(parse_values("000"), parse_values("0000"));
        let tests = vec![t; 65];
        let _ = sim.detect_block(&tests, &[], &u);
    }
}
