//! Sequential (cycle-accurate) simulation and parallel-fault fault
//! simulation.
//!
//! The fault simulator packs the good machine into slot 0 of every word and
//! up to 63 faulty machines into the remaining slots (the classic
//! parallel-fault organization). Detection is recorded when a primary
//! output is binary in both machines and differs; scanning out additionally
//! observes the flip-flop state, and [`SeqFaultSim::profiles`] records the
//! full per-cycle state-difference sets that Phase 1 of the paper uses to
//! choose the scan-out time unit.

use atspeed_circuit::{CompiledCircuit, FfId, Netlist, PoId};

use crate::fault::{FaultId, FaultUniverse};
use crate::kernel::{CompiledSim, Overrides};
use crate::logic::{V3, W3};
use crate::vectors::{Sequence, State};

/// Fault-free trace of a sequence: per-cycle primary-output values and the
/// captured flip-flop state after each cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoodTrace {
    /// `po_values[t][k]` is primary output `k` during cycle `t`.
    pub po_values: Vec<Vec<V3>>,
    /// `states[t]` is the flip-flop state captured at the end of cycle `t`
    /// (what a scan-out performed after cycle `t` would shift out).
    pub states: Vec<State>,
}

/// Fault-free sequential simulator: one full compiled pass per cycle.
#[derive(Debug, Clone, Copy)]
pub struct SeqSim<'a> {
    nl: &'a Netlist,
}

impl<'a> SeqSim<'a> {
    /// Creates a simulator for `nl`.
    pub fn new(nl: &'a Netlist) -> Self {
        SeqSim { nl }
    }

    /// Simulates `seq` from the initial state `init` (use all-X for a
    /// circuit that has not been scan-loaded).
    ///
    /// # Panics
    ///
    /// Panics if `init` or the sequence width do not match the netlist.
    pub fn run(&self, init: &State, seq: &Sequence) -> GoodTrace {
        assert_eq!(init.len(), self.nl.num_ffs(), "state width mismatch");
        let cc = self.nl.compiled();
        let sim = CompiledSim::new(cc);
        let mut vals = vec![W3::ALL_X; cc.num_nets()];
        let mut state: Vec<W3> = init.iter().map(|&v| W3::broadcast(v)).collect();
        let mut po_values = Vec::with_capacity(seq.len());
        let mut states = Vec::with_capacity(seq.len());
        for t in 0..seq.len() {
            let vec = seq.vector(t);
            assert_eq!(vec.len(), self.nl.num_pis(), "input width mismatch");
            seed_sources(cc, &mut vals, vec, &state);
            sim.eval(&mut vals);
            po_values.push(cc.pos().iter().map(|&po| vals[po.index()].get(0)).collect());
            for (f, &d) in cc.ff_ds().iter().enumerate() {
                state[f] = vals[d.index()];
            }
            states.push(state.iter().map(|w| w.get(0)).collect());
        }
        GoodTrace { po_values, states }
    }
}

/// Per-fault detection profile over a sequence, produced by
/// [`SeqFaultSim::profiles`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DetectionProfile {
    /// Earliest cycle at which a primary output detects the fault, if any.
    pub po_detect: Option<u32>,
    /// Bit `t` set ⇒ the faulty flip-flop state differs observably from the
    /// good state at the end of cycle `t` (a scan-out after cycle `t`
    /// detects the fault).
    pub state_diff: Vec<u64>,
}

impl DetectionProfile {
    fn set_state_diff(&mut self, t: usize) {
        let word = t / 64;
        if self.state_diff.len() <= word {
            self.state_diff.resize(word + 1, 0);
        }
        self.state_diff[word] |= 1 << (t % 64);
    }

    /// Whether a scan-out at the end of cycle `t` observes a state
    /// difference.
    pub fn state_diff_at(&self, t: usize) -> bool {
        self.state_diff
            .get(t / 64)
            .is_some_and(|w| w & (1 << (t % 64)) != 0)
    }

    /// Whether the prefix test `(SI, T[0, i])` followed by a scan-out
    /// detects the fault (the predicate of the paper's Step 3).
    pub fn detected_by_prefix(&self, i: usize) -> bool {
        self.po_detect.is_some_and(|d| (d as usize) <= i) || self.state_diff_at(i)
    }

    /// The earliest cycle whose prefix test detects the fault: the minimum
    /// of the primary-output detection time and the first state-difference
    /// cycle. `None` when the sequence never detects the fault.
    pub fn earliest_detection(&self) -> Option<u32> {
        let first_sd = self
            .state_diff
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| (i * 64) as u32 + w.trailing_zeros());
        match (self.po_detect, first_sd) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// What is observed at the end of a test, in addition to the primary
/// outputs watched every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalObserve<'m> {
    /// Nothing — no scan-out (e.g. a scan-less sequence `T_0`).
    None,
    /// The whole flip-flop state (full scan-out).
    FullState,
    /// Only the flip-flops marked `true` (partial scan-out).
    PartialState(&'m [bool]),
}

/// Where each fault of a list stands at the end of a sequence applied
/// without a scan-out, produced by [`SeqFaultSim::end_states`]: detected at
/// a primary output, or the faulty flip-flop state.
/// [`SeqFaultSim::detects_all_from`] resumes simulation from it.
///
/// A state is packed 64 flip-flops per [`W3`] (bit `f % 64` of word
/// `f / 64` is flip-flop `f`) with both rails kept, so an unknown value
/// stays unknown: `⌈FFs / 64⌉ × 16` bytes per fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndStates {
    num_ffs: usize,
    ff_words: usize,
    /// The recorded faults, in the order they were given.
    faults: Vec<FaultId>,
    /// `po_detected[k]`: a primary output detected `faults[k]`.
    po_detected: Vec<bool>,
    /// The good machine's end state; `None` only when every word stopped
    /// early, and then no fault is left to resume.
    good: Option<Vec<W3>>,
    /// `ff_words` words per fault (all X for a detected fault).
    faulty: Vec<W3>,
}

impl EndStates {
    fn new(num_ffs: usize) -> Self {
        EndStates {
            num_ffs,
            ff_words: num_ffs.div_ceil(64),
            faults: Vec::new(),
            po_detected: Vec::new(),
            good: None,
            faulty: Vec::new(),
        }
    }

    /// Whether a primary output detected the fault at position `k` during
    /// the recorded sequence.
    pub(crate) fn po_detected(&self, k: usize) -> bool {
        self.po_detected[k]
    }

    fn faulty(&self, k: usize) -> &[W3] {
        &self.faulty[k * self.ff_words..(k + 1) * self.ff_words]
    }

    /// Appends the record of the faults that follow this record's in the
    /// list: the concatenation of the two fault lists' records.
    pub(crate) fn append(&mut self, other: EndStates) {
        debug_assert_eq!(self.num_ffs, other.num_ffs, "record width mismatch");
        self.faults.extend(other.faults);
        self.po_detected.extend(other.po_detected);
        self.faulty.extend(other.faulty);
        if self.good.is_none() {
            self.good = other.good;
        }
    }
}

/// Parallel-fault sequential fault simulator with reusable buffers.
///
/// Evaluates over the netlist's [`CompiledCircuit`]: every cycle of each
/// 63-fault chunk is one full compiled pass under the chunk's injected
/// overrides, into a net value array reused across cycles and chunks.
#[derive(Debug)]
pub struct SeqFaultSim<'a> {
    nl: &'a Netlist,
    cc: &'a CompiledCircuit,
    vals: Vec<W3>,
    ov: Overrides<'a>,
    counted: bool,
}

/// How many faulty machines ride along with the good machine per pass.
pub const FAULTS_PER_PASS: usize = 63;

impl<'a> SeqFaultSim<'a> {
    /// Creates a fault simulator for `nl`.
    pub fn new(nl: &'a Netlist) -> Self {
        let cc = nl.compiled();
        SeqFaultSim {
            nl,
            cc,
            vals: vec![W3::ALL_X; cc.num_nets()],
            ov: Overrides::new(cc),
            counted: true,
        }
    }

    /// A simulator whose calls add no fault-simulation invocation:
    /// [`ParallelFsim`](crate::parallel::ParallelFsim) counts each of its
    /// own calls once and runs its partitions on these.
    pub(crate) fn uncounted(nl: &'a Netlist) -> Self {
        SeqFaultSim {
            counted: false,
            ..SeqFaultSim::new(nl)
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

    /// Fault-simulates `seq` from `init` under `faults` and returns which
    /// were detected. Primary outputs are observed every cycle; when
    /// `observe_final_state` is set the flip-flop state after the last
    /// cycle is also observed (modeling a scan-out).
    ///
    /// Detection requires the good and faulty values to be binary and
    /// opposite — X differences never count.
    pub fn detect(
        &mut self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe_final_state: bool,
    ) -> Vec<bool> {
        let observe = if observe_final_state {
            FinalObserve::FullState
        } else {
            FinalObserve::None
        };
        self.detect_observed(init, seq, faults, universe, observe)
    }

    /// Like [`SeqFaultSim::detect`], with explicit control over the final
    /// observation — [`FinalObserve::PartialState`] models a partial scan
    /// chain that shifts out only a subset of the flip-flops.
    pub fn detect_observed(
        &mut self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> Vec<bool> {
        self.count_invocation();
        let mut detected = vec![false; faults.len()];
        let mut state = Vec::with_capacity(init.len());
        for (chunk_idx, chunk) in faults.chunks(FAULTS_PER_PASS).enumerate() {
            let base = chunk_idx * FAULTS_PER_PASS;
            broadcast_into(init, &mut state);
            let caught = self.simulate_chunk(&mut state, seq, chunk, universe, observe);
            for (k, _) in chunk.iter().enumerate() {
                if caught & (1u64 << (k + 1)) != 0 {
                    detected[base + k] = true;
                }
            }
        }
        detected
    }

    /// Whether `seq` detects *every* fault in `faults` — equivalent to
    /// `detect(..).iter().all(|&d| d)` but exits on the first 63-fault
    /// chunk that finishes with an undetected member, skipping the
    /// remaining chunks entirely. This is the accept/reject predicate of
    /// vector omission, where most rejections lose a fault early.
    pub fn detects_all(
        &mut self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe_final_state: bool,
    ) -> bool {
        self.count_invocation();
        let observe = if observe_final_state {
            FinalObserve::FullState
        } else {
            FinalObserve::None
        };
        let mut state = Vec::with_capacity(init.len());
        for chunk in faults.chunks(FAULTS_PER_PASS) {
            broadcast_into(init, &mut state);
            let caught = self.simulate_chunk(&mut state, seq, chunk, universe, observe);
            if caught != active_mask(chunk.len()) {
                return false;
            }
        }
        true
    }

    /// Records where each of `faults` stands at the end of `seq` applied
    /// from `init` without a scan-out: detected at a primary output, or its
    /// faulty flip-flop state. [`SeqFaultSim::detects_all_from`] resumes
    /// from the record, so a test `(init, seq · suffix)` can be checked by
    /// simulating `suffix` alone.
    pub fn end_states(
        &mut self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> EndStates {
        self.count_invocation();
        let mut rec = EndStates::new(init.len());
        let mut state = Vec::with_capacity(init.len());
        for chunk in faults.chunks(FAULTS_PER_PASS) {
            broadcast_into(init, &mut state);
            let caught = self.simulate_chunk(&mut state, seq, chunk, universe, FinalObserve::None);
            // A word stops early only once every fault in it is detected;
            // any other word ran every cycle and holds the end state.
            let ran_every_cycle = caught != active_mask(chunk.len());
            if ran_every_cycle && rec.good.is_none() {
                let mut good = Vec::with_capacity(rec.ff_words);
                pack_slot(&state, 0, &mut good);
                rec.good = Some(good);
            }
            for (k, &fid) in chunk.iter().enumerate() {
                let detected = caught & (1u64 << (k + 1)) != 0;
                rec.faults.push(fid);
                rec.po_detected.push(detected);
                if detected {
                    let len = rec.faulty.len() + rec.ff_words;
                    rec.faulty.resize(len, W3::ALL_X);
                } else {
                    pack_slot(&state, k + 1, &mut rec.faulty);
                }
            }
        }
        rec
    }

    /// Whether applying `suffix` from the record `rec`, followed by a
    /// scan-out, detects every fault at the positions `which` of the
    /// record's fault list. The faults a primary output already detected
    /// during the recorded sequence count as detected; the rest are packed
    /// [`FAULTS_PER_PASS`] per word from their recorded states, and the
    /// call returns false at the first word that ends with an undetected
    /// fault.
    ///
    /// Each slot evolves independently, so for `rec = end_states(init,
    /// seq, faults)` the verdict equals [`SeqFaultSim::detects_all`] on
    /// `(init, seq · suffix)` with a scan-out.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of the record's range, or if the record
    /// was taken on a circuit with another flip-flop count.
    pub fn detects_all_from(
        &mut self,
        rec: &EndStates,
        suffix: &Sequence,
        which: &[usize],
        universe: &FaultUniverse,
    ) -> bool {
        self.count_invocation();
        assert_eq!(rec.num_ffs, self.nl.num_ffs(), "record width mismatch");
        let open: Vec<usize> = which
            .iter()
            .copied()
            .filter(|&k| !rec.po_detected(k))
            .collect();
        let mut state = vec![W3::ALL_X; rec.num_ffs];
        let mut chunk = Vec::with_capacity(FAULTS_PER_PASS);
        for word in open.chunks(FAULTS_PER_PASS) {
            let good = rec
                .good
                .as_deref()
                .expect("a fault left open at the end ran in a word that ran every cycle");
            for (f, w) in state.iter_mut().enumerate() {
                *w = W3::broadcast(good[f / 64].get(f % 64));
            }
            chunk.clear();
            for (k, &pos) in word.iter().enumerate() {
                unpack_slot(rec.faulty(pos), k + 1, &mut state);
                chunk.push(rec.faults[pos]);
            }
            let caught = self.simulate_chunk(
                &mut state,
                suffix,
                &chunk,
                universe,
                FinalObserve::FullState,
            );
            if caught != active_mask(chunk.len()) {
                return false;
            }
        }
        true
    }

    /// Simulates one chunk of up to [`FAULTS_PER_PASS`] faults over `seq`
    /// from the per-slot flip-flop values in `state`, and returns the
    /// caught-slot mask (bit `k+1` set ⇒ `chunk[k]` detected). Exits early
    /// once every active slot is caught; otherwise `state` ends holding the
    /// state after the last cycle, which `observe` then inspects.
    fn simulate_chunk(
        &mut self,
        state: &mut [W3],
        seq: &Sequence,
        chunk: &[FaultId],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> u64 {
        let active = active_mask(chunk.len());
        self.ov.clear();
        for (k, &fid) in chunk.iter().enumerate() {
            self.ov.add(universe.fault(fid), 1u64 << (k + 1));
        }
        let mut caught = 0u64;
        for t in 0..seq.len() {
            self.eval_cycle(seq, t, state);
            caught |= self.po_diff_mask() & active;
            self.capture(state);
            if caught == active {
                return caught;
            }
        }
        match observe {
            FinalObserve::None => {}
            FinalObserve::FullState => caught |= state_diff_mask(state) & active,
            FinalObserve::PartialState(mask) => caught |= masked_state_diff(state, mask) & active,
        }
        caught
    }

    /// Fault-simulates `seq` from `init` and returns the full detection
    /// profile of every fault: the earliest primary-output detection cycle
    /// and the set of cycles whose end-of-cycle state differs observably.
    ///
    /// A fault's state-difference set is only tracked up to its
    /// primary-output detection (later prefixes detect it regardless), which
    /// is exactly what [`DetectionProfile::detected_by_prefix`] needs.
    pub fn profiles(
        &mut self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<DetectionProfile> {
        self.profiles_bounded(init, seq, faults, universe, usize::MAX)
            .0
    }

    /// [`SeqFaultSim::profiles`] with a memory bound: each fault's
    /// state-difference bitset is truncated to its first
    /// `max_state_words × 64` cycles, and the number of set bits dropped by
    /// the cap is returned alongside the profiles.
    ///
    /// Truncation only *under-claims* detection — a dropped bit means a
    /// scan-out that would detect the fault is not credited, so consumers
    /// keep extra vectors or generate redundant top-up tests; they never
    /// claim coverage that does not exist. The bound is applied per fault
    /// by absolute cycle index, so the result (profiles *and* the truncated
    /// count) is identical however the fault list is chunked or partitioned
    /// across threads.
    pub fn profiles_bounded(
        &mut self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        max_state_words: usize,
    ) -> (Vec<DetectionProfile>, u64) {
        self.count_invocation();
        let mut truncated = 0u64;
        let mut profiles = vec![DetectionProfile::default(); faults.len()];
        for (chunk_idx, chunk) in faults.chunks(FAULTS_PER_PASS).enumerate() {
            let base = chunk_idx * FAULTS_PER_PASS;
            let active = active_mask(chunk.len());
            self.ov.clear();
            for (k, &fid) in chunk.iter().enumerate() {
                self.ov.add(universe.fault(fid), 1u64 << (k + 1));
            }
            let mut po_done = 0u64;
            let mut state: Vec<W3> = init.iter().map(|&v| W3::broadcast(v)).collect();
            for t in 0..seq.len() {
                self.eval_cycle(seq, t, &state);
                let po_mask = self.po_diff_mask() & active & !po_done;
                if po_mask != 0 {
                    for k in 0..chunk.len() {
                        if po_mask & (1u64 << (k + 1)) != 0 {
                            profiles[base + k].po_detect = Some(t as u32);
                        }
                    }
                    po_done |= po_mask;
                }
                self.capture(&mut state);
                let sd = state_diff_mask(&state) & active & !po_done;
                if sd != 0 {
                    for k in 0..chunk.len() {
                        if sd & (1u64 << (k + 1)) != 0 {
                            if t / 64 < max_state_words {
                                profiles[base + k].set_state_diff(t);
                            } else {
                                truncated += 1;
                            }
                        }
                    }
                }
                if po_done == active {
                    break;
                }
            }
        }
        (profiles, truncated)
    }

    /// Seeds cycle `t` of `seq` over the current machine states and
    /// evaluates it under the chunk's overrides.
    fn eval_cycle(&mut self, seq: &Sequence, t: usize, state: &[W3]) {
        let vec = seq.vector(t);
        debug_assert_eq!(vec.len(), self.nl.num_pis(), "input width mismatch");
        seed_sources(self.cc, &mut self.vals, vec, state);
        CompiledSim::new(self.cc).eval_with(&mut self.vals, &self.ov);
    }

    fn po_diff_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (k, &po) in self.cc.pos().iter().enumerate() {
            let w = self
                .ov
                .apply_po_pin(PoId::from_index(k), self.vals[po.index()]);
            match w.get(0) {
                V3::One => mask |= w.zero,
                V3::Zero => mask |= w.one,
                V3::X => {}
            }
        }
        mask
    }

    fn capture(&mut self, state: &mut [W3]) {
        for (f, &d) in self.cc.ff_ds().iter().enumerate() {
            let w = self
                .ov
                .apply_ff_pin(FfId::from_index(f), self.vals[d.index()]);
            state[f] = w;
        }
    }
}

/// Writes one cycle's sources: the input vector broadcast to every slot,
/// and each slot's flip-flop state.
pub(crate) fn seed_sources(cc: &CompiledCircuit, vals: &mut [W3], vector: &[V3], state: &[W3]) {
    for (i, &pi) in cc.pis().iter().enumerate() {
        vals[pi.index()] = W3::broadcast(vector[i]);
    }
    for (f, &q) in cc.ff_qs().iter().enumerate() {
        vals[q.index()] = state[f];
    }
}

/// Sets every slot of every flip-flop to its value in `init`.
fn broadcast_into(init: &State, state: &mut Vec<W3>) {
    state.clear();
    state.extend(init.iter().map(|&v| W3::broadcast(v)));
}

/// Appends slot `slot` of a per-flip-flop state to `out`, packed 64
/// flip-flops per word (the [`EndStates`] layout).
fn pack_slot(state: &[W3], slot: usize, out: &mut Vec<W3>) {
    for ffs in state.chunks(64) {
        let mut w = W3::ALL_X;
        for (b, v) in ffs.iter().enumerate() {
            w.zero |= (v.zero >> slot & 1) << b;
            w.one |= (v.one >> slot & 1) << b;
        }
        out.push(w);
    }
}

/// Writes a packed state into slot `slot` of a per-flip-flop state (the
/// inverse of [`pack_slot`]).
fn unpack_slot(packed: &[W3], slot: usize, state: &mut [W3]) {
    let bit = 1u64 << slot;
    for (f, v) in state.iter_mut().enumerate() {
        let w = packed[f / 64];
        let b = f % 64;
        v.zero = v.zero & !bit | (w.zero >> b & 1) << slot;
        v.one = v.one & !bit | (w.one >> b & 1) << slot;
    }
}

/// Active-slot mask for a chunk of `len` faulty machines (slots 1..=len;
/// slot 0 is the good machine).
#[inline]
fn active_mask(len: usize) -> u64 {
    debug_assert!((1..=FAULTS_PER_PASS).contains(&len));
    ((1u64 << len) - 1) << 1
}

/// Mask of slots whose state differs observably from slot 0 (good state
/// binary, faulty state binary and opposite, for at least one flip-flop).
fn state_diff_mask(state: &[W3]) -> u64 {
    let mut mask = 0u64;
    for w in state {
        match w.get(0) {
            V3::One => mask |= w.zero,
            V3::Zero => mask |= w.one,
            V3::X => {}
        }
    }
    mask
}

/// [`state_diff_mask`] restricted to the flip-flops marked in `observed`.
fn masked_state_diff(state: &[W3], observed: &[bool]) -> u64 {
    debug_assert_eq!(state.len(), observed.len(), "observation mask width");
    let mut mask = 0u64;
    for (w, &obs) in state.iter().zip(observed) {
        if !obs {
            continue;
        }
        match w.get(0) {
            V3::One => mask |= w.zero,
            V3::Zero => mask |= w.one,
            V3::X => {}
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultSite};
    use crate::vectors::parse_values;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};

    /// A 1-bit toggle counter: q' = q XOR en, out = q.
    fn toggler() -> atspeed_circuit::Netlist {
        let mut b = NetlistBuilder::new("tff");
        b.input("en");
        b.dff("q", "d");
        b.gate(GateKind::Xor, "d", &["q", "en"]);
        b.gate(GateKind::Buf, "out", &["q"]);
        b.output("out");
        b.finish().unwrap()
    }

    fn seq_of(rows: &[&str]) -> Sequence {
        rows.iter().map(|r| parse_values(r)).collect()
    }

    #[test]
    fn good_sim_toggles() {
        let nl = toggler();
        let sim = SeqSim::new(&nl);
        let trace = sim.run(&vec![V3::Zero], &seq_of(&["1", "1", "0", "1"]));
        // q starts 0; out shows q *before* capture.
        let outs: Vec<V3> = trace.po_values.iter().map(|v| v[0]).collect();
        assert_eq!(outs, vec![V3::Zero, V3::One, V3::Zero, V3::Zero]);
        let states: Vec<V3> = trace.states.iter().map(|s| s[0]).collect();
        assert_eq!(states, vec![V3::One, V3::Zero, V3::Zero, V3::One]);
    }

    #[test]
    fn good_sim_from_unknown_state_stays_x_until_resolved() {
        let nl = toggler();
        let sim = SeqSim::new(&nl);
        let trace = sim.run(&vec![V3::X], &seq_of(&["1", "1"]));
        // XOR with en=1 keeps the state unknown.
        assert_eq!(trace.po_values[0][0], V3::X);
        assert_eq!(trace.states[1][0], V3::X);
    }

    #[test]
    fn detects_stuck_en_via_po() {
        let nl = toggler();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        // en stuck-at-0: q never toggles; detect at the PO at cycle 1.
        let en = nl.find_net("en").unwrap();
        let target = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(en),
                        stuck: false,
                    }
            })
            .unwrap();
        let det = fsim.detect(&vec![V3::Zero], &seq_of(&["1", "0"]), &[target], &u, false);
        assert_eq!(det, vec![true]);
    }

    #[test]
    fn state_only_difference_needs_scan_out() {
        let nl = toggler();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        let en = nl.find_net("en").unwrap();
        let target = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(en),
                        stuck: false,
                    }
            })
            .unwrap();
        // One cycle: PO shows the pre-toggle state (equal in both machines),
        // but the captured state differs: only a scan-out detects it.
        let seq = seq_of(&["1"]);
        let no_scan = fsim.detect(&vec![V3::Zero], &seq, &[target], &u, false);
        assert_eq!(no_scan, vec![false]);
        let with_scan = fsim.detect(&vec![V3::Zero], &seq, &[target], &u, true);
        assert_eq!(with_scan, vec![true]);
    }

    #[test]
    fn profiles_record_state_diff_and_po_detect() {
        let nl = toggler();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        let en = nl.find_net("en").unwrap();
        let target = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(en),
                        stuck: false,
                    }
            })
            .unwrap();
        let seq = seq_of(&["1", "0", "0"]);
        let p = &fsim.profiles(&vec![V3::Zero], &seq, &[target], &u)[0];
        // State differs after cycle 0; PO detects from cycle 1.
        assert!(p.state_diff_at(0));
        assert_eq!(p.po_detect, Some(1));
        assert!(p.detected_by_prefix(0), "prefix 0 detected via scan-out");
        assert!(p.detected_by_prefix(2), "later prefixes detected via PO");
    }

    #[test]
    fn bounded_profiles_truncate_only_past_the_word_budget() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        // A 70-cycle sequence spills into the second state-diff word.
        let rows: Vec<String> = (0..70).map(|t| format!("{:04b}", t % 16)).collect();
        let seq: Sequence = rows.iter().map(|r| parse_values(r)).collect();
        let init: State = parse_values("010");
        let (full, none_truncated) = fsim.profiles_bounded(&init, &seq, &reps, &u, usize::MAX);
        assert_eq!(none_truncated, 0);
        let (capped, truncated) = fsim.profiles_bounded(&init, &seq, &reps, &u, 1);
        let dropped: u64 = full
            .iter()
            .map(|p| {
                p.state_diff
                    .iter()
                    .skip(1)
                    .map(|w| w.count_ones() as u64)
                    .sum::<u64>()
            })
            .sum();
        assert!(
            dropped > 0,
            "sequence must spill past word 0 for this test to bite"
        );
        assert_eq!(
            truncated, dropped,
            "truncation stat counts exactly the capped bits"
        );
        for (f, c) in full.iter().zip(capped.iter()) {
            // PO detection and the first 64 cycles of state diffs agree.
            assert_eq!(f.po_detect, c.po_detect);
            assert_eq!(f.state_diff.first(), c.state_diff.first());
            // The cap never *adds* detections.
            for t in 0..seq.len() {
                assert!(!c.state_diff_at(t) || f.state_diff_at(t));
            }
            assert!(c.state_diff.len() <= 1);
        }
    }

    #[test]
    fn x_differences_do_not_count_as_detection() {
        let nl = toggler();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        // From the unknown state, q stays X in the good machine, so even a
        // hard fault on q cannot be *definitely* detected at the PO.
        let q = nl.find_net("q").unwrap();
        let target = u
            .all_ids()
            .find(|&id| {
                u.fault(id)
                    == Fault {
                        site: FaultSite::Stem(q),
                        stuck: true,
                    }
            })
            .unwrap();
        let det = fsim.detect(&vec![V3::X], &seq_of(&["1", "1"]), &[target], &u, true);
        assert_eq!(det, vec![false]);
    }

    #[test]
    fn s27_complete_detection_under_exhaustive_tests() {
        // Every collapsed s27 fault is detectable in the full-scan sense;
        // run many short scan tests and check a high detection count.
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let mut missed: Vec<FaultId> = reps.clone();
        // Exhaustive over 4 PIs x 8 states, single-vector scan tests.
        for st in 0..8u32 {
            for pv in 0..16u32 {
                if missed.is_empty() {
                    break;
                }
                let init: State = (0..3).map(|b| V3::from_bool(st & (1 << b) != 0)).collect();
                let seq: Sequence =
                    std::iter::once((0..4).map(|b| V3::from_bool(pv & (1 << b) != 0)).collect())
                        .collect();
                let det = fsim.detect(&init, &seq, &missed, &u, true);
                missed = missed
                    .iter()
                    .zip(det.iter())
                    .filter(|(_, &d)| !d)
                    .map(|(&f, _)| f)
                    .collect();
            }
        }
        assert!(
            missed.is_empty(),
            "all collapsed s27 faults are combinationally testable, missed {:?}",
            missed
                .iter()
                .map(|&f| u.fault(f).describe(&nl))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn detect_matches_profiles_on_s27() {
        // Differential test: full-sequence detection with scan-out equals
        // `detected_by_prefix(L-1)` from the profile API.
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let seq = seq_of(&["1010", "0110", "0001", "1111", "0000"]);
        let init: State = parse_values("010");
        let det = fsim.detect(&init, &seq, &reps, &u, true);
        let profiles = fsim.profiles(&init, &seq, &reps, &u);
        for (k, p) in profiles.iter().enumerate() {
            assert_eq!(
                det[k],
                p.detected_by_prefix(seq.len() - 1),
                "fault {} profile/detect mismatch",
                u.fault(reps[k]).describe(&nl)
            );
        }
    }

    #[test]
    fn detects_all_matches_detect() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        let init: State = parse_values("010");
        for (rows, observe) in [
            (vec!["1010", "0110", "0001", "1111"], true),
            (vec!["1010", "0110"], false),
            (vec!["0000"], true),
        ] {
            let seq = seq_of(&rows);
            // Full set (mixed verdicts) and the detected subset (all true).
            let det = fsim.detect(&init, &seq, &reps, &u, observe);
            let all = det.iter().all(|&d| d);
            assert_eq!(fsim.detects_all(&init, &seq, &reps, &u, observe), all);
            let detected: Vec<FaultId> = reps
                .iter()
                .zip(det.iter())
                .filter(|(_, &d)| d)
                .map(|(&f, _)| f)
                .collect();
            if !detected.is_empty() {
                assert!(fsim.detects_all(&init, &seq, &detected, &u, observe));
            }
        }
        assert!(fsim.detects_all(&init, &seq_of(&["0000"]), &[], &u, true));
    }

    /// Multi-cycle detection against an independent reference: every fault
    /// simulated on its own, cycle by cycle, on the legacy pointer walker,
    /// from X-heavy stimuli.
    #[test]
    fn detect_matches_per_fault_legacy_simulation() {
        use crate::comb::{inject, CombSim};
        use crate::fault::FaultSite;
        use atspeed_circuit::synth::{generate, SynthSpec};
        let known_diff = |w: W3| w.get(0).is_known() && w.get(1).is_known() && w.get(0) != w.get(1);
        let synth = generate(&SynthSpec::new("seq-ref", 5, 3, 8, 160, 11)).unwrap();
        for nl in [s27(), synth] {
            let u = FaultUniverse::full(&nl);
            let reps: Vec<FaultId> = u.representatives().to_vec();
            let mut x = 0xc0ffeeu64;
            let mut rnd = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let v3 = |r: u64| match r % 5 {
                0 => V3::X,
                n => V3::from_bool(n & 1 == 1),
            };
            let seq: Sequence = (0..20)
                .map(|_| (0..nl.num_pis()).map(|_| v3(rnd())).collect())
                .collect();
            let init: State = (0..nl.num_ffs()).map(|_| v3(rnd())).collect();
            let det = SeqFaultSim::new(&nl).detect(&init, &seq, &reps, &u, true);

            let mut legacy = CombSim::new(&nl);
            let mut vals = vec![W3::ALL_X; nl.num_nets()];
            for (k, &fid) in reps.iter().enumerate() {
                let injected = [(u.fault(fid), 0b10)];
                let mut state: Vec<W3> = init.iter().map(|&v| W3::broadcast(v)).collect();
                let mut caught = false;
                for t in 0..seq.len() {
                    for (i, &pi) in nl.pis().iter().enumerate() {
                        vals[pi.index()] = W3::broadcast(seq.vector(t)[i]);
                    }
                    for (f, ff) in nl.ffs().iter().enumerate() {
                        vals[ff.q().index()] = state[f];
                    }
                    legacy.eval_with(&mut vals, &injected);
                    for (p, &po) in nl.pos().iter().enumerate() {
                        let site = FaultSite::PoPin(PoId::from_index(p));
                        caught |= known_diff(inject(&injected, site, vals[po.index()]));
                    }
                    for (f, ff) in nl.ffs().iter().enumerate() {
                        let site = FaultSite::FfPin(FfId::from_index(f));
                        state[f] = inject(&injected, site, vals[ff.d().index()]);
                    }
                }
                caught |= state.iter().any(|&w| known_diff(w));
                assert_eq!(
                    det[k],
                    caught,
                    "fault {} on {}",
                    u.fault(fid).describe(&nl),
                    nl.name()
                );
            }
        }
    }

    #[test]
    fn more_than_63_faults_use_multiple_passes() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let mut fsim = SeqFaultSim::new(&nl);
        // All 52 uncollapsed faults plus repeats to exceed one pass.
        let mut faults: Vec<FaultId> = u.all_ids().collect();
        let extra: Vec<FaultId> = faults.iter().copied().take(30).collect();
        faults.extend(extra);
        let seq = seq_of(&["1010", "0110", "0001"]);
        let det = fsim.detect(&parse_values("000"), &seq, &faults, &u, true);
        assert_eq!(det.len(), faults.len());
        // Repeated faults must agree with their first occurrence.
        for i in 0..30 {
            assert_eq!(det[i], det[52 + i], "pass boundary changed verdict");
        }
    }
}
