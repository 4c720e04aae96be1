//! Sequential (cycle-accurate) simulation and parallel-fault fault
//! simulation.
//!
//! Every parallel-fault sequential simulation steps one word: the good
//! machine in slot 0 and up to 63 faulty machines in the remaining slots
//! (the classic parallel-fault organization), each with its own flip-flop
//! state, under one fault overlay. [`SeqFaultSim`] runs whole sequences on
//! a word per 63 faults, [`IncrementalSim`] keeps a word per 63 faults
//! across appended vectors, and the transition-fault simulator re-arms a
//! word's faults every cycle. Detection is recorded when a primary output
//! is binary in both machines and differs; scanning out additionally
//! observes the flip-flop state, and [`SeqFaultSim::profiles`] records the
//! full per-cycle state-difference sets that Phase 1 of the paper uses to
//! choose the scan-out time unit.
//!
//! Two records let a check resume mid-sequence instead of simulating from
//! the scan-in state. Both store one cycle boundary the same sparse way —
//! the good state, plus the faults whose state differs from it — and one
//! resume core serves both: [`EndStates`] holds the end of a test `T_i`,
//! from which Phase 4 checks `T_i T_j` by simulating `T_j` alone
//! ([`SeqFaultSim::detects_all_from`]); [`SweepRecord`] holds every
//! boundary of a vector-omission sweep's starting sequence, from which an
//! omission of `T[t, end)` is checked by simulating `T[end..]` alone
//! ([`SeqFaultSim::detects_all_resumed`]).

use atspeed_circuit::{CompiledCircuit, FfId, Netlist, PoId};

use crate::fault::{Fault, FaultId, FaultUniverse};
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

    /// Clears the state-difference bits of cycle `t` on, dropping the
    /// words left empty (the bitset a profile of `T[..t]` alone holds).
    fn clear_state_diff_from(&mut self, t: usize) {
        if let Some(w) = self.state_diff.get_mut(t / 64) {
            *w &= (1u64 << (t % 64)) - 1;
            self.state_diff.truncate(t / 64 + 1);
        }
        while self.state_diff.last() == Some(&0) {
            self.state_diff.pop();
        }
    }

    /// Takes `later`'s primary-output detection and ORs in its
    /// state-difference bits: the profile of a resumed pass joined to the
    /// one of the cycles before it.
    fn merge_from(&mut self, later: &DetectionProfile) {
        self.po_detect = later.po_detect;
        if self.state_diff.len() < later.state_diff.len() {
            self.state_diff.resize(later.state_diff.len(), 0);
        }
        for (w, &l) in self.state_diff.iter_mut().zip(&later.state_diff) {
            *w |= l;
        }
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

impl FinalObserve<'_> {
    /// A full scan-out when `observe_final_state` is set, else none.
    pub fn scan_out(observe_final_state: bool) -> Self {
        if observe_final_state {
            FinalObserve::FullState
        } else {
            FinalObserve::None
        }
    }
}

/// The slots of `w` whose value is binary and opposite to slot 0's — the
/// one detection predicate: an X on either side never counts.
#[inline]
fn slot0_diff(w: W3) -> u64 {
    match w.get(0) {
        V3::One => w.zero,
        V3::Zero => w.one,
        V3::X => 0,
    }
}

/// The positions `k` of the faults whose slots `k + 1` are set in `mask`
/// (slot 0, the good machine, never is).
pub(crate) fn slots(mut mask: u64) -> impl Iterator<Item = usize> {
    debug_assert_eq!(mask & 1, 0, "slot 0 is the good machine");
    std::iter::from_fn(move || {
        let slot = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (slot < 64).then(|| slot - 1)
    })
}

/// One word of the parallel-fault organization: the good machine in slot 0
/// and up to [`FAULTS_PER_PASS`] faulty machines in slots `1..=63`, each
/// with its own flip-flop state, under one fault overlay. A cycle is
/// [`Word::eval`] (which reports the slots a primary output detects) then
/// [`Word::capture`]; [`Word::observe`] compares the state with slot 0.
#[derive(Debug)]
pub(crate) struct Word<'a> {
    cc: &'a CompiledCircuit,
    ov: Overrides<'a>,
    /// Per-flip-flop values, one slot per machine.
    pub(crate) state: Vec<W3>,
    /// The slots of the faulty machines.
    pub(crate) active: u64,
}

impl<'a> Word<'a> {
    /// An empty word over `cc`, every machine in the unknown state.
    pub(crate) fn new(cc: &'a CompiledCircuit) -> Self {
        Word {
            cc,
            ov: Overrides::new(cc),
            state: vec![W3::ALL_X; cc.num_ffs()],
            active: 0,
        }
    }

    /// Injects fault `k` of `faults` into slot `k + 1`, replacing the
    /// overlay, and makes those slots the active ones.
    pub(crate) fn set_faults(&mut self, faults: &[FaultId], universe: &FaultUniverse) {
        self.active = self.inject(faults.iter().map(|&f| universe.fault(f)).enumerate());
    }

    /// Replaces the overlay with `faults`, each `(k, fault)` injected into
    /// slot `k + 1`, and returns the slots injected. The active slots stay.
    pub(crate) fn inject(&mut self, faults: impl IntoIterator<Item = (usize, Fault)>) -> u64 {
        self.ov.clear();
        let mut injected = 0u64;
        for (k, fault) in faults {
            let slot = 1u64 << (k + 1);
            self.ov.add(fault, slot);
            injected |= slot;
        }
        injected
    }

    /// Loads `state` into every machine (a scan-in: fault effects apply
    /// again from the next evaluation).
    pub(crate) fn load(&mut self, state: &[V3]) {
        self.state.clear();
        self.state.extend(state.iter().map(|&v| W3::broadcast(v)));
    }

    /// Loads a packed state (the [`EndStates`] layout) into every machine.
    fn load_packed(&mut self, packed: &[W3], num_ffs: usize) {
        self.state.clear();
        self.state
            .extend((0..num_ffs).map(|f| W3::broadcast(packed[f / 64].get(f % 64))));
    }

    /// Evaluates one cycle into `vals` — `vector` broadcast to every slot,
    /// each slot's state, the overlay injected — and returns the active
    /// slots a primary output detects.
    pub(crate) fn eval(&self, vals: &mut [W3], vector: &[V3]) -> u64 {
        debug_assert_eq!(vector.len(), self.cc.num_pis(), "input width mismatch");
        seed_sources(self.cc, vals, vector, &self.state);
        CompiledSim::new(self.cc).eval_with(vals, &self.ov);
        let mut mask = 0u64;
        for (k, &po) in self.cc.pos().iter().enumerate() {
            mask |= slot0_diff(self.ov.apply_po_pin(PoId::from_index(k), vals[po.index()]));
        }
        mask & self.active
    }

    /// The flip-flop inputs of the cycle evaluated in `vals`, pin faults
    /// applied: the state the cycle captures.
    fn next_state<'v>(
        cc: &'v CompiledCircuit,
        ov: &'v Overrides<'v>,
        vals: &'v [W3],
    ) -> impl Iterator<Item = W3> + 'v {
        cc.ff_ds()
            .iter()
            .enumerate()
            .map(move |(f, &d)| ov.apply_ff_pin(FfId::from_index(f), vals[d.index()]))
    }

    /// Captures the cycle evaluated in `vals` into every machine's state.
    pub(crate) fn capture(&mut self, vals: &[W3]) {
        for (s, w) in self
            .state
            .iter_mut()
            .zip(Self::next_state(self.cc, &self.ov, vals))
        {
            *s = w;
        }
    }

    /// The active slots whose captured state would differ from slot 0 after
    /// the cycle evaluated in `vals`, without capturing it.
    pub(crate) fn next_state_diff(&self, vals: &[W3]) -> u64 {
        Self::next_state(self.cc, &self.ov, vals).fold(0, |m, w| m | slot0_diff(w)) & self.active
    }

    /// The active slots whose state differs from slot 0's at all: an X
    /// against a binary value counts, so the others hold the good state
    /// exactly.
    fn state_differs(&self) -> u64 {
        let spread = |bit: u64| 0u64.wrapping_sub(bit & 1);
        self.state.iter().fold(0, |m, w| {
            m | (w.zero ^ spread(w.zero)) | (w.one ^ spread(w.one))
        }) & self.active
    }

    /// The active slots whose state, as far as `observe` sees it, differs
    /// from slot 0's.
    pub(crate) fn observe(&self, observe: FinalObserve<'_>) -> u64 {
        let mask = match observe {
            FinalObserve::None => 0,
            FinalObserve::FullState => self.state.iter().fold(0, |m, &w| m | slot0_diff(w)),
            FinalObserve::PartialState(scanned) => {
                debug_assert_eq!(self.state.len(), scanned.len(), "observation mask width");
                self.state
                    .iter()
                    .zip(scanned)
                    .filter(|(_, &seen)| seen)
                    .fold(0, |m, (&w, _)| m | slot0_diff(w))
            }
        };
        mask & self.active
    }
}

/// Where each fault of a list stands at the end of a sequence applied
/// without a scan-out, produced by [`SeqFaultSim::end_states`]: detected at
/// a primary output, or its faulty flip-flop state.
/// [`SeqFaultSim::detects_all_from`] resumes simulation from it.
///
/// The record is sparse: the good machine's end state, plus the state of
/// each fault left open whose state differs from it (an X against a binary
/// value counts); every other open fault holds the good state exactly. A
/// state is packed 64 flip-flops per [`W3`] (bit `f % 64` of word `f / 64`
/// is flip-flop `f`) with both rails kept, so an unknown value stays
/// unknown: `⌈FFs / 64⌉ × 16` bytes per recorded state.
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
    /// The positions in `faults` of the open faults whose state differs
    /// from the good one, ascending.
    diff: Vec<u32>,
    /// `ff_words` words per entry of `diff`.
    states: Vec<W3>,
}

impl EndStates {
    fn new(num_ffs: usize) -> Self {
        EndStates {
            num_ffs,
            ff_words: num_ffs.div_ceil(64),
            faults: Vec::new(),
            po_detected: Vec::new(),
            good: None,
            diff: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Whether a primary output detected the fault at position `k` during
    /// the recorded sequence.
    pub(crate) fn po_detected(&self, k: usize) -> bool {
        self.po_detected[k]
    }

    /// Appends the record of the faults that follow this record's in the
    /// list: the concatenation of the two fault lists' records.
    pub(crate) fn append(&mut self, other: EndStates) {
        debug_assert_eq!(self.num_ffs, other.num_ffs, "record width mismatch");
        let offset = position(self.faults.len());
        self.faults.extend(other.faults);
        self.po_detected.extend(other.po_detected);
        self.diff.extend(other.diff.iter().map(|&p| p + offset));
        self.states.extend(other.states);
        if self.good.is_none() {
            self.good = other.good;
        }
    }
}

/// A fault position as a record stores it.
fn position(k: usize) -> u32 {
    u32::try_from(k).expect("fault list longer than u32::MAX")
}

/// One recorded cycle boundary: the good state and the faults whose state
/// differs from it, as [`EndStates`] and [`SweepRecord`] store them.
#[derive(Debug, Clone, Copy)]
struct Boundary<'r> {
    ff_words: usize,
    good: &'r [W3],
    diff: &'r [u32],
    states: &'r [W3],
}

impl Boundary<'_> {
    /// The recorded state of the fault at position `pos`, if it differs
    /// from the good one.
    fn state_of(&self, pos: usize) -> Option<&[W3]> {
        let i = self.diff.binary_search(&position(pos)).ok()?;
        Some(&self.states[i * self.ff_words..(i + 1) * self.ff_words])
    }
}

/// The start pass of a vector-omission sweep over a sequence `T` from a
/// scan-in state, produced by
/// [`ParallelFsim::sweep_start`](crate::ParallelFsim::sweep_start): every
/// fault's [`DetectionProfile`], plus a record of the cycle boundaries from
/// which [`SeqFaultSim::detects_all_resumed`] checks `T[..t] · T[end..]` by
/// simulating only from boundary `t`.
///
/// Boundary `t` is the state before cycle `t`: the good state, and the
/// state of each fault that no primary output detected before cycle `t`
/// and whose state differs from the good one (an X against a binary value
/// counts). States are packed as in [`EndStates`], in one flat array.
///
/// The record holds at most one fault state per fault in all, the size of
/// one [`EndStates`] over the same faults. Past that it keeps every 2nd
/// boundary, then every 4th, … (its stride), and a check at `t` resumes
/// from the nearest kept boundary at or before `t`. The stride depends only
/// on how many states each boundary holds, so the record — and the work of
/// every check — is the same however the pass was sharded.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    num_ffs: usize,
    ff_words: usize,
    faults: Vec<FaultId>,
    max_state_words: usize,
    profiles: Vec<DetectionProfile>,
    /// `truncated[t]`: state-difference bits of cycle `t` dropped by the
    /// profile bound; its length is the recorded sequence's.
    truncated: Vec<u64>,
    /// Boundaries `k × stride` are kept, for `k × stride ≤ len`.
    stride: usize,
    /// `ff_words` words per kept boundary.
    good: Vec<W3>,
    /// `starts[k]..starts[k + 1]`: the entries of kept boundary `k`.
    starts: Vec<usize>,
    /// Entry positions in `faults`, ascending within a boundary.
    diff: Vec<u32>,
    /// `ff_words` words per entry.
    states: Vec<W3>,
}

impl SweepRecord {
    /// An empty record of `faults` from `init`: boundary 0 only.
    pub(crate) fn new(init: &State, faults: &[FaultId], max_state_words: usize) -> Self {
        let mut good = Vec::new();
        pack_values(init, &mut good);
        SweepRecord {
            num_ffs: init.len(),
            ff_words: init.len().div_ceil(64),
            faults: faults.to_vec(),
            max_state_words,
            profiles: vec![DetectionProfile::default(); faults.len()],
            truncated: Vec::new(),
            stride: 1,
            good,
            starts: vec![0, 0],
            diff: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Every fault's detection profile over the recorded sequence, each
    /// state-difference bitset bounded as
    /// [`SeqFaultSim::profiles_bounded`] bounds it.
    pub fn profiles(&self) -> &[DetectionProfile] {
        &self.profiles
    }

    /// The state-difference bits the profile bound dropped: the count
    /// [`SeqFaultSim::profiles_bounded`] returns for the same sequence.
    pub fn truncated_bits(&self) -> u64 {
        self.truncated.iter().sum()
    }

    /// The distance between kept boundaries (1 until the record reaches its
    /// cap).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The fault states recorded over all kept boundaries.
    pub fn recorded_states(&self) -> usize {
        self.diff.len()
    }

    /// The most fault states the record keeps: one per fault.
    fn cap(&self) -> usize {
        self.faults.len()
    }

    /// Kept boundary `t` (a multiple of the stride).
    fn boundary(&self, t: usize) -> Boundary<'_> {
        debug_assert_eq!(t % self.stride, 0, "boundary {t} is not kept");
        let k = t / self.stride;
        let (a, b) = (self.starts[k], self.starts[k + 1]);
        Boundary {
            ff_words: self.ff_words,
            good: &self.good[k * self.ff_words..(k + 1) * self.ff_words],
            diff: &self.diff[a..b],
            states: &self.states[a * self.ff_words..b * self.ff_words],
        }
    }

    /// The states recorded at kept boundaries that are multiples of
    /// `stride`.
    fn states_at_stride(&self, stride: usize) -> usize {
        self.starts
            .windows(2)
            .enumerate()
            .filter(|(k, _)| (k * self.stride).is_multiple_of(stride))
            .map(|(_, w)| w[1] - w[0])
            .sum()
    }

    /// Rewinds the record to the nearest kept boundary `from` at or before
    /// `low`, for a sequence that agrees with the recorded one before cycle
    /// `low`. Faults a primary output detected before `from` keep their
    /// profiles (their state-difference bits lie before it); the rest lose
    /// everything from `from` on and are returned, by position, to be
    /// resumed from boundary `from`.
    pub(crate) fn rewind(&mut self, low: usize) -> (usize, Vec<usize>) {
        let from = low.min(self.truncated.len()) / self.stride * self.stride;
        let kept = from / self.stride + 1;
        self.good.truncate(kept * self.ff_words);
        self.starts.truncate(kept + 1);
        self.diff.truncate(self.starts[kept]);
        self.states.truncate(self.starts[kept] * self.ff_words);
        self.truncated.truncate(from);
        let mut open = Vec::new();
        for (k, p) in self.profiles.iter_mut().enumerate() {
            if p.po_detect.is_none_or(|d| d as usize >= from) {
                p.po_detect = None;
                p.clear_state_diff_from(from);
                open.push(k);
            }
        }
        (from, open)
    }

    /// Takes in the parts of a pass resumed from boundary `from` over a
    /// sequence of `len` vectors, in fault order, and settles the stride
    /// on the merged record: the smallest power of two at least every
    /// part's whose kept boundaries hold at most one state per fault.
    pub(crate) fn absorb(&mut self, from: usize, len: usize, parts: Vec<SweepPart>) {
        let ffw = self.ff_words;
        self.truncated.resize(len, 0);
        for part in &parts {
            for (&k, p) in part.positions.iter().zip(&part.profiles) {
                self.profiles[k].merge_from(p);
            }
            for (t, &n) in part.truncated.iter().enumerate() {
                self.truncated[from + t] += n;
            }
        }
        // (boundary, position, part, entry): sorting puts each boundary's
        // entries in position order.
        let mut entries: Vec<(u32, u32, usize, usize)> = parts
            .iter()
            .enumerate()
            .flat_map(|(i, part)| {
                part.entries
                    .iter()
                    .enumerate()
                    .map(move |(e, &(b, pos))| (b, pos, i, e))
            })
            .collect();
        let mut stride = parts.iter().map(|p| p.stride).fold(self.stride, usize::max);
        loop {
            let new = entries
                .iter()
                .filter(|e| (e.0 as usize).is_multiple_of(stride))
                .count();
            if self.states_at_stride(stride) + new <= self.cap() {
                break;
            }
            stride *= 2;
        }
        entries.retain(|e| (e.0 as usize).is_multiple_of(stride));
        entries.sort_unstable();
        if stride != self.stride {
            self.thin(stride);
        }
        let mut next = entries.iter().peekable();
        for b in (from + 1..=len).filter(|b| b.is_multiple_of(stride)) {
            match parts.iter().find(|p| p.reached >= b - from) {
                Some(p) => self
                    .good
                    .extend_from_slice(&p.good[(b - from - 1) * ffw..(b - from) * ffw]),
                // No word ran this far: every fault was detected before it,
                // so nothing resumes from here.
                None => self.good.resize(self.good.len() + ffw, W3::ALL_X),
            }
            while let Some(&(_, pos, i, e)) = next.next_if(|e| e.0 as usize == b) {
                self.diff.push(pos);
                self.states
                    .extend_from_slice(&parts[i].states[e * ffw..(e + 1) * ffw]);
            }
            self.starts.push(self.diff.len());
        }
    }

    /// Keeps only the boundaries that are multiples of `stride`.
    fn thin(&mut self, stride: usize) {
        let ffw = self.ff_words;
        let (mut good, mut starts, mut diff, mut states) =
            (Vec::new(), vec![0], Vec::new(), Vec::new());
        for k in 0..self.starts.len() - 1 {
            if (k * self.stride).is_multiple_of(stride) {
                let (a, b) = (self.starts[k], self.starts[k + 1]);
                good.extend_from_slice(&self.good[k * ffw..(k + 1) * ffw]);
                diff.extend_from_slice(&self.diff[a..b]);
                states.extend_from_slice(&self.states[a * ffw..b * ffw]);
                starts.push(diff.len());
            }
        }
        (self.good, self.starts, self.diff, self.states) = (good, starts, diff, states);
        self.stride = stride;
    }
}

/// One shard's share of a sweep pass resumed from boundary `from`.
#[derive(Debug)]
pub(crate) struct SweepPart {
    /// The shard's faults, by position in the record's fault list.
    positions: Vec<usize>,
    /// Their profiles from cycle `from` on.
    profiles: Vec<DetectionProfile>,
    /// Dropped state-difference bits per cycle from `from`.
    truncated: Vec<u64>,
    /// The stride this shard's own states forced.
    stride: usize,
    /// The boundaries `from + 1 ..= from + reached` some word of the shard
    /// ran to, and their good states (`ff_words` words each).
    reached: usize,
    good: Vec<W3>,
    /// `(boundary, position)` per recorded state, in recording order.
    entries: Vec<(u32, u32)>,
    /// `ff_words` words per entry.
    states: Vec<W3>,
}

impl SweepPart {
    /// Drops the entries at boundaries that are not multiples of `stride`.
    fn thin(&mut self, stride: usize, ff_words: usize) {
        let mut kept = 0;
        for i in 0..self.entries.len() {
            if (self.entries[i].0 as usize).is_multiple_of(stride) {
                self.entries[kept] = self.entries[i];
                self.states
                    .copy_within(i * ff_words..(i + 1) * ff_words, kept * ff_words);
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        self.states.truncate(kept * ff_words);
        self.stride = stride;
    }
}

/// Parallel-fault sequential fault simulator with reusable buffers.
///
/// Evaluates over the netlist's [`CompiledCircuit`]: every cycle of each
/// 63-fault word is one full compiled pass under the word's injected
/// overrides, into a net value array reused across cycles and words.
#[derive(Debug)]
pub struct SeqFaultSim<'a> {
    nl: &'a Netlist,
    vals: Vec<W3>,
    word: Word<'a>,
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
            vals: vec![W3::ALL_X; cc.num_nets()],
            word: Word::new(cc),
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
        let observe = FinalObserve::scan_out(observe_final_state);
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
        self.detect_words(init, seq, faults, universe, observe)
    }

    /// Union detection over many scan tests: each run `(scan-in state,
    /// sequence)`, in order, is simulated with the final observation
    /// `observe` on the faults no earlier run detected, in list order, and
    /// the detected sets are unioned. One invocation per call; the faults
    /// each run detects count as dropped.
    pub fn detect_union(
        &mut self,
        runs: &[(&State, &Sequence)],
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> Vec<bool> {
        self.count_invocation();
        let mut detected = vec![false; faults.len()];
        let mut alive: Vec<usize> = (0..faults.len()).collect();
        for &(init, seq) in runs {
            if alive.is_empty() {
                break;
            }
            let ids: Vec<FaultId> = alive.iter().map(|&k| faults[k]).collect();
            let hits = self.detect_words(init, seq, &ids, universe, observe);
            for (&k, &hit) in alive.iter().zip(&hits) {
                detected[k] = hit;
            }
            let before = alive.len();
            alive.retain(|&k| !detected[k]);
            crate::stats::add_dropped((before - alive.len()) as u64);
        }
        detected
    }

    /// [`SeqFaultSim::detect_observed`] without counting an invocation:
    /// one pass per 63-fault word of `faults`.
    fn detect_words(
        &mut self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> Vec<bool> {
        let mut detected = vec![false; faults.len()];
        for (chunk, detected) in faults
            .chunks(FAULTS_PER_PASS)
            .zip(detected.chunks_mut(FAULTS_PER_PASS))
        {
            self.word.set_faults(chunk, universe);
            self.word.load(init);
            for k in slots(self.run_observed(seq, observe)) {
                detected[k] = true;
            }
        }
        detected
    }

    /// Whether `seq` detects *every* fault in `faults` — equivalent to
    /// `detect(..).iter().all(|&d| d)` but exits on the first 63-fault
    /// word that finishes with an undetected member, skipping the
    /// remaining words entirely. This is the accept/reject predicate of
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
        let observe = FinalObserve::scan_out(observe_final_state);
        faults.chunks(FAULTS_PER_PASS).all(|chunk| {
            self.word.set_faults(chunk, universe);
            self.word.load(init);
            self.run_observed(seq, observe) == self.word.active
        })
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
        for chunk in faults.chunks(FAULTS_PER_PASS) {
            self.word.set_faults(chunk, universe);
            self.word.load(init);
            let caught = self.run(seq, |_, _, _| {});
            // A word stops early only once every fault in it is detected;
            // any other word ran every cycle and holds the end state.
            let ran_every_cycle = caught != self.word.active;
            if ran_every_cycle && rec.good.is_none() {
                let mut good = Vec::with_capacity(rec.ff_words);
                pack_slot(&self.word.state, 0, &mut good);
                rec.good = Some(good);
            }
            let differs = if ran_every_cycle {
                self.word.state_differs() & !caught
            } else {
                0
            };
            for k in slots(differs) {
                rec.diff.push(position(rec.faults.len() + k));
                pack_slot(&self.word.state, k + 1, &mut rec.states);
            }
            for (k, &fid) in chunk.iter().enumerate() {
                rec.faults.push(fid);
                rec.po_detected.push(caught & (1u64 << (k + 1)) != 0);
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
        if open.is_empty() {
            return true;
        }
        let at = Boundary {
            ff_words: rec.ff_words,
            good: rec
                .good
                .as_deref()
                .expect("a fault left open at the end ran in a word that ran every cycle"),
            diff: &rec.diff,
            states: &rec.states,
        };
        self.resumed_all(
            at,
            &rec.faults,
            &open,
            suffix.iter(),
            FinalObserve::FullState,
            universe,
        )
    }

    /// Whether the test `(init, seq[..t] · seq[end..])`, followed by
    /// `observe`, detects every fault at the positions `which` of the
    /// record's fault list, where `rec` is the sweep record of a sequence
    /// that agrees with `seq` before cycle `t`. The faults a primary output
    /// detected before cycle `t` count as detected; the rest are packed
    /// [`FAULTS_PER_PASS`] per word from their states at the nearest kept
    /// boundary at or before `t`, which run `seq[from..t]` and then
    /// `seq[end..]`, and the call returns false at the first word that
    /// ends with an undetected fault.
    ///
    /// Each slot evolves independently, so the verdict equals
    /// [`SeqFaultSim::detects_all`] on the whole test.
    ///
    /// # Panics
    ///
    /// Panics if `t > end`, `end > seq.len()`, or a position is out of the
    /// record's range.
    #[allow(clippy::too_many_arguments)]
    pub fn detects_all_resumed(
        &mut self,
        rec: &SweepRecord,
        seq: &Sequence,
        t: usize,
        end: usize,
        which: &[usize],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> bool {
        self.count_invocation();
        assert_eq!(rec.num_ffs, self.nl.num_ffs(), "record width mismatch");
        let open: Vec<usize> = which
            .iter()
            .copied()
            .filter(|&k| rec.profiles[k].po_detect.is_none_or(|d| d as usize >= t))
            .collect();
        if open.is_empty() {
            return true;
        }
        let from = t / rec.stride * rec.stride;
        let v = seq.as_slice();
        let vectors = v[from..t].iter().chain(&v[end..]);
        self.resumed_all(
            rec.boundary(from),
            &rec.faults,
            &open,
            vectors,
            observe,
            universe,
        )
    }

    /// The one resumed check: packs the faults at the positions `open` of
    /// `faults` [`FAULTS_PER_PASS`] per word, loads each word from the
    /// boundary `at` (the good state in every slot, then the recorded
    /// ones), runs `vectors` and observes, and returns false at the first
    /// word that ends with an undetected fault.
    fn resumed_all<'v>(
        &mut self,
        at: Boundary<'_>,
        faults: &[FaultId],
        open: &[usize],
        vectors: impl Iterator<Item = &'v Vec<V3>> + Clone,
        observe: FinalObserve<'_>,
        universe: &FaultUniverse,
    ) -> bool {
        let mut ids = Vec::with_capacity(FAULTS_PER_PASS);
        open.chunks(FAULTS_PER_PASS).all(|word| {
            self.load_at(at, faults, word, &mut ids, universe);
            self.run_observed(vectors.clone(), observe) == self.word.active
        })
    }

    /// Injects the faults at the positions `word` of `faults` and loads
    /// each machine's state at the boundary `at`.
    fn load_at(
        &mut self,
        at: Boundary<'_>,
        faults: &[FaultId],
        word: &[usize],
        ids: &mut Vec<FaultId>,
        universe: &FaultUniverse,
    ) {
        ids.clear();
        ids.extend(word.iter().map(|&pos| faults[pos]));
        self.word.set_faults(ids, universe);
        self.word.load_packed(at.good, self.nl.num_ffs());
        for (k, &pos) in word.iter().enumerate() {
            if let Some(state) = at.state_of(pos) {
                unpack_slot(state, k + 1, &mut self.word.state);
            }
        }
    }

    /// One shard of a sweep pass: the faults at `positions` of the record,
    /// resumed from its kept boundary `from` over `seq[from..]`. Records
    /// their profiles, the dropped bits, the good state at every boundary
    /// reached, and their differing states at the boundaries that are
    /// multiples of the stride, doubling the stride whenever the record
    /// would pass its cap.
    pub(crate) fn sweep_pass(
        &mut self,
        rec: &SweepRecord,
        seq: &Sequence,
        from: usize,
        positions: &[usize],
        universe: &FaultUniverse,
    ) -> SweepPart {
        let ffw = rec.ff_words;
        let vectors = &seq.as_slice()[from..];
        let at = rec.boundary(from);
        let mut part = SweepPart {
            positions: positions.to_vec(),
            profiles: vec![DetectionProfile::default(); positions.len()],
            truncated: vec![0; vectors.len()],
            stride: rec.stride,
            reached: 0,
            good: Vec::new(),
            entries: Vec::new(),
            states: Vec::new(),
        };
        // The record's own states at the part's stride, recounted when it
        // doubles.
        let mut before = rec.states_at_stride(part.stride);
        let mut ids = Vec::with_capacity(FAULTS_PER_PASS);
        for (w, word) in positions.chunks(FAULTS_PER_PASS).enumerate() {
            self.load_at(at, &rec.faults, word, &mut ids, universe);
            let profiles = &mut part.profiles[w * FAULTS_PER_PASS..];
            let (truncated, good, entries, states) = (
                &mut part.truncated,
                &mut part.good,
                &mut part.entries,
                &mut part.states,
            );
            let (stride, reached) = (part.stride, &mut part.reached);
            let mut po_done = 0u64;
            self.run(vectors, |r, fresh, word_now| {
                let t = from + r;
                po_done |= fresh;
                truncated[r] +=
                    profile_cycle(profiles, t, fresh, po_done, word_now, rec.max_state_words);
                if *reached == r {
                    pack_slot(&word_now.state, 0, good);
                    *reached += 1;
                }
                let b = t + 1;
                if b.is_multiple_of(stride) {
                    for k in slots(word_now.state_differs() & !po_done) {
                        entries.push((position(b), position(word[k])));
                        pack_slot(&word_now.state, k + 1, states);
                    }
                }
            });
            while before + part.entries.len() > rec.cap() {
                let doubled = part.stride * 2;
                part.thin(doubled, ffw);
                before = rec.states_at_stride(doubled);
            }
        }
        part
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
        for (chunk, profiles) in faults
            .chunks(FAULTS_PER_PASS)
            .zip(profiles.chunks_mut(FAULTS_PER_PASS))
        {
            self.word.set_faults(chunk, universe);
            self.word.load(init);
            let mut po_done = 0u64;
            self.run(seq, |t, fresh, word| {
                po_done |= fresh;
                truncated += profile_cycle(profiles, t, fresh, po_done, word, max_state_words);
            });
        }
        (profiles, truncated)
    }

    /// The one cycle loop: runs `seq` on the loaded word. After each
    /// cycle's capture, `hook(t, fresh, word)` sees the slots a primary
    /// output detected first in cycle `t` and the word holding the state
    /// captured at its end. Returns the slots a primary output detected,
    /// and stops early once that is every active slot.
    fn run<'v>(
        &mut self,
        vectors: impl IntoIterator<Item = &'v Vec<V3>>,
        mut hook: impl FnMut(usize, u64, &Word<'a>),
    ) -> u64 {
        let mut caught = 0u64;
        for (t, vector) in vectors.into_iter().enumerate() {
            let fresh = self.word.eval(&mut self.vals, vector) & !caught;
            caught |= fresh;
            self.word.capture(&self.vals);
            hook(t, fresh, &self.word);
            if caught == self.word.active {
                break;
            }
        }
        caught
    }

    /// [`SeqFaultSim::run`], then `observe` on the end state of a word that
    /// ran every cycle: the slots the test detects.
    fn run_observed<'v>(
        &mut self,
        vectors: impl IntoIterator<Item = &'v Vec<V3>>,
        observe: FinalObserve<'_>,
    ) -> u64 {
        let caught = self.run(vectors, |_, _, _| {});
        if caught == self.word.active {
            caught
        } else {
            caught | self.word.observe(observe)
        }
    }
}

/// Records cycle `t` of a word in its faults' profiles: the slots a primary
/// output detected first in the cycle (`fresh`), and, for the slots no
/// output has detected yet (outside `po_done`), whether a scan-out after
/// the cycle would observe a difference. A bit of a cycle at or past
/// `max_state_words × 64` is dropped; returns how many were.
fn profile_cycle(
    profiles: &mut [DetectionProfile],
    t: usize,
    fresh: u64,
    po_done: u64,
    word: &Word<'_>,
    max_state_words: usize,
) -> u64 {
    for k in slots(fresh) {
        profiles[k].po_detect = Some(t as u32);
    }
    let mut dropped = 0;
    for k in slots(word.observe(FinalObserve::FullState) & !po_done) {
        if t / 64 < max_state_words {
            profiles[k].set_state_diff(t);
        } else {
            dropped += 1;
        }
    }
    dropped
}

/// Incremental parallel-fault sequential simulator: keeps every faulty
/// machine's state across appended vectors, so that candidate vectors can
/// be scored and a sequence extended one vector at a time — the `T_0`
/// generators and the dynamic-compaction baseline run on it.
///
/// Primary outputs are observed on every applied vector;
/// [`IncrementalSim::scan_observe`] models a scan-out.
#[derive(Debug)]
pub struct IncrementalSim<'a> {
    nl: &'a Netlist,
    words: Vec<Word<'a>>,
    /// Per word, the slots detected so far.
    detected: Vec<u64>,
    vals: Vec<W3>,
    /// Every word's state and detections at the last checkpoint.
    saved_states: Vec<W3>,
    saved_detected: Vec<u64>,
}

/// Marks the slots of `mask` in `detected` and returns how many are new.
fn credit(detected: &mut u64, mask: u64) -> usize {
    let fresh = mask & !*detected;
    *detected |= fresh;
    fresh.count_ones() as usize
}

impl<'a> IncrementalSim<'a> {
    /// Packs `targets` into words of up to 63 faulty machines, every
    /// machine in the unknown initial state.
    pub fn new(nl: &'a Netlist, universe: &FaultUniverse, targets: &[FaultId]) -> Self {
        let cc = nl.compiled();
        let words: Vec<Word<'a>> = targets
            .chunks(FAULTS_PER_PASS)
            .map(|chunk| {
                let mut word = Word::new(cc);
                word.set_faults(chunk, universe);
                word
            })
            .collect();
        let mut sim = IncrementalSim {
            nl,
            detected: vec![0; words.len()],
            words,
            vals: vec![W3::ALL_X; cc.num_nets()],
            saved_states: Vec::new(),
            saved_detected: Vec::new(),
        };
        sim.checkpoint();
        sim
    }

    /// Overwrites every machine's flip-flop state with `state`, modeling a
    /// scan-in (all machines receive the same scanned value; stuck-at
    /// effects re-apply at the next evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one value per flip-flop.
    pub fn load_state(&mut self, state: &[V3]) {
        assert_eq!(state.len(), self.nl.num_ffs(), "state width mismatch");
        for word in &mut self.words {
            word.load(state);
        }
    }

    /// Observes the current flip-flop state of every machine (modeling a
    /// scan-out) and returns the number of newly detected faults.
    pub fn scan_observe(&mut self) -> usize {
        let mut newly = 0usize;
        for (word, detected) in self.words.iter().zip(&mut self.detected) {
            newly += credit(detected, word.observe(FinalObserve::FullState));
        }
        newly
    }

    /// Total faults detected so far.
    pub fn total_detected(&self) -> usize {
        self.detected.iter().map(|d| d.count_ones() as usize).sum()
    }

    /// Whether every tracked fault has been detected.
    pub fn all_detected(&self) -> bool {
        self.words
            .iter()
            .zip(&self.detected)
            .all(|(word, &detected)| detected == word.active)
    }

    /// Applies `vector` to every machine, committing states; returns the
    /// number of faults a primary output newly detects.
    pub fn apply(&mut self, vector: &[V3]) -> usize {
        let mut newly = 0usize;
        for (word, detected) in self.words.iter_mut().zip(&mut self.detected) {
            let po = word.eval(&mut self.vals, vector);
            word.capture(&self.vals);
            newly += credit(detected, po);
        }
        newly
    }

    /// Records every machine's state and the detections so far;
    /// [`IncrementalSim::rollback`] returns to them.
    pub fn checkpoint(&mut self) {
        self.saved_states.clear();
        for word in &self.words {
            self.saved_states.extend_from_slice(&word.state);
        }
        self.saved_detected.clone_from(&self.detected);
    }

    /// Restores the states and detections of the last
    /// [`IncrementalSim::checkpoint`] (the unknown initial state with
    /// nothing detected when none was taken).
    pub fn rollback(&mut self) {
        let width = self.nl.num_ffs().max(1);
        for (word, state) in self.words.iter_mut().zip(self.saved_states.chunks(width)) {
            word.state.copy_from_slice(state);
        }
        self.detected.clone_from(&self.saved_detected);
    }

    /// Scores every candidate in `cands` without committing: `(new
    /// detections, state activity)` over the first `sample` words with an
    /// undetected fault, where activity counts the undetected faulty
    /// machines whose next state differs from the good one. Evaluation
    /// rewrites every net from the seeded inputs, so the candidates share
    /// one net scratch and the states stay as they were.
    pub fn score_batch(&mut self, cands: &[Vec<V3>], sample: usize) -> Vec<(usize, usize)> {
        let IncrementalSim {
            words,
            detected,
            vals,
            ..
        } = self;
        cands
            .iter()
            .map(|vector| {
                let live = words
                    .iter()
                    .zip(detected.iter())
                    .filter(|(word, &detected)| detected != word.active);
                let mut score = (0, 0);
                for (word, &detected) in live.take(sample) {
                    score.0 += (word.eval(vals, vector) & !detected).count_ones() as usize;
                    score.1 += (word.next_state_diff(vals) & !detected).count_ones() as usize;
                }
                score
            })
            .collect()
    }
}

/// Writes one cycle's sources: the input vector broadcast to every slot,
/// and each slot's flip-flop state.
pub(crate) fn seed_sources(cc: &CompiledCircuit, vals: &mut [W3], vector: &[V3], state: &[W3]) {
    let (pis, ffs) = (cc.num_pis(), cc.num_ffs());
    for (w, &v) in vals[..pis].iter_mut().zip(&vector[..pis]) {
        *w = W3::broadcast(v);
    }
    vals[pis..pis + ffs].copy_from_slice(&state[..ffs]);
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

/// Appends a scalar state to `out`, packed as [`pack_slot`] packs one.
fn pack_values(state: &[V3], out: &mut Vec<W3>) {
    for ffs in state.chunks(64) {
        let mut w = W3::ALL_X;
        for (b, &v) in ffs.iter().enumerate() {
            w.set(b, v);
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
        // A partial scan-out observes only the flip-flops on the chain.
        for scanned in [false, true] {
            let observe = FinalObserve::PartialState(&[scanned]);
            let det = fsim.detect_observed(&vec![V3::Zero], &seq, &[target], &u, observe);
            assert_eq!(det, vec![scanned]);
        }
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
