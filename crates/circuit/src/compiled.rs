//! A flat, cache-friendly compiled view of a [`Netlist`].
//!
//! [`Netlist`] stores each gate's inputs in its own heap-allocated
//! `Vec<NetId>` and each net's fanouts in a `Vec<Vec<Sink>>`, which is
//! convenient to build and inspect but forces a pointer chase per gate in
//! every simulation inner loop. [`CompiledCircuit`] re-lays the same
//! structure out as a handful of contiguous arrays in compressed-sparse-row
//! (CSR) form:
//!
//! - the **value slots**: the compiled view numbers the value array a
//!   simulation works on. Slot `k < S` holds source `k`: the primary inputs
//!   in declaration order, then the flip-flop outputs by [`FfId`] (`S` is
//!   their count, [`CompiledCircuit::num_sources`]). Slot `S + i` holds the
//!   output of op `i`. Every net is a source or a gate output (the builder
//!   rejects undriven nets), so `slot_of` maps the nets one to one onto the
//!   slots ([`CompiledCircuit::slot_of`]);
//! - the **evaluation program**: every gate once, as an *op*, level by
//!   level, and within a level grouped by kind and fanin. Each op's
//!   [`GateKind`] and input-pin span (one `pin_slots` array with a
//!   `pin_offsets` table) are stored once, in op order, and op `i` writes
//!   slot `S + i`, so a full pass writes the value array from slot `S` up,
//!   in order ([`CompiledCircuit::ops`]). `op_of` maps a gate to its op;
//! - the program's **runs**: maximal stretches of consecutive ops in one
//!   level that share a kind and a fanin, one small record each (where the
//!   run's ops and pins end, its kind and fanin), so a pass can dispatch
//!   once per run ([`CompiledCircuit::runs`]). A run writes one contiguous
//!   stretch of slots, and every pin of an op reads a slot below its
//!   level's first output slot;
//! - the level `schedule` lists the gates level by level in id order
//!   (`level_offsets` delimits each level) — the order searches that take
//!   the first match, such as PODEM's D-frontier, walk;
//! - the gate-sink fanout of every slot is one `fanout_gates` array with a
//!   `fanout_offsets` table (slot → span of consuming gates, deduplicated);
//! - per-gate levels (by gate id) and per-slot observability flags are
//!   plain dense arrays.
//!
//! Grouping a level's ops by kind and fanin forms the runs; gates of one
//! level are independent, so no order within a level changes a value, and
//! no op of a run reads another's output.
//!
//! [`NetId`]s stay the workspace's names for nets: the fault universe is
//! enumerated in net order, and every table and count follows it. A caller
//! that holds a net converts it with `slot_of` once, where it enters a
//! simulation (a fault site, an observed net), never per gate.
//!
//! The compiled view is built once per netlist — [`Netlist::compiled`]
//! caches it — and [`CompiledCircuit::validate`] cross-checks every array
//! against the pointer-based representation, which the differential test
//! suites lean on.

use std::ops::Range;

use crate::{FfId, GateId, GateKind, NetId, Netlist, Sink, Slot};

/// Flat CSR view of a [`Netlist`]'s combinational core (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCircuit {
    num_pis: usize,
    max_level: u32,
    // The evaluation program, in op order: op `k` writes slot `S + k` with
    // `kinds[k]` over `pin_slots[pin_offsets[k]..pin_offsets[k+1]]`. Ops of
    // level `l` are positions `level_offsets[l]..level_offsets[l+1]`.
    kinds: Vec<GateKind>,
    pin_offsets: Vec<u32>,
    pin_slots: Vec<Slot>,
    // The run table, in op order: each run starts where the one before it
    // ends.
    runs: Vec<RunEnd>,
    // Gate → op position, and net → slot.
    op_of: Vec<u32>,
    slot_of: Vec<Slot>,
    gate_levels: Vec<u32>,
    // Level-bucketed gate order, id order within a level: gates of level
    // `l` are `schedule[level_offsets[l]..level_offsets[l+1]]`.
    level_offsets: Vec<u32>,
    schedule: Vec<GateId>,
    // Slot-fanout CSR restricted to gate sinks, deduplicated per slot.
    fanout_offsets: Vec<u32>,
    fanout_gates: Vec<GateId>,
    // Per-slot flags.
    observed: Vec<bool>,
    // Observation points: flip-flop D inputs by `FfId`, primary outputs by
    // position.
    ff_d: Vec<Slot>,
    po_slots: Vec<Slot>,
}

impl CompiledCircuit {
    /// Compiles `nl` into the flat CSR layout.
    pub fn compile(nl: &Netlist) -> Self {
        let num_gates = nl.num_gates();
        let gate_levels: Vec<u32> = nl.gates().iter().map(|g| nl.level(g.output())).collect();

        // Counting sort of gates into level buckets, id order inside a
        // bucket.
        let levels = nl.max_level() as usize + 1;
        let mut counts = vec![0u32; levels + 1];
        for &lvl in &gate_levels {
            counts[lvl as usize + 1] += 1;
        }
        for l in 0..levels {
            counts[l + 1] += counts[l];
        }
        let level_offsets = counts.clone();
        let mut schedule = vec![GateId::from_index(0); num_gates];
        let mut cursor = counts;
        for (gi, &lvl) in gate_levels.iter().enumerate() {
            let slot = cursor[lvl as usize];
            schedule[slot as usize] = GateId::from_index(gi);
            cursor[lvl as usize] += 1;
        }

        // The op order: the schedule with each level sorted by kind and
        // fanin, ties in id order. Each gate's key packs (kind, fanin, id)
        // into one integer, so the sort compares plain integers, and the
        // keys are distinct, so an unstable sort gives the stable order.
        // Any order within a level is valid, so clamping the fanin field
        // only lumps absurdly wide gates together.
        let mut keys: Vec<u64> = schedule
            .iter()
            .map(|&gid| {
                let g = nl.gate(gid);
                let fanin = g.inputs().len().min((1 << 24) - 1) as u64;
                (g.kind() as u64) << 56 | fanin << 32 | gid.index() as u64
            })
            .collect();
        for level in level_offsets.windows(2) {
            keys[level[0] as usize..level[1] as usize].sort_unstable();
        }
        let ops: Vec<GateId> = keys
            .into_iter()
            .map(|key| GateId::from_index((key & 0xffff_ffff) as usize))
            .collect();
        let cc = CompiledCircuit::lay_out(nl, &ops, gate_levels, level_offsets, schedule);
        debug_assert_eq!(cc.validate(nl), Ok(()));
        cc
    }

    /// Lays out the slots, the program, its runs and the slot-indexed
    /// tables from the op order `ops` (a permutation of the gates), in one
    /// pass over the sources and one over the ops.
    fn lay_out(
        nl: &Netlist,
        ops: &[GateId],
        gate_levels: Vec<u32>,
        level_offsets: Vec<u32>,
        schedule: Vec<GateId>,
    ) -> Self {
        let num_pis = nl.num_pis();
        let sources = num_pis + nl.num_ffs();
        let total_pins: usize = nl.gates().iter().map(|g| g.inputs().len()).sum();

        // Every gate pin contributes at most one fanout entry (duplicates
        // to the same gate are removed), so the pin count is a tight bound.
        let mut fanout_offsets = Vec::with_capacity(nl.num_nets() + 1);
        let mut fanout_gates: Vec<GateId> = Vec::with_capacity(total_pins);
        let mut observed = vec![false; nl.num_nets()];
        fanout_offsets.push(0u32);
        // Appends the fanout span of the next slot, which holds `net`.
        let mut push_fanout = |net: NetId| {
            let slot = fanout_offsets.len() - 1;
            for sink in nl.fanouts(net) {
                match *sink {
                    Sink::GatePin(gid, _) => {
                        // Multi-pin connections to one gate are adjacent in
                        // the fanout table (it is built gate-by-gate in pin
                        // order), so adjacent dedup removes all duplicates.
                        if fanout_gates.last() != Some(&gid)
                            || *fanout_offsets.last().expect("non-empty") as usize
                                == fanout_gates.len()
                        {
                            fanout_gates.push(gid);
                        }
                    }
                    Sink::FfD(_) | Sink::Po(_) => observed[slot] = true,
                }
            }
            fanout_offsets.push(u32::try_from(fanout_gates.len()).expect("fanout overflow"));
        };

        // Every net is a source or a gate output, so the sources and the
        // ops place them all.
        let mut slot_of = vec![Slot::from_index(u32::MAX as usize); nl.num_nets()];
        let source_nets = nl
            .pis()
            .iter()
            .copied()
            .chain(nl.ffs().iter().map(|ff| ff.q()));
        for (slot, net) in source_nets.enumerate() {
            slot_of[net.index()] = Slot::from_index(slot);
            push_fanout(net);
        }

        let mut kinds = Vec::with_capacity(ops.len());
        let mut pin_offsets = Vec::with_capacity(ops.len() + 1);
        let mut pin_slots = Vec::with_capacity(total_pins);
        let mut runs: Vec<RunEnd> = Vec::new();
        let mut op_of = vec![0; nl.num_gates()];
        pin_offsets.push(0);
        let mut run_level = 0;
        for (op, &gid) in ops.iter().enumerate() {
            let g = nl.gate(gid);
            // Op `op` writes slot `S + op`. Its pins read lower levels,
            // whose ops come earlier and are placed already.
            slot_of[g.output().index()] = Slot::from_index(sources + op);
            push_fanout(g.output());
            let op = u32::try_from(op).expect("gate count overflow");
            kinds.push(g.kind());
            pin_slots.extend(g.inputs().iter().map(|&net| slot_of[net.index()]));
            let pin_end = u32::try_from(pin_slots.len()).expect("pin count overflow");
            pin_offsets.push(pin_end);
            op_of[gid.index()] = op;
            // The op extends the last run if it shares its level, kind and
            // fanin, and starts a new one otherwise.
            let level = nl.level(g.output());
            let end = RunEnd {
                op_end: op + 1,
                pin_end,
                kind: g.kind(),
                fanin: u16::try_from(g.inputs().len()).expect("fanin is at most MAX_FANIN"),
            };
            match runs.last_mut() {
                Some(run)
                    if run_level == level && (run.kind, run.fanin) == (end.kind, end.fanin) =>
                {
                    *run = end;
                }
                _ => runs.push(end),
            }
            run_level = level;
        }
        let to_slot = |net: NetId| slot_of[net.index()];

        CompiledCircuit {
            num_pis,
            max_level: nl.max_level(),
            kinds,
            pin_offsets,
            pin_slots,
            runs,
            op_of,
            gate_levels,
            level_offsets,
            schedule,
            fanout_offsets,
            fanout_gates,
            observed,
            ff_d: nl.ffs().iter().map(|ff| to_slot(ff.d())).collect(),
            po_slots: nl.pos().iter().map(|&po| to_slot(po)).collect(),
            slot_of,
        }
    }

    /// Cross-checks every compiled array against the pointer-based netlist.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self, nl: &Netlist) -> Result<(), String> {
        if self.slot_of.len() != nl.num_nets() {
            return Err(format!(
                "net count {} != {}",
                self.slot_of.len(),
                nl.num_nets()
            ));
        }
        if self.kinds.len() != nl.num_gates() || self.max_level != nl.max_level() {
            return Err("gate count or max level mismatch".into());
        }
        if self.pin_offsets.len() != self.kinds.len() + 1 || self.op_of.len() != self.kinds.len() {
            return Err("program array lengths mismatch".into());
        }
        if self.num_pis != nl.num_pis()
            || self.ff_d.len() != nl.num_ffs()
            || self.po_slots.len() != nl.num_pos()
        {
            return Err("interface counts mismatch".into());
        }
        // The program must be a level-sorted permutation of the gates, and
        // `op_of` its inverse: every gate owns one op, inside its level's
        // span.
        let mut gate_at = vec![None; nl.num_gates()];
        for gid in nl.gate_ids() {
            let op = self.op_of[gid.index()] as usize;
            match gate_at.get_mut(op) {
                Some(slot @ None) => *slot = Some(gid),
                Some(Some(other)) => return Err(format!("{gid}: op {op} also holds {other}")),
                None => return Err(format!("{gid}: op {op} out of range")),
            }
            if self.gate_levels[gid.index()] != nl.level(nl.gate(gid).output()) {
                return Err(format!("{gid}: level mismatch"));
            }
            if !self
                .ops_at_level(self.gate_levels[gid.index()])
                .contains(&op)
            {
                return Err(format!("{gid}: op {op} not level-sorted"));
            }
        }
        self.validate_slots(nl)?;
        // Each op computes its gate: same kind, and its gate's pins through
        // `slot_of`. Every pin reads a slot below the first output slot of
        // the op's level, so a pass can split the value array there and
        // write a run's outputs while it reads the part below.
        for (op, gid) in gate_at.into_iter().enumerate() {
            let gid = gid.expect("op_of is a bijection");
            let g = nl.gate(gid);
            if self.kinds[op] != g.kind() {
                return Err(format!("op {op}: kind mismatch"));
            }
            let level_start = self.op_slot(self.ops_at_level(self.gate_levels[gid.index()]).start);
            if let Some(pin) = self.op_inputs(op).iter().find(|&&pin| pin >= level_start) {
                return Err(format!(
                    "op {op}: pin slot {pin} is not below its level's first output slot \
                     {level_start}"
                ));
            }
            if !self
                .op_inputs(op)
                .iter()
                .copied()
                .eq(g.inputs().iter().map(|&net| self.slot_of(net)))
            {
                return Err(format!("op {op}: input span mismatch"));
            }
        }
        self.validate_runs()?;
        // The schedule must list every gate once, level by level, in id
        // order within a level.
        let mut last: Option<(u32, GateId)> = None;
        for &gid in &self.schedule {
            let key = (self.gate_levels[gid.index()], gid);
            if last.is_some_and(|prev| prev >= key) {
                return Err(format!("{gid}: schedule not in level-then-id order"));
            }
            last = Some(key);
        }
        if self.schedule.len() != nl.num_gates() {
            return Err("schedule misses a gate".into());
        }
        for l in 0..=self.max_level {
            for &gid in self.gates_at_level(l) {
                if self.gate_levels[gid.index()] != l {
                    return Err(format!("{gid}: wrong level bucket"));
                }
            }
        }
        for net in nl.net_ids() {
            let slot = self.slot_of(net);
            let mut expect: Vec<GateId> = Vec::new();
            let mut obs = false;
            for sink in nl.fanouts(net) {
                match *sink {
                    Sink::GatePin(gid, _) => {
                        if expect.last() != Some(&gid) {
                            expect.push(gid);
                        }
                    }
                    Sink::FfD(_) | Sink::Po(_) => obs = true,
                }
            }
            if self.fanout_gates(slot) != expect.as_slice() {
                return Err(format!("{net}: fanout span mismatch"));
            }
            if self.observed[slot.index()] != obs {
                return Err(format!("{net}: observed flag mismatch"));
            }
        }
        for (fi, ff) in nl.ffs().iter().enumerate() {
            if self.ff_d[fi] != self.slot_of(ff.d()) {
                return Err(format!("ff{fi}: d slot mismatch"));
            }
        }
        for (k, &po) in nl.pos().iter().enumerate() {
            if self.po_slots[k] != self.slot_of(po) {
                return Err(format!("po{k}: slot mismatch"));
            }
        }
        Ok(())
    }

    /// Checks the slot numbering: `slot_of` maps the nets one to one onto
    /// the slots, the primary inputs hold slots `0..`, the flip-flop
    /// outputs the slots after them, and op `i`'s output slot `S + i`.
    fn validate_slots(&self, nl: &Netlist) -> Result<(), String> {
        let mut net_at = vec![None; nl.num_nets()];
        for net in nl.net_ids() {
            let slot = self.slot_of(net);
            match net_at.get_mut(slot.index()) {
                Some(held @ None) => *held = Some(net),
                Some(Some(other)) => return Err(format!("{net}: slot {slot} also holds {other}")),
                None => return Err(format!("{net}: slot {slot} out of range")),
            }
        }
        for (i, &pi) in nl.pis().iter().enumerate() {
            if self.slot_of(pi).index() != i {
                return Err(format!("primary input {i} ({pi}) is not slot {i}"));
            }
        }
        for (f, ff) in nl.ffs().iter().enumerate() {
            let want = self.ff_q(FfId::from_index(f));
            if self.slot_of(ff.q()) != want {
                return Err(format!("ff{f}: q net is not slot {want}"));
            }
        }
        for gid in nl.gate_ids() {
            let want = self.gate_slot(gid);
            if self.slot_of(nl.gate(gid).output()) != want {
                return Err(format!("{gid}: output net is not slot {want}"));
            }
        }
        Ok(())
    }

    /// Checks that the runs tile the program in order, that each lies in
    /// one level with one kind and one fanin, and that adjacent runs of one
    /// level differ (each run is maximal).
    fn validate_runs(&self) -> Result<(), String> {
        let mut start = 0;
        let mut prev: Option<(usize, RunEnd)> = None;
        for &run in &self.runs {
            let ops = start..run.op_end as usize;
            if ops.is_empty() || ops.end > self.kinds.len() {
                return Err(format!(
                    "run ending at op {} is empty or out of range",
                    ops.end
                ));
            }
            if run.pin_end != self.pin_offsets[ops.end] {
                return Err(format!("run {ops:?}: pin end mismatch"));
            }
            // The last level starting at or before the run's first op is
            // the (non-empty) level holding it.
            let level = self
                .level_offsets
                .partition_point(|&o| o as usize <= ops.start)
                - 1;
            if ops.end > self.level_offsets[level + 1] as usize {
                return Err(format!("run {ops:?} crosses the end of level {level}"));
            }
            if ops.clone().any(|op| {
                self.kinds[op] != run.kind || self.op_inputs(op).len() != run.fanin.into()
            }) {
                return Err(format!("run {ops:?} mixes kinds or fanins"));
            }
            if prev.is_some_and(|(l, p)| l == level && (p.kind, p.fanin) == (run.kind, run.fanin)) {
                return Err(format!("run {ops:?} continues the run before it"));
            }
            prev = Some((level, run));
            start = ops.end;
        }
        if start != self.kinds.len() {
            return Err("runs do not tile the program".into());
        }
        Ok(())
    }

    /// Number of nets, and of slots.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.slot_of.len()
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Number of primary inputs: they hold slots `0..num_pis()`.
    #[inline]
    pub fn num_pis(&self) -> usize {
        self.num_pis
    }

    /// Number of flip-flops: their outputs hold slots
    /// `num_pis()..num_sources()`.
    #[inline]
    pub fn num_ffs(&self) -> usize {
        self.ff_d.len()
    }

    /// Number of source slots `S` (primary inputs and flip-flop outputs),
    /// the slots a simulation seeds; op `i` writes slot `S + i`.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.num_pis + self.ff_d.len()
    }

    /// The maximum combinational level (0 if gate-free).
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// The slot holding a net's value.
    #[inline]
    pub fn slot_of(&self, net: NetId) -> Slot {
        self.slot_of[net.index()]
    }

    /// The slot op `op` writes.
    #[inline]
    pub fn op_slot(&self, op: usize) -> Slot {
        Slot::from_index(self.num_sources() + op)
    }

    /// The op writing a slot, or `None` for a source slot (a primary input
    /// or flip-flop output).
    #[inline]
    pub fn slot_op(&self, slot: Slot) -> Option<usize> {
        slot.index().checked_sub(self.num_sources())
    }

    /// The logic function of a gate.
    #[inline]
    pub fn kind(&self, gate: GateId) -> GateKind {
        self.kinds[self.op_of(gate)]
    }

    /// The slot a gate writes.
    #[inline]
    pub fn gate_slot(&self, gate: GateId) -> Slot {
        self.op_slot(self.op_of(gate))
    }

    /// The combinational level of a gate's output.
    #[inline]
    pub fn gate_level(&self, gate: GateId) -> u32 {
        self.gate_levels[gate.index()]
    }

    /// A gate's input slots in pin order (a span of the `pin_slots` CSR).
    #[inline]
    pub fn inputs(&self, gate: GateId) -> &[Slot] {
        self.op_inputs(self.op_of(gate))
    }

    /// The op position of a gate in the evaluation program.
    #[inline]
    pub fn op_of(&self, gate: GateId) -> usize {
        self.op_of[gate.index()] as usize
    }

    /// The logic function of op `op`.
    #[inline]
    pub fn op_kind(&self, op: usize) -> GateKind {
        self.kinds[op]
    }

    /// The input slots of op `op` in pin order.
    #[inline]
    pub fn op_inputs(&self, op: usize) -> &[Slot] {
        let lo = self.pin_offsets[op] as usize;
        let hi = self.pin_offsets[op + 1] as usize;
        &self.pin_slots[lo..hi]
    }

    /// The op positions of level `level`.
    #[inline]
    pub fn ops_at_level(&self, level: u32) -> Range<usize> {
        let l = level as usize;
        self.level_offsets[l] as usize..self.level_offsets[l + 1] as usize
    }

    /// The evaluation program: every op's kind, output slot and input
    /// slots, in op order (a valid evaluation order, grouped by kind and
    /// fanin within each level).
    #[inline]
    pub fn ops(
        &self,
    ) -> impl DoubleEndedIterator<Item = (GateKind, Slot, &[Slot])> + ExactSizeIterator + '_ {
        self.kinds
            .iter()
            .zip(self.pin_offsets.windows(2))
            .enumerate()
            .map(|(op, (&kind, span))| {
                (
                    kind,
                    self.op_slot(op),
                    &self.pin_slots[span[0] as usize..span[1] as usize],
                )
            })
    }

    /// The evaluation program as runs, in op order: maximal stretches of
    /// consecutive ops in one level that share a kind and a fanin.
    #[inline]
    pub fn runs(&self) -> impl ExactSizeIterator<Item = Run<'_>> + '_ {
        let sources = self.num_sources();
        let (mut op_lo, mut pin_lo) = (0, 0);
        self.runs.iter().map(move |run| {
            let ops = op_lo..run.op_end as usize;
            let pins = pin_lo..run.pin_end as usize;
            (op_lo, pin_lo) = (ops.end, pins.end);
            Run {
                kind: run.kind,
                fanin: run.fanin.into(),
                outputs: sources + ops.start..sources + ops.end,
                pins: &self.pin_slots[pins],
                ops,
            }
        })
    }

    /// All gates by ascending level, in id order within a level (a valid
    /// evaluation order; searches that take the first match walk it).
    #[inline]
    pub fn schedule(&self) -> &[GateId] {
        &self.schedule
    }

    /// The gates whose output sits at combinational level `level`, in id
    /// order.
    #[inline]
    pub fn gates_at_level(&self, level: u32) -> &[GateId] {
        &self.schedule[self.ops_at_level(level)]
    }

    /// The gates reading a slot (deduplicated; multi-pin connections to
    /// the same gate appear once).
    #[inline]
    pub fn fanout_gates(&self, slot: Slot) -> &[GateId] {
        let s = slot.index();
        let lo = self.fanout_offsets[s] as usize;
        let hi = self.fanout_offsets[s + 1] as usize;
        &self.fanout_gates[lo..hi]
    }

    /// Whether a slot is directly observed (feeds a primary output position
    /// or a flip-flop D input).
    #[inline]
    pub fn observed(&self, slot: Slot) -> bool {
        self.observed[slot.index()]
    }

    /// The slot of one flip-flop's Q (state output) net.
    #[inline]
    pub fn ff_q(&self, ff: FfId) -> Slot {
        Slot::from_index(self.num_pis + ff.index())
    }

    /// Flip-flop D (state input) slots, indexed by [`FfId`].
    #[inline]
    pub fn ff_ds(&self) -> &[Slot] {
        &self.ff_d
    }

    /// The D slot of one flip-flop.
    #[inline]
    pub fn ff_d(&self, ff: FfId) -> Slot {
        self.ff_d[ff.index()]
    }

    /// Primary-output slots in declaration order.
    #[inline]
    pub fn pos(&self) -> &[Slot] {
        &self.po_slots
    }
}

/// One run of the evaluation program ([`CompiledCircuit::runs`]): ops
/// `ops`, each computing `kind` over `fanin` pins. Op `ops.start + i`
/// writes slot `outputs.start + i` from `pins[i * fanin..(i + 1) * fanin]`.
/// The ops sit in one level, so none reads another's output, and every pin
/// slot lies below `outputs.start`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run<'a> {
    /// The logic function of every op.
    pub kind: GateKind,
    /// The input count of every op.
    pub fanin: usize,
    /// The op positions.
    pub ops: Range<usize>,
    /// The output slots, in op order: one contiguous stretch.
    pub outputs: Range<usize>,
    /// The input slots, `fanin` per op, in op order.
    pub pins: &'a [Slot],
}

/// One run's record in the run table: its ops end at `op_end` and its pins
/// at `pin_end`, and every op computes `kind` over `fanin` pins. A run
/// starts where the one before it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunEnd {
    op_end: u32,
    pin_end: u32,
    kind: GateKind,
    fanin: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_fmt::s27;
    use crate::synth::{generate, SynthSpec};
    use crate::NetlistBuilder;

    #[test]
    fn compiles_and_validates_s27() {
        let nl = s27();
        let cc = CompiledCircuit::compile(&nl);
        assert_eq!(cc.validate(&nl), Ok(()));
        assert_eq!(cc.num_gates(), nl.num_gates());
        assert_eq!(cc.num_nets(), nl.num_nets());
        assert_eq!(cc.num_pis(), nl.num_pis());
        let pos: Vec<Slot> = nl.pos().iter().map(|&po| cc.slot_of(po)).collect();
        assert_eq!(cc.pos(), pos.as_slice());
    }

    #[test]
    fn compiles_and_validates_synthetic() {
        let nl = generate(&SynthSpec::new("cc", 7, 5, 11, 240, 3)).unwrap();
        let cc = CompiledCircuit::compile(&nl);
        assert_eq!(cc.validate(&nl), Ok(()));
    }

    #[test]
    fn schedule_is_a_valid_evaluation_order() {
        let nl = s27();
        let cc = CompiledCircuit::compile(&nl);
        // Walking the schedule, every gate input must already be defined:
        // either a source slot or the output of an earlier-scheduled gate.
        let mut defined = vec![false; nl.num_nets()];
        for (slot, defined) in defined.iter_mut().enumerate() {
            *defined = cc.slot_op(Slot::from_index(slot)).is_none();
        }
        for &gid in cc.schedule() {
            for &input in cc.inputs(gid) {
                assert!(defined[input.index()], "{gid} reads undefined {input}");
            }
            defined[cc.gate_slot(gid).index()] = true;
        }
        assert!(defined.iter().all(|&d| d));
    }

    /// The gate at every op position (the inverse of `op_of`).
    fn op_order(cc: &CompiledCircuit) -> Vec<GateId> {
        let mut ops = vec![GateId::from_index(0); cc.num_gates()];
        for gi in 0..cc.num_gates() {
            let gid = GateId::from_index(gi);
            ops[cc.op_of(gid)] = gid;
        }
        ops
    }

    /// `cc` with its slots, program and slot tables re-laid out from the op
    /// order `ops`.
    fn with_program(nl: &Netlist, cc: &CompiledCircuit, ops: &[GateId]) -> CompiledCircuit {
        CompiledCircuit::lay_out(
            nl,
            ops,
            cc.gate_levels.clone(),
            cc.level_offsets.clone(),
            cc.schedule.clone(),
        )
    }

    fn catalog_and_synthetic() -> Vec<Netlist> {
        let mut nls: Vec<Netlist> = crate::catalog::all()
            .iter()
            .map(|b| b.instantiate())
            .collect();
        nls.push(s27());
        for seed in 0..4 {
            nls.push(generate(&SynthSpec::new("prog", 9, 5, 13, 400, seed)).unwrap());
        }
        nls
    }

    #[test]
    fn program_validates_on_catalog_and_synthetic_circuits() {
        for nl in catalog_and_synthetic() {
            let cc = CompiledCircuit::compile(&nl);
            assert_eq!(cc.validate(&nl), Ok(()), "{}", nl.name());
            assert_eq!(cc.ops().len(), nl.num_gates());
            for (op, (kind, out, pins)) in cc.ops().enumerate() {
                assert_eq!(kind, cc.op_kind(op));
                assert_eq!(out, cc.op_slot(op));
                assert_eq!(pins, cc.op_inputs(op));
                assert_eq!(cc.slot_op(out), Some(op), "{}: op {op}", nl.name());
            }
            // Each run hands out its ops' kinds, output slots and pins.
            let mut next = 0;
            for run in cc.runs() {
                assert_eq!(run.ops.start, next, "{}", nl.name());
                next = run.ops.end;
                assert_eq!(run.outputs.len(), run.ops.len());
                for (i, op) in run.ops.clone().enumerate() {
                    assert_eq!(run.kind, cc.op_kind(op));
                    assert_eq!(run.outputs.start + i, cc.op_slot(op).index());
                    assert_eq!(&run.pins[i * run.fanin..][..run.fanin], cc.op_inputs(op));
                    assert!(run.pins.iter().all(|pin| pin.index() < run.outputs.start));
                }
            }
            assert_eq!(next, nl.num_gates());
        }
    }

    #[test]
    fn validate_rejects_ops_swapped_across_a_level() {
        let nl = generate(&SynthSpec::new("swap", 7, 5, 11, 240, 3)).unwrap();
        let cc = CompiledCircuit::compile(&nl);
        let ops = op_order(&cc);
        // Swapping two ops of one level keeps a valid program; swapping
        // an op of level 1 with one of level 2 does not, although each op
        // still computes its own gate and `op_of` is still its inverse.
        let l1 = cc.ops_at_level(1);
        let l2 = cc.ops_at_level(2);
        assert!(l1.len() >= 2 && !l2.is_empty());
        let mut within = ops.clone();
        within.swap(l1.start, l1.start + 1);
        assert_eq!(with_program(&nl, &cc, &within).validate(&nl), Ok(()));
        let mut across = ops;
        across.swap(l1.start, l2.start);
        let err = with_program(&nl, &cc, &across).validate(&nl).unwrap_err();
        assert!(err.contains("not level-sorted"), "{err}");
    }

    #[test]
    fn validate_rejects_a_run_merged_across_a_level() {
        let nl = generate(&SynthSpec::new("runs", 7, 5, 11, 240, 3)).unwrap();
        let cc = CompiledCircuit::compile(&nl);
        // Dropping the run boundary at the start of level 2 merges level
        // 1's last run with level 2's first; splitting a run in two leaves
        // two adjacent runs that should be one.
        assert_eq!(cc.validate(&nl), Ok(()));
        let boundary = cc.ops_at_level(2).start as u32;
        let mut merged = cc.clone();
        merged.runs.retain(|run| run.op_end != boundary);
        let err = merged.validate(&nl).unwrap_err();
        assert!(err.contains("crosses the end of level 1"), "{err}");
        let run = cc
            .runs()
            .find(|run| run.ops.len() >= 2)
            .expect("a run of two ops");
        let mut split = cc.clone();
        let at = split
            .runs
            .iter()
            .position(|r| r.op_end as usize == run.ops.end)
            .unwrap();
        let first = run.ops.start as u32 + 1;
        let head = RunEnd {
            op_end: first,
            pin_end: cc.pin_offsets[first as usize],
            ..split.runs[at]
        };
        split.runs.insert(at, head);
        let err = split.validate(&nl).unwrap_err();
        assert!(err.contains("continues the run before it"), "{err}");
    }

    /// A pin re-pointed at the output of an op in its own level reads a
    /// slot the kernel writes in the same stretch; validation rejects it
    /// before comparing the pin with the netlist.
    #[test]
    fn validate_rejects_a_pin_reading_its_own_level() {
        let nl = generate(&SynthSpec::new("pins", 7, 5, 11, 240, 3)).unwrap();
        let cc = CompiledCircuit::compile(&nl);
        let level = cc.ops_at_level(2);
        assert!(level.len() >= 2);
        let mut bad = cc.clone();
        let pin = bad.pin_offsets[level.start + 1] as usize;
        bad.pin_slots[pin] = cc.op_slot(level.start);
        let err = bad.validate(&nl).unwrap_err();
        assert!(
            err.contains("is not below its level's first output slot"),
            "{err}"
        );
        // A pin re-pointed at a lower slot still passes that check, and
        // fails the comparison with the netlist instead.
        let mut wrong = cc.clone();
        let pin = wrong.pin_offsets[level.start] as usize;
        wrong.pin_slots[pin] = Slot::from_index((cc.pin_slots[pin].index() + 1) % cc.num_sources());
        let err = wrong.validate(&nl).unwrap_err();
        assert!(err.contains("input span mismatch"), "{err}");
    }

    /// Two nets given one slot break the bijection; so does a source out of
    /// its place.
    #[test]
    fn validate_rejects_two_nets_in_one_slot() {
        let nl = generate(&SynthSpec::new("slots", 7, 5, 11, 240, 3)).unwrap();
        let cc = CompiledCircuit::compile(&nl);
        let (a, b) = (nl.pis()[0], nl.pis()[1]);
        let mut shared = cc.clone();
        shared.slot_of[b.index()] = cc.slot_of(a);
        let err = shared.validate(&nl).unwrap_err();
        assert!(err.contains("also holds"), "{err}");
        let mut swapped = cc.clone();
        swapped.slot_of.swap(a.index(), b.index());
        let err = swapped.validate(&nl).unwrap_err();
        assert!(err.contains("primary input 0"), "{err}");
    }

    #[test]
    fn slots_follow_the_program() {
        for nl in catalog_and_synthetic() {
            let cc = CompiledCircuit::compile(&nl);
            for (i, &pi) in nl.pis().iter().enumerate() {
                assert_eq!(cc.slot_of(pi).index(), i);
            }
            for (f, ff) in nl.ffs().iter().enumerate() {
                let slot = cc.ff_q(FfId::from_index(f));
                assert_eq!(cc.slot_of(ff.q()), slot);
                assert_eq!(slot.index(), nl.num_pis() + f);
                assert_eq!(cc.ff_d(FfId::from_index(f)), cc.slot_of(ff.d()));
            }
            for gid in nl.gate_ids() {
                let slot = cc.slot_of(nl.gate(gid).output());
                assert_eq!(slot, cc.gate_slot(gid));
                assert_eq!(cc.slot_op(slot), Some(cc.op_of(gid)));
            }
            assert_eq!(cc.num_sources(), nl.num_pis() + nl.num_ffs());
            assert_eq!(cc.num_sources() + cc.num_gates(), cc.num_nets());
        }
    }

    #[test]
    fn ops_are_grouped_by_kind_and_fanin_within_each_level() {
        for nl in catalog_and_synthetic() {
            let cc = CompiledCircuit::compile(&nl);
            let ops = op_order(&cc);
            for level in 0..=cc.max_level() {
                let span = cc.ops_at_level(level);
                let keys: Vec<(GateKind, usize, GateId)> = span
                    .map(|op| (cc.op_kind(op), cc.op_inputs(op).len(), ops[op]))
                    .collect();
                // Sorted by (kind, fanin), ties in gate-id order.
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "{} level {level}: {keys:?}",
                    nl.name()
                );
            }
        }
    }

    #[test]
    fn schedule_is_level_then_id_order() {
        for nl in catalog_and_synthetic() {
            let cc = CompiledCircuit::compile(&nl);
            let mut reference: Vec<GateId> = nl.gate_ids().collect();
            reference.sort_by_key(|&gid| (nl.level(nl.gate(gid).output()), gid));
            assert_eq!(cc.schedule(), reference.as_slice(), "{}", nl.name());
            for level in 0..=cc.max_level() {
                let expect: Vec<GateId> = reference
                    .iter()
                    .copied()
                    .filter(|&gid| cc.gate_level(gid) == level)
                    .collect();
                assert_eq!(cc.gates_at_level(level), expect.as_slice());
            }
        }
    }

    #[test]
    fn fanout_spans_dedup_multi_pin_connections() {
        // y = AND(a, a): net `a` feeds gate 0 on two pins but must appear
        // once in the compiled fanout span.
        let mut b = NetlistBuilder::new("dup");
        b.input("a");
        b.gate(crate::GateKind::And, "y", &["a", "a"]);
        b.output("y");
        let nl = b.finish().unwrap();
        let cc = CompiledCircuit::compile(&nl);
        let a = nl.find_net("a").unwrap();
        assert_eq!(cc.fanout_gates(cc.slot_of(a)).len(), 1);
        assert_eq!(cc.validate(&nl), Ok(()));
    }

    #[test]
    fn observed_marks_po_and_ffd_nets() {
        let nl = s27();
        let cc = CompiledCircuit::compile(&nl);
        for &po in nl.pos() {
            assert!(cc.observed(cc.slot_of(po)));
        }
        for ff in nl.ffs() {
            assert!(cc.observed(cc.slot_of(ff.d())));
        }
    }

    #[test]
    fn cached_view_is_shared_across_clones() {
        let nl = s27();
        let a: *const CompiledCircuit = nl.compiled();
        let nl2 = nl.clone();
        let b: *const CompiledCircuit = nl2.compiled();
        assert_eq!(a, b, "clones share the compiled cache");
    }
}
