//! A flat, cache-friendly compiled view of a [`Netlist`].
//!
//! [`Netlist`] stores each gate's inputs in its own heap-allocated
//! `Vec<NetId>` and each net's fanouts in a `Vec<Vec<Sink>>`, which is
//! convenient to build and inspect but forces a pointer chase per gate in
//! every simulation inner loop. [`CompiledCircuit`] re-lays the same
//! structure out as a handful of contiguous arrays in compressed-sparse-row
//! (CSR) form:
//!
//! - all gate input pins live in one `pin_nets` array, with a `pin_offsets`
//!   table giving each gate its span;
//! - the evaluation `schedule` pre-sorts gates into level buckets
//!   (`level_offsets` delimits the gates of each combinational level), so a
//!   full pass is a single linear sweep;
//! - the gate-sink fanout of every net is one `fanout_gates` array with a
//!   `fanout_offsets` table (net → span of consuming gates, deduplicated);
//! - per-gate [`GateKind`]/output/level and per-net observability and
//!   driver-class flags are plain dense arrays indexed by id.
//!
//! The compiled view is built once per netlist — [`Netlist::compiled`]
//! caches it — and [`CompiledCircuit::validate`] cross-checks every array
//! against the pointer-based representation, which the differential test
//! suites lean on.

use crate::{FfId, GateId, GateKind, NetId, Netlist, Sink};

/// Flat CSR view of a [`Netlist`]'s combinational core (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledCircuit {
    num_nets: usize,
    max_level: u32,
    // Per-gate dense arrays.
    kinds: Vec<GateKind>,
    outputs: Vec<NetId>,
    gate_levels: Vec<u32>,
    // Gate-input CSR: inputs of gate `g` are `pin_nets[pin_offsets[g]..pin_offsets[g+1]]`.
    pin_offsets: Vec<u32>,
    pin_nets: Vec<NetId>,
    // Level-bucketed evaluation order: gates of level `l` are
    // `schedule[level_offsets[l]..level_offsets[l+1]]`.
    level_offsets: Vec<u32>,
    schedule: Vec<GateId>,
    // Net-fanout CSR restricted to gate sinks, deduplicated per net.
    fanout_offsets: Vec<u32>,
    fanout_gates: Vec<GateId>,
    // Per-net flags.
    observed: Vec<bool>,
    gate_driven: Vec<bool>,
    // Interface nets.
    pi_nets: Vec<NetId>,
    ff_q: Vec<NetId>,
    ff_d: Vec<NetId>,
    po_nets: Vec<NetId>,
}

impl CompiledCircuit {
    /// Compiles `nl` into the flat CSR layout.
    pub fn compile(nl: &Netlist) -> Self {
        let num_gates = nl.num_gates();
        let num_nets = nl.num_nets();

        let total_pins: usize = nl.gates().iter().map(|g| g.inputs().len()).sum();

        let mut kinds = Vec::with_capacity(num_gates);
        let mut outputs = Vec::with_capacity(num_gates);
        let mut gate_levels = Vec::with_capacity(num_gates);
        let mut pin_offsets = Vec::with_capacity(num_gates + 1);
        let mut pin_nets = Vec::with_capacity(total_pins);
        pin_offsets.push(0u32);
        for g in nl.gates() {
            kinds.push(g.kind());
            outputs.push(g.output());
            gate_levels.push(nl.level(g.output()));
            pin_nets.extend_from_slice(g.inputs());
            pin_offsets.push(u32::try_from(pin_nets.len()).expect("pin count overflow"));
        }

        // Counting sort of gates into level buckets. Gates within a level
        // are independent, so id order inside a bucket is as good as any;
        // it is also deterministic.
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

        // Every gate pin contributes at most one fanout entry (duplicates
        // to the same gate are removed), so `total_pins` is a tight bound.
        let mut fanout_offsets = Vec::with_capacity(num_nets + 1);
        let mut fanout_gates = Vec::with_capacity(total_pins);
        let mut observed = vec![false; num_nets];
        fanout_offsets.push(0u32);
        for net in nl.net_ids() {
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
                    Sink::FfD(_) | Sink::Po(_) => observed[net.index()] = true,
                }
            }
            fanout_offsets.push(u32::try_from(fanout_gates.len()).expect("fanout overflow"));
        }

        let gate_driven = nl
            .net_ids()
            .map(|n| matches!(nl.driver(n), crate::Driver::Gate(_)))
            .collect();

        let cc = CompiledCircuit {
            num_nets,
            max_level: nl.max_level(),
            kinds,
            outputs,
            gate_levels,
            pin_offsets,
            pin_nets,
            level_offsets,
            schedule,
            fanout_offsets,
            fanout_gates,
            observed,
            gate_driven,
            pi_nets: nl.pis().to_vec(),
            ff_q: nl.ffs().iter().map(|ff| ff.q()).collect(),
            ff_d: nl.ffs().iter().map(|ff| ff.d()).collect(),
            po_nets: nl.pos().to_vec(),
        };
        debug_assert_eq!(cc.validate(nl), Ok(()));
        cc
    }

    /// Cross-checks every compiled array against the pointer-based netlist.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self, nl: &Netlist) -> Result<(), String> {
        if self.num_nets != nl.num_nets() {
            return Err(format!("net count {} != {}", self.num_nets, nl.num_nets()));
        }
        if self.kinds.len() != nl.num_gates() || self.max_level != nl.max_level() {
            return Err("gate count or max level mismatch".into());
        }
        for gid in nl.gate_ids() {
            let g = nl.gate(gid);
            let gi = gid.index();
            if self.kinds[gi] != g.kind() {
                return Err(format!("{gid}: kind mismatch"));
            }
            if self.outputs[gi] != g.output() {
                return Err(format!("{gid}: output mismatch"));
            }
            if self.inputs(gid) != g.inputs() {
                return Err(format!("{gid}: input span mismatch"));
            }
            if self.gate_levels[gi] != nl.level(g.output()) {
                return Err(format!("{gid}: level mismatch"));
            }
        }
        // The schedule must be a level-sorted permutation of all gates.
        let mut seen = vec![false; nl.num_gates()];
        let mut last_level = 0;
        for &gid in &self.schedule {
            if std::mem::replace(&mut seen[gid.index()], true) {
                return Err(format!("{gid}: scheduled twice"));
            }
            let lvl = self.gate_levels[gid.index()];
            if lvl < last_level {
                return Err(format!("{gid}: schedule not level-sorted"));
            }
            last_level = lvl;
        }
        if !seen.iter().all(|&s| s) {
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
            if self.fanout_gates(net) != expect.as_slice() {
                return Err(format!("{net}: fanout span mismatch"));
            }
            if self.observed[net.index()] != obs {
                return Err(format!("{net}: observed flag mismatch"));
            }
            let driven = matches!(nl.driver(net), crate::Driver::Gate(_));
            if self.gate_driven[net.index()] != driven {
                return Err(format!("{net}: gate_driven flag mismatch"));
            }
        }
        if self.pi_nets != nl.pis()
            || self.po_nets != nl.pos()
            || self.ff_q.len() != nl.num_ffs()
            || self.ff_d.len() != nl.num_ffs()
        {
            return Err("interface net arrays mismatch".into());
        }
        for (fi, ff) in nl.ffs().iter().enumerate() {
            if self.ff_q[fi] != ff.q() || self.ff_d[fi] != ff.d() {
                return Err(format!("ff{fi}: q/d net mismatch"));
            }
        }
        Ok(())
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// The maximum combinational level (0 if gate-free).
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// The logic function of a gate.
    #[inline]
    pub fn kind(&self, gate: GateId) -> GateKind {
        self.kinds[gate.index()]
    }

    /// The net driven by a gate.
    #[inline]
    pub fn output(&self, gate: GateId) -> NetId {
        self.outputs[gate.index()]
    }

    /// The combinational level of a gate's output.
    #[inline]
    pub fn gate_level(&self, gate: GateId) -> u32 {
        self.gate_levels[gate.index()]
    }

    /// A gate's input nets in pin order (a span of the `pin_nets` CSR).
    #[inline]
    pub fn inputs(&self, gate: GateId) -> &[NetId] {
        let gi = gate.index();
        let lo = self.pin_offsets[gi] as usize;
        let hi = self.pin_offsets[gi + 1] as usize;
        &self.pin_nets[lo..hi]
    }

    /// All gates, pre-sorted by ascending level (a valid evaluation order).
    #[inline]
    pub fn schedule(&self) -> &[GateId] {
        &self.schedule
    }

    /// The gates whose output sits at combinational level `level`.
    #[inline]
    pub fn gates_at_level(&self, level: u32) -> &[GateId] {
        let l = level as usize;
        let lo = self.level_offsets[l] as usize;
        let hi = self.level_offsets[l + 1] as usize;
        &self.schedule[lo..hi]
    }

    /// The gates consuming a net (deduplicated; multi-pin connections to
    /// the same gate appear once).
    #[inline]
    pub fn fanout_gates(&self, net: NetId) -> &[GateId] {
        let ni = net.index();
        let lo = self.fanout_offsets[ni] as usize;
        let hi = self.fanout_offsets[ni + 1] as usize;
        &self.fanout_gates[lo..hi]
    }

    /// Whether a net is directly observed (feeds a primary output position
    /// or a flip-flop D input).
    #[inline]
    pub fn observed(&self, net: NetId) -> bool {
        self.observed[net.index()]
    }

    /// Whether a net is driven by a gate (as opposed to a primary input or
    /// flip-flop output — the source nets a simulation seeds).
    #[inline]
    pub fn gate_driven(&self, net: NetId) -> bool {
        self.gate_driven[net.index()]
    }

    /// Primary-input nets in declaration order.
    #[inline]
    pub fn pis(&self) -> &[NetId] {
        &self.pi_nets
    }

    /// Flip-flop Q (state output) nets, indexed by [`FfId`].
    #[inline]
    pub fn ff_qs(&self) -> &[NetId] {
        &self.ff_q
    }

    /// Flip-flop D (state input) nets, indexed by [`FfId`].
    #[inline]
    pub fn ff_ds(&self) -> &[NetId] {
        &self.ff_d
    }

    /// The Q net of one flip-flop.
    #[inline]
    pub fn ff_q(&self, ff: FfId) -> NetId {
        self.ff_q[ff.index()]
    }

    /// The D net of one flip-flop.
    #[inline]
    pub fn ff_d(&self, ff: FfId) -> NetId {
        self.ff_d[ff.index()]
    }

    /// Primary-output nets in declaration order.
    #[inline]
    pub fn pos(&self) -> &[NetId] {
        &self.po_nets
    }
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
        assert_eq!(cc.pis(), nl.pis());
        assert_eq!(cc.pos(), nl.pos());
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
        // either a source net or the output of an earlier-scheduled gate.
        let mut defined = vec![false; nl.num_nets()];
        for net in nl.net_ids() {
            if !cc.gate_driven(net) {
                defined[net.index()] = true;
            }
        }
        for &gid in cc.schedule() {
            for &input in cc.inputs(gid) {
                assert!(defined[input.index()], "{gid} reads undefined {input}");
            }
            defined[cc.output(gid).index()] = true;
        }
        assert!(defined.iter().all(|&d| d));
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
        assert_eq!(cc.fanout_gates(a).len(), 1);
        assert_eq!(cc.validate(&nl), Ok(()));
    }

    #[test]
    fn observed_marks_po_and_ffd_nets() {
        let nl = s27();
        let cc = CompiledCircuit::compile(&nl);
        for &po in nl.pos() {
            assert!(cc.observed(po));
        }
        for ff in nl.ffs() {
            assert!(cc.observed(ff.d()));
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
