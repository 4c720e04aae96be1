//! Multi-threaded fault simulation: [`ParallelFsim`] shards work across
//! scoped worker threads with no external dependencies.
//!
//! Every worker pool in the workspace is one loop, [`claim_map`]: workers
//! claim work items from an atomic counter, and results come back in item
//! order. [`ParallelFsim`] uses it in two sharding shapes:
//!
//! - **fault sharding** (`detect_block`, `detect_matrix`, `detect`,
//!   `detect_observed`, `profiles`, `end_states`, `detects_all_from`,
//!   `sweep_start`, `sweep_resume`): the
//!   fault list is split into partitions and each worker runs the
//!   single-threaded engine on the partitions it claims. Sequential calls
//!   use the engine's own packing — one partition per
//!   [`FAULTS_PER_PASS`]-fault word, in caller order — so they simulate
//!   exactly the passes the serial engine does, at any thread count
//!   (`detects_all_from`, which stops at the first word that loses a
//!   fault, runs its words in waves of `threads`, so it may finish the
//!   wave past that word). Combinational calls deal the faults, sorted by
//!   fault-site level, into `threads × 4` partitions, so each partition
//!   receives a spread of cone sizes. A per-(test, fault) outcome never
//!   depends on which other faults share a pass, so results are scattered
//!   back by original index and are *identical* to the single-threaded
//!   engines';
//! - **test sharding with cross-partition dropping** (`detect_all`,
//!   `detect_union`): tests are claimed from the queue and faults are
//!   shared through one atomic detection bitmap, so a worker stops
//!   simulating a fault the moment any partition has detected it. Detection
//!   is a monotone union over tests, so the final detected set is
//!   independent of interleaving — again identical to the serial engines.
//!
//! `threads = 1` (the [`SimConfig`] default) dispatches straight to the
//! single-threaded engines, reproducing their behavior bit-for-bit.
//! Every [`ParallelFsim`] call counts one fault-simulation invocation
//! ([`stats`]) at any thread count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use atspeed_circuit::Netlist;

use crate::fault::{FaultId, FaultUniverse};
use crate::fsim_comb::{CombFaultSim, CombTest};
use crate::fsim_seq::{
    DetectionProfile, EndStates, FinalObserve, SeqFaultSim, SweepRecord, FAULTS_PER_PASS,
};
use crate::stats;
use crate::vectors::{Sequence, State};

/// Threading configuration for the simulation substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Worker threads. `1` reproduces the single-threaded engines
    /// bit-for-bit; `0` means one per available core.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { threads: 1 }
    }
}

impl SimConfig {
    /// Reads `SIM_THREADS` from the environment (unset means `1`, serial;
    /// `0` means one thread per available core), **rejecting** an
    /// unparsable value.
    ///
    /// Prefer this in anything long-running or gated: a typo silently
    /// running serial can mask a performance regression for a long time.
    /// [`SimConfig::from_env`] is the lenient wrapper that falls back to
    /// the default but logs a `warn!` event, so the typo is at least
    /// visible.
    ///
    /// # Errors
    ///
    /// Returns a description of the unparsable value.
    pub fn try_from_env() -> Result<Self, String> {
        let threads = match std::env::var("SIM_THREADS") {
            Ok(s) => s
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad SIM_THREADS `{s}` (expected a thread count)"))?,
            Err(_) => 1,
        };
        Ok(SimConfig::with_threads(threads))
    }

    /// Reads `SIM_THREADS` like [`SimConfig::try_from_env`], but an
    /// unparsable value falls back to serial after emitting a `warn!` log
    /// event naming it — never silently.
    pub fn from_env() -> Self {
        SimConfig::try_from_env().unwrap_or_else(|e| {
            atspeed_trace::warn!(
                "sim.config",
                "ignoring unparsable SIM_THREADS; running serial";
                reason = e,
            );
            SimConfig::default()
        })
    }

    /// A config with the given worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        SimConfig { threads }
    }

    /// The actual worker count for a call: `threads` (resolving `0` to the
    /// core count) capped by the number of shardable work items.
    pub fn effective_threads(&self, work_items: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        requested.max(1).min(work_items.max(1))
    }
}

/// Runs `work(&mut state, i)` for every `i in 0..n` and returns the
/// results in index order.
///
/// With more than one effective thread (`cfg.effective_threads(n)`), that
/// many scoped workers claim indices from an atomic counter. Each worker
/// builds its state once with `init` — so a claim allocates no engine
/// scratch — and joins the caller's stats handle and span scope, so its
/// counts and spans land where the caller's would. Each claim runs under a
/// span named `span` and is recorded as one partition
/// ([`stats::record_partition`]). At one thread the calling thread maps in
/// order with a single state and records neither.
///
/// A panic in `work` is re-raised on the calling thread.
pub fn claim_map<S, R, I, W>(
    cfg: SimConfig,
    n: usize,
    span: &'static str,
    init: I,
    work: W,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
{
    let threads = cfg.effective_threads(n);
    if threads <= 1 {
        let mut state = init();
        return (0..n).map(|i| work(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    // The stats handle stack and the span scope stack are thread-local:
    // capture both here and re-enter them on every worker. The enter guard
    // also flushes each worker's batched counts once, on exit.
    let h = stats::handle();
    let tracer = atspeed_trace::current_scope();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let _g = h.enter();
                    let _ts = tracer.clone().map(atspeed_trace::scope);
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        let _sp = atspeed_trace::span(span);
                        let started = Instant::now();
                        done.push((i, work(&mut state, i)));
                        stats::record_partition(started.elapsed());
                    }
                })
            })
            .collect();
        for w in workers {
            let done = w.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// A monotone shared detection bitmap (one bit per fault index).
///
/// Relaxed ordering is sound here: bits only ever turn on, and a worker
/// that misses a freshly set bit merely re-simulates a fault and arrives
/// at the same detection — never a different result.
struct SharedDetectMap {
    words: Vec<AtomicU64>,
}

impl SharedDetectMap {
    fn new(len: usize) -> Self {
        SharedDetectMap {
            words: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn is_set(&self, i: usize) -> bool {
        self.words[i / 64].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i`; returns whether this call newly set it.
    #[inline]
    fn set(&self, i: usize) -> bool {
        let prev = self.words[i / 64].fetch_or(1u64 << (i % 64), Ordering::Relaxed);
        prev & (1u64 << (i % 64)) == 0
    }

    fn snapshot(&self, len: usize) -> Vec<bool> {
        (0..len).map(|i| self.is_set(i)).collect()
    }
}

/// An internal inconsistency between two detection views of the same
/// (tests, faults) pair, found by [`ParallelFsim::check_matrix_consistency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixMismatch {
    /// The row-union of `detect_matrix` disagrees with the `detect_all`
    /// bitmap for one fault.
    UnionDisagrees {
        /// Index of the fault in the caller's fault list.
        fault_index: usize,
        /// What the matrix row-union says.
        matrix_detected: bool,
        /// What the dropping bitmap says.
        bitmap_detected: bool,
    },
    /// A matrix row has bits set beyond the test count (padding bits of the
    /// last word must stay zero).
    PaddingBitsSet {
        /// Index of the fault in the caller's fault list.
        fault_index: usize,
    },
}

impl std::fmt::Display for MatrixMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixMismatch::UnionDisagrees {
                fault_index,
                matrix_detected,
                bitmap_detected,
            } => write!(
                f,
                "fault {fault_index}: detect_matrix union says {matrix_detected}, \
                 detect_all bitmap says {bitmap_detected}"
            ),
            MatrixMismatch::PaddingBitsSet { fault_index } => write!(
                f,
                "fault {fault_index}: detect_matrix row sets bits beyond the test count"
            ),
        }
    }
}

impl std::error::Error for MatrixMismatch {}

/// Multi-threaded front end over the fault-simulation engines.
pub struct ParallelFsim<'a> {
    nl: &'a Netlist,
    cfg: SimConfig,
}

impl<'a> ParallelFsim<'a> {
    /// Creates a parallel simulator for `nl` under `cfg`.
    pub fn new(nl: &'a Netlist, cfg: SimConfig) -> Self {
        ParallelFsim { nl, cfg }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// The threading configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Partitions for a combinational fault-sharded call: the faults,
    /// sorted by fault-site level, dealt round-robin into `threads × 4`
    /// partitions (capped by the fault count). The deal spreads shallow
    /// (large-cone, expensive) and deep (cheap) faults evenly, and ~4
    /// claims per worker let the claim queue rebalance stragglers. A
    /// partition costs one good-machine pass per 64-test block, small next
    /// to per-fault cone propagation.
    fn comb_partitions(&self, faults: &[FaultId], universe: &FaultUniverse) -> Vec<Vec<usize>> {
        let units = (self.cfg.effective_threads(faults.len()) * 4).min(faults.len());
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&k| self.nl.level(universe.site_net(self.nl, faults[k])));
        let mut parts = vec![Vec::with_capacity(faults.len() / units.max(1) + 1); units];
        for (i, k) in order.into_iter().enumerate() {
            parts[i % units].push(k);
        }
        parts
    }

    /// Partitions for a sequential fault-sharded call: the engine's own
    /// packing, one [`FAULTS_PER_PASS`]-fault word per partition in caller
    /// order. The partitioned call therefore simulates exactly the passes
    /// of the serial engine — ⌈n / 63⌉ of them — whatever the thread count.
    fn seq_partitions(faults: &[FaultId]) -> Vec<Vec<usize>> {
        (0..faults.len())
            .step_by(FAULTS_PER_PASS)
            .map(|start| (start..faults.len().min(start + FAULTS_PER_PASS)).collect())
            .collect()
    }

    /// Fault-sharded call: runs `work` on each partition's faults (dealt by
    /// `deal`) from the claim queue and scatters the per-fault results back
    /// by index. One thread, or one partition, runs `work` on the whole
    /// list on the calling thread: the serial engine call itself.
    fn fault_sharded<S, R>(
        &self,
        faults: &[FaultId],
        deal: impl FnOnce() -> Vec<Vec<usize>>,
        engine: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, &[FaultId]) -> Vec<R> + Sync,
    ) -> Vec<R>
    where
        R: Send + Default,
    {
        let parts = if self.cfg.effective_threads(faults.len()) > 1 {
            deal()
        } else {
            Vec::new()
        };
        if parts.len() <= 1 {
            return work(&mut engine(), faults);
        }
        let results = claim_map(self.cfg, parts.len(), "fsim.partition", engine, |sim, p| {
            let ids: Vec<FaultId> = parts[p].iter().map(|&k| faults[k]).collect();
            work(sim, &ids)
        });
        let mut out: Vec<R> = std::iter::repeat_with(R::default)
            .take(faults.len())
            .collect();
        for (part, rs) in parts.iter().zip(results) {
            for (&k, r) in part.iter().zip(rs) {
                out[k] = r;
            }
        }
        out
    }

    /// Test-sharded call with cross-partition fault dropping: work item `i`
    /// (a 64-test block, or one scan test) is simulated by `detect` against
    /// the faults no item has detected yet, and the shared bitmap drops a
    /// fault everywhere once any worker detects it. At one thread the items
    /// run in order, each against the faults still alive.
    fn test_sharded<S>(
        &self,
        items: usize,
        faults: &[FaultId],
        span: &'static str,
        engine: impl Fn() -> S + Sync,
        detect: impl Fn(&mut S, usize, &[FaultId]) -> Vec<bool> + Sync,
    ) -> Vec<bool> {
        let shared = SharedDetectMap::new(faults.len());
        let init = || (engine(), Vec::new(), Vec::new());
        claim_map(
            self.cfg,
            items,
            span,
            init,
            |(sim, alive_idx, alive_ids), i| {
                alive_idx.clear();
                alive_ids.clear();
                for (k, &fid) in faults.iter().enumerate() {
                    if !shared.is_set(k) {
                        alive_idx.push(k);
                        alive_ids.push(fid);
                    }
                }
                if alive_ids.is_empty() {
                    return;
                }
                let mut dropped = 0u64;
                for (&k, d) in alive_idx.iter().zip(detect(sim, i, alive_ids)) {
                    if d && shared.set(k) {
                        dropped += 1;
                    }
                }
                stats::add_dropped(dropped);
            },
        );
        shared.snapshot(faults.len())
    }

    /// Parallel [`CombFaultSim::detect_block`]: per-fault detection masks
    /// for one block of up to 64 tests, fault-sharded.
    ///
    /// # Panics
    ///
    /// Panics if `tests` is empty or longer than 64 (as the serial engine
    /// does).
    pub fn detect_block(
        &self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<u64> {
        stats::add_invocation();
        self.fault_sharded(
            faults,
            || self.comb_partitions(faults, universe),
            || CombFaultSim::uncounted(self.nl),
            |sim, ids| sim.detect_block(tests, ids, universe),
        )
    }

    /// Parallel [`CombFaultSim::detect_all`]: which faults some test
    /// detects, test-sharded over 64-test blocks with cross-partition
    /// fault dropping through a shared atomic bitmap.
    pub fn detect_all(
        &self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<bool> {
        stats::add_invocation();
        let blocks: Vec<&[CombTest]> = tests.chunks(64).collect();
        if self.cfg.effective_threads(blocks.len()) <= 1 {
            return CombFaultSim::uncounted(self.nl).detect_all(tests, faults, universe);
        }
        self.test_sharded(
            blocks.len(),
            faults,
            "fsim.detect_all.claim",
            || CombFaultSim::uncounted(self.nl),
            |sim, b, ids| {
                sim.detect_block(blocks[b], ids, universe)
                    .into_iter()
                    .map(|mask| mask != 0)
                    .collect()
            },
        )
    }

    /// Parallel [`CombFaultSim::detect_matrix`]: the full per-fault,
    /// per-test detection matrix (no dropping), fault-sharded.
    pub fn detect_matrix(
        &self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<Vec<u64>> {
        stats::add_invocation();
        self.fault_sharded(
            faults,
            || self.comb_partitions(faults, universe),
            || CombFaultSim::uncounted(self.nl),
            |sim, ids| sim.detect_matrix(tests, ids, universe),
        )
    }

    /// Cross-checks the two combinational detection views against each
    /// other: the full no-dropping [`ParallelFsim::detect_matrix`]
    /// (fault-sharded) row-unioned per fault must equal the
    /// [`ParallelFsim::detect_all`] bitmap (test-sharded with dropping),
    /// and no matrix row may set bits beyond the test count.
    ///
    /// The two paths shard along different axes and only one of them drops
    /// faults, so agreement here is a real differential check, not a
    /// tautology. Used by the `atspeed-verify` fuzzer.
    ///
    /// # Errors
    ///
    /// Returns the first [`MatrixMismatch`] found.
    pub fn check_matrix_consistency(
        &self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Result<(), MatrixMismatch> {
        let matrix = self.detect_matrix(tests, faults, universe);
        let bitmap = self.detect_all(tests, faults, universe);
        let full_words = tests.len() / 64;
        let tail_mask = match tests.len() % 64 {
            0 => 0u64,
            r => !0u64 << r,
        };
        for (fault_index, (row, &bitmap_detected)) in matrix.iter().zip(bitmap.iter()).enumerate() {
            for (w, &word) in row.iter().enumerate() {
                let stray = if w < full_words { 0 } else { word & tail_mask };
                if stray != 0 {
                    return Err(MatrixMismatch::PaddingBitsSet { fault_index });
                }
            }
            let matrix_detected = row.iter().any(|&w| w != 0);
            if matrix_detected != bitmap_detected {
                return Err(MatrixMismatch::UnionDisagrees {
                    fault_index,
                    matrix_detected,
                    bitmap_detected,
                });
            }
        }
        Ok(())
    }

    /// Parallel [`SeqFaultSim::detect`], fault-sharded.
    pub fn detect(
        &self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe_final_state: bool,
    ) -> Vec<bool> {
        let observe = FinalObserve::scan_out(observe_final_state);
        self.detect_observed(init, seq, faults, universe, observe)
    }

    /// Parallel [`SeqFaultSim::detect_observed`], fault-sharded one
    /// 63-fault word per partition.
    pub fn detect_observed(
        &self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> Vec<bool> {
        stats::add_invocation();
        self.fault_sharded(
            faults,
            || Self::seq_partitions(faults),
            || SeqFaultSim::uncounted(self.nl),
            |sim, ids| sim.detect_observed(init, seq, ids, universe, observe),
        )
    }

    /// Parallel [`SeqFaultSim::profiles`], fault-sharded.
    pub fn profiles(
        &self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<DetectionProfile> {
        self.profiles_bounded(init, seq, faults, universe, usize::MAX)
            .0
    }

    /// Parallel [`SeqFaultSim::profiles_bounded`], fault-sharded one
    /// 63-fault word per partition.
    ///
    /// The word budget applies per fault by absolute cycle index, so the
    /// truncated-bit total is the sum over faults regardless of how they
    /// were partitioned — identical to the serial engine's count.
    pub fn profiles_bounded(
        &self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        max_state_words: usize,
    ) -> (Vec<DetectionProfile>, u64) {
        stats::add_invocation();
        let truncated = AtomicU64::new(0);
        let profiles = self.fault_sharded(
            faults,
            || Self::seq_partitions(faults),
            || SeqFaultSim::uncounted(self.nl),
            |sim, ids| {
                let (ps, t) = sim.profiles_bounded(init, seq, ids, universe, max_state_words);
                truncated.fetch_add(t, Ordering::Relaxed);
                ps
            },
        );
        (profiles, truncated.into_inner())
    }

    /// Parallel [`SeqFaultSim::end_states`], fault-sharded one 63-fault
    /// word per partition. The partitions are contiguous and in caller
    /// order, so appending their records gives the serial engine's record.
    pub fn end_states(
        &self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> EndStates {
        stats::add_invocation();
        let words: Vec<&[FaultId]> = faults.chunks(FAULTS_PER_PASS).collect();
        if self.cfg.effective_threads(words.len()) <= 1 {
            return SeqFaultSim::uncounted(self.nl).end_states(init, seq, faults, universe);
        }
        let mut parts = claim_map(
            self.cfg,
            words.len(),
            "fsim.partition",
            || SeqFaultSim::uncounted(self.nl),
            |sim, w| sim.end_states(init, seq, words[w], universe),
        )
        .into_iter();
        let mut rec = parts.next().expect("more than one word");
        for part in parts {
            rec.append(part);
        }
        rec
    }

    /// The start pass of a vector-omission sweep over `seq` from `init`:
    /// every fault's profile, state-difference bitsets bounded as
    /// [`ParallelFsim::profiles_bounded`] bounds them, and the boundary
    /// record that [`SeqFaultSim::detects_all_resumed`] checks omissions
    /// from. Fault-sharded one 63-fault word per partition: each partition
    /// records its own faults, the records merge in fault order, and the
    /// stride is settled on the merged record, so the record and the work
    /// are the same at any thread count.
    pub fn sweep_start(
        &self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        max_state_words: usize,
    ) -> SweepRecord {
        let mut rec = SweepRecord::new(init, faults, max_state_words);
        self.sweep_resume(&mut rec, seq, 0, universe);
        rec
    }

    /// Re-records `rec` for `seq`, a sequence that agrees with the recorded
    /// one before cycle `low`, as [`ParallelFsim::sweep_start`] would
    /// record it from scratch (up to the stride, which never shrinks).
    /// The faults a primary output detected before the nearest kept
    /// boundary at or before `low` keep their profiles; the rest resume
    /// from that boundary over the rest of `seq`, sharded as in
    /// [`ParallelFsim::sweep_start`]. With `low = seq.len()` on an
    /// unchanged sequence only the vectors after the last kept boundary are
    /// simulated (none at stride 1).
    pub fn sweep_resume(
        &self,
        rec: &mut SweepRecord,
        seq: &Sequence,
        low: usize,
        universe: &FaultUniverse,
    ) {
        assert!(low <= seq.len(), "resume point {low} past the sequence");
        stats::add_invocation();
        let (from, open) = rec.rewind(low);
        let words: Vec<&[usize]> = open.chunks(FAULTS_PER_PASS).collect();
        let parts = if self.cfg.effective_threads(words.len()) <= 1 {
            vec![SeqFaultSim::uncounted(self.nl).sweep_pass(rec, seq, from, &open, universe)]
        } else {
            let rec = &*rec;
            claim_map(
                self.cfg,
                words.len(),
                "fsim.partition",
                || SeqFaultSim::uncounted(self.nl),
                |sim, w| sim.sweep_pass(rec, seq, from, words[w], universe),
            )
        };
        rec.absorb(from, seq.len(), parts);
    }

    /// Parallel [`SeqFaultSim::detects_all_from`]. The faults left open
    /// are packed 63 per word as the serial engine packs them, and the
    /// words run in waves of `threads` words, in index order. The call
    /// returns false after the first wave that loses a fault, so the
    /// verdict equals the serial one and the work done at a given thread
    /// count repeats exactly.
    pub fn detects_all_from(
        &self,
        rec: &EndStates,
        suffix: &Sequence,
        which: &[usize],
        universe: &FaultUniverse,
    ) -> bool {
        stats::add_invocation();
        let open: Vec<usize> = which
            .iter()
            .copied()
            .filter(|&k| !rec.po_detected(k))
            .collect();
        let words: Vec<&[usize]> = open.chunks(FAULTS_PER_PASS).collect();
        let wave = self.cfg.effective_threads(words.len());
        if wave <= 1 {
            return SeqFaultSim::uncounted(self.nl).detects_all_from(rec, suffix, &open, universe);
        }
        words.chunks(wave).all(|wave| {
            claim_map(
                self.cfg,
                wave.len(),
                "fsim.partition",
                || SeqFaultSim::uncounted(self.nl),
                |sim, w| sim.detects_all_from(rec, suffix, wave[w], universe),
            )
            .into_iter()
            .all(|ok| ok)
        })
    }

    /// Union detection over many scan tests — each run `(scan-in state,
    /// sequence)` is simulated with the final observation `observe` and the
    /// detected sets are unioned. Runs are claimed from the work queue; faults
    /// already detected by *any* partition are dropped everywhere through
    /// the shared atomic bitmap.
    ///
    /// Serial equivalent (and the one-thread path): iterating the runs in
    /// order and dropping detected faults from the alive list. The union is
    /// order-independent, so both report the same detected set.
    pub fn detect_union(
        &self,
        runs: &[(&State, &Sequence)],
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> Vec<bool> {
        stats::add_invocation();
        self.test_sharded(
            runs.len(),
            faults,
            "fsim.detect_union.claim",
            || SeqFaultSim::uncounted(self.nl),
            |sim, i, ids| {
                let (init, seq) = runs[i];
                sim.detect_observed(init, seq, ids, universe, observe)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::V3;
    use atspeed_circuit::bench_fmt::s27;

    fn comb_tests(nl: &Netlist, n: usize, seed: u64) -> Vec<CombTest> {
        // Cheap deterministic vectors: enumerate bit patterns of the seed.
        (0..n)
            .map(|i| {
                let bits = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(i as u32);
                let state: Vec<V3> = (0..nl.num_ffs())
                    .map(|b| V3::from_bool(bits >> b & 1 == 1))
                    .collect();
                let inputs: Vec<V3> = (0..nl.num_pis())
                    .map(|b| V3::from_bool(bits >> (b + 17) & 1 == 1))
                    .collect();
                CombTest::new(state, inputs)
            })
            .collect()
    }

    #[test]
    fn effective_threads_caps_by_work() {
        let cfg = SimConfig::with_threads(8);
        assert_eq!(cfg.effective_threads(3), 3);
        assert_eq!(cfg.effective_threads(100), 8);
        assert_eq!(cfg.effective_threads(0), 1);
        assert_eq!(SimConfig::default().effective_threads(100), 1);
        assert!(SimConfig::with_threads(0).effective_threads(100) >= 1);
    }

    #[test]
    fn env_parsing_rejects_garbage_and_accepts_valid_values() {
        // Serialize env mutation: other tests may read SIM_THREADS
        // concurrently, so every env-touching assertion lives in this one
        // test.
        let set = |v: Option<&str>| match v {
            Some(v) => std::env::set_var("SIM_THREADS", v),
            None => std::env::remove_var("SIM_THREADS"),
        };
        let saved = std::env::var("SIM_THREADS").ok();

        set(Some("4"));
        let cfg = SimConfig::try_from_env().expect("valid values parse");
        assert_eq!(cfg, SimConfig::with_threads(4));
        assert_eq!(SimConfig::from_env(), cfg);

        set(Some("many"));
        let err = SimConfig::try_from_env().expect_err("bad thread counts are rejected");
        assert!(err.contains("SIM_THREADS") && err.contains("many"), "{err}");
        // The lenient wrapper falls back to serial.
        assert_eq!(SimConfig::from_env(), SimConfig::default());

        set(saved.as_deref());
    }

    #[test]
    fn shared_map_sets_once() {
        let m = SharedDetectMap::new(130);
        assert!(!m.is_set(129));
        assert!(m.set(129));
        assert!(!m.set(129));
        assert!(m.is_set(129));
        assert_eq!(m.snapshot(130).iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn parallel_matches_serial_on_s27() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let tests = comb_tests(&nl, 150, 2001);

        let mut serial = CombFaultSim::new(&nl);
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(4));

        assert_eq!(
            serial.detect_block(&tests[..64], &faults, &u),
            par.detect_block(&tests[..64], &faults, &u)
        );
        assert_eq!(
            serial.detect_all(&tests, &faults, &u),
            par.detect_all(&tests, &faults, &u)
        );
        assert_eq!(
            serial.detect_matrix(&tests, &faults, &u),
            par.detect_matrix(&tests, &faults, &u)
        );
    }

    /// A synthetic circuit with a few hundred collapsed faults, so that
    /// sequential calls split into several 63-fault partitions.
    fn synth_circuit() -> Netlist {
        atspeed_circuit::synth::generate(&atspeed_circuit::synth::SynthSpec::new(
            "par", 6, 4, 8, 160, 2001,
        ))
        .unwrap()
    }

    fn pattern_sequence(nl: &Netlist, len: usize, a: usize, b: usize, m: usize) -> Sequence {
        Sequence::from_vectors(
            (0..len)
                .map(|t| {
                    (0..nl.num_pis())
                        .map(|i| V3::from_bool((t * a + i * b) % m < m / 2))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn parallel_seq_matches_serial_on_s27() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let seq = pattern_sequence(&nl, 24, 7, 3, 5);
        let init = vec![V3::Zero; nl.num_ffs()];

        let mut serial = SeqFaultSim::new(&nl);
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(4));

        assert_eq!(
            serial.detect(&init, &seq, &faults, &u, true),
            par.detect(&init, &seq, &faults, &u, true)
        );
        assert_eq!(
            serial.profiles(&init, &seq, &faults, &u),
            par.profiles(&init, &seq, &faults, &u)
        );
    }

    #[test]
    fn parallel_seq_matches_serial_across_partitions() {
        let nl = synth_circuit();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        assert!(faults.len() > 2 * FAULTS_PER_PASS, "needs three partitions");
        let seq = pattern_sequence(&nl, 24, 7, 3, 5);
        let init = vec![V3::Zero; nl.num_ffs()];
        let mut serial = SeqFaultSim::new(&nl);
        let det = serial.detect(&init, &seq, &faults, &u, true);
        let profiles = serial.profiles(&init, &seq, &faults, &u);
        for threads in [2, 3, 4] {
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            assert_eq!(det, par.detect(&init, &seq, &faults, &u, true));
            assert_eq!(profiles, par.profiles(&init, &seq, &faults, &u));
        }
    }

    #[test]
    fn each_call_counts_one_invocation_at_any_thread_count() {
        // More than two 63-fault words and 64-test blocks, so every call
        // fans out to several partitions once it has more than one thread.
        let nl = synth_circuit();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        assert!(faults.len() > 2 * FAULTS_PER_PASS, "needs three words");
        let tests = comb_tests(&nl, 3 * 64 - 5, 11);
        let seq = pattern_sequence(&nl, 24, 7, 3, 5);
        let init = vec![V3::Zero; nl.num_ffs()];
        let runs: Vec<(&State, &Sequence)> = (0..3).map(|_| (&init, &seq)).collect();
        let which: Vec<usize> = (0..faults.len()).collect();
        for threads in [1, 2, 4] {
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            let rec = par.end_states(&init, &seq, &faults, &u);
            let calls: [(&str, &dyn Fn()); 10] = [
                ("detect_block", &|| {
                    par.detect_block(&tests[..64], &faults, &u);
                }),
                ("detect_all", &|| {
                    par.detect_all(&tests, &faults, &u);
                }),
                ("detect_matrix", &|| {
                    par.detect_matrix(&tests, &faults, &u);
                }),
                ("detect", &|| {
                    par.detect(&init, &seq, &faults, &u, true);
                }),
                ("detect_observed", &|| {
                    par.detect_observed(&init, &seq, &faults, &u, FinalObserve::None);
                }),
                ("profiles", &|| {
                    par.profiles(&init, &seq, &faults, &u);
                }),
                ("profiles_bounded", &|| {
                    par.profiles_bounded(&init, &seq, &faults, &u, 1);
                }),
                ("end_states", &|| {
                    par.end_states(&init, &seq, &faults, &u);
                }),
                ("detects_all_from", &|| {
                    par.detects_all_from(&rec, &seq, &which, &u);
                }),
                ("detect_union", &|| {
                    par.detect_union(&runs, &faults, &u, FinalObserve::FullState);
                }),
            ];
            for (name, call) in calls {
                let scope = stats::scoped();
                call();
                let n = scope.report().totals().fsim_invocations;
                assert_eq!(n, 1, "{name} at {threads} threads");
            }
        }
    }

    #[test]
    fn partitions_follow_the_engine_packing() {
        // Sequential calls: one partition per 63-fault word, in caller
        // order — the serial engine's own passes.
        let faults: Vec<FaultId> = (0..130).map(FaultId::from_index).collect();
        let parts = ParallelFsim::seq_partitions(&faults);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, [63, 63, 4]);
        assert_eq!(parts.concat(), (0..130).collect::<Vec<_>>());
        assert!(ParallelFsim::seq_partitions(&[]).is_empty());

        // Combinational calls: ~4 claims per worker, capped by the fault
        // count, each fault dealt exactly once.
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let reps: Vec<FaultId> = u.representatives().to_vec();
        for (threads, want) in [(4, 16), (8, reps.len()), (1, 4)] {
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            let parts = par.comb_partitions(&reps, &u);
            assert_eq!(parts.len(), want, "threads={threads}");
            let mut dealt = parts.concat();
            dealt.sort_unstable();
            assert_eq!(dealt, (0..reps.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn claim_map_returns_results_in_index_order() {
        for threads in [1, 2, 5] {
            let out = claim_map(
                SimConfig::with_threads(threads),
                37,
                "test.claim",
                || 0usize,
                |calls, i| {
                    *calls += 1;
                    i * i
                },
            );
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(claim_map(SimConfig::with_threads(3), 0, "test.claim", || (), |_, i| i).is_empty());
    }

    #[test]
    fn claim_map_records_partitions_only_when_sharded() {
        for (threads, want) in [(1, 0), (3, 9)] {
            let scope = stats::scoped();
            claim_map(
                SimConfig::with_threads(threads),
                9,
                "test.claim",
                || (),
                |_, _| stats::add_gate_evals(2),
            );
            let totals = scope.report().totals();
            assert_eq!(totals.gate_evals, 18, "threads={threads}");
            assert_eq!(totals.partitions, want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_bounded_profiles_match_serial_including_truncation() {
        let nl = synth_circuit();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        // 70 cycles spills state-diff bits past the first 64-bit word, so
        // a budget of one word must truncate the same bits everywhere.
        let seq = pattern_sequence(&nl, 70, 5, 11, 7);
        let init = vec![V3::Zero; nl.num_ffs()];
        let (sp, st) = SeqFaultSim::new(&nl).profiles_bounded(&init, &seq, &faults, &u, 1);
        assert!(st > 0, "a 70-cycle run must drop bits past word 0");
        for threads in [2, 4] {
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            let (pp, pt) = par.profiles_bounded(&init, &seq, &faults, &u, 1);
            assert_eq!(st, pt, "truncation count diverges at {threads} threads");
            assert_eq!(sp, pp, "profiles diverge at {threads} threads");
        }
    }

    #[test]
    fn matrix_consistency_holds_on_s27() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        // 70 tests exercises a partial last word (70 % 64 != 0).
        let tests = comb_tests(&nl, 70, 11);
        for threads in [1, 3] {
            ParallelFsim::new(&nl, SimConfig::with_threads(threads))
                .check_matrix_consistency(&tests, &faults, &u)
                .unwrap();
        }
    }

    #[test]
    fn matrix_mismatch_displays_both_views() {
        let e = MatrixMismatch::UnionDisagrees {
            fault_index: 3,
            matrix_detected: true,
            bitmap_detected: false,
        };
        let s = e.to_string();
        assert!(s.contains("fault 3"), "{s}");
        assert!(s.contains("true") && s.contains("false"), "{s}");
        let p = MatrixMismatch::PaddingBitsSet { fault_index: 1 }.to_string();
        assert!(p.contains("beyond the test count"), "{p}");
    }
}
