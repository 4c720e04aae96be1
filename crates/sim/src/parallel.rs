//! Multi-threaded fault simulation: [`ParallelFsim`] shards work across
//! `std::thread::scope` workers with no external dependencies.
//!
//! Two sharding shapes cover every engine in this crate:
//!
//! - **fault sharding** (`detect_block`, `detect_matrix`, `detect`,
//!   `detect_observed`, `profiles`): the collapsed fault list is dealt into
//!   balanced partitions — levelization-aware, so each partition receives a
//!   spread of fault-site depths and thus comparable propagation work — and
//!   each worker runs the single-threaded engine on its partition. A
//!   per-(test, fault) outcome never depends on which other faults share a
//!   pass, so results are scattered back by original index and are
//!   *identical* to the single-threaded engines';
//! - **test sharding with cross-partition dropping** (`detect_all`,
//!   `detect_union`): tests are claimed from a work queue and faults are
//!   shared through one atomic detection bitmap, so a worker stops
//!   simulating a fault the moment any partition has detected it. Detection
//!   is a monotone union over tests, so the final detected set is
//!   independent of interleaving — again identical to the serial engines.
//!
//! `threads = 1` (the [`SimConfig`] default) dispatches straight to the
//! single-threaded engines, reproducing their behavior bit-for-bit.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use atspeed_circuit::Netlist;

use crate::fault::{FaultId, FaultUniverse};
use crate::fsim_comb::{CombFaultSim, CombTest};
use crate::fsim_seq::{DetectionProfile, FinalObserve, SeqFaultSim};
use crate::stats;
use crate::vectors::{Sequence, State};

/// Threading configuration for the simulation substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Worker threads. `1` reproduces the single-threaded engines
    /// bit-for-bit; `0` means one per available core.
    pub threads: usize,
    /// Work-unit granularity: faults per partition for fault-sharded
    /// calls, 64-test blocks (or scan tests) per claim for test-sharded
    /// calls. `0` picks a balanced size automatically.
    pub chunk_size: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            threads: 1,
            chunk_size: 0,
        }
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
        SimConfig {
            threads,
            chunk_size: 0,
        }
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
    order_hint: Option<Vec<u32>>,
}

impl<'a> ParallelFsim<'a> {
    /// Creates a parallel simulator for `nl` under `cfg`.
    pub fn new(nl: &'a Netlist, cfg: SimConfig) -> Self {
        ParallelFsim {
            nl,
            cfg,
            order_hint: None,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// The threading configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Installs a detection-likelihood hint: `hint[k]` scores
    /// `faults[k]` of subsequent calls (higher = more likely detected).
    /// Likely-detected faults are then front-loaded within each partition
    /// so they detect — and drop — early. Purely an ordering hint; results
    /// are unaffected.
    pub fn with_order_hint(mut self, hint: Vec<u32>) -> Self {
        self.order_hint = Some(hint);
        self
    }

    /// Builds an order hint from a previous run's detection profiles:
    /// earlier primary-output detection scores higher, undetected scores
    /// zero.
    pub fn hint_from_profiles(profiles: &[DetectionProfile]) -> Vec<u32> {
        profiles
            .iter()
            .map(|p| match p.earliest_detection() {
                Some(t) => u32::MAX - t,
                None => 0,
            })
            .collect()
    }

    /// Deals fault indices into `units` balanced partitions.
    ///
    /// Faults are ordered by the hint (descending) when one is installed,
    /// otherwise by the circuit level of the fault site — so round-robin
    /// dealing spreads shallow (large-cone, expensive) and deep (cheap)
    /// faults evenly across partitions.
    fn fault_partitions(
        &self,
        faults: &[FaultId],
        universe: &FaultUniverse,
        units: usize,
    ) -> Vec<Vec<usize>> {
        let mut order: Vec<usize> = (0..faults.len()).collect();
        match &self.order_hint {
            Some(hint) if hint.len() == faults.len() => {
                order.sort_by_key(|&k| std::cmp::Reverse(hint[k]));
            }
            _ => {
                order.sort_by_key(|&k| self.nl.level(universe.site_net(self.nl, faults[k])));
            }
        }
        let mut parts = vec![Vec::with_capacity(faults.len() / units + 1); units];
        for (i, k) in order.into_iter().enumerate() {
            parts[i % units].push(k);
        }
        parts.retain(|p| !p.is_empty());
        parts
    }

    /// How many fault partitions a call with `n` faults should use.
    ///
    /// With an explicit `chunk_size` the caller controls granularity.
    /// Otherwise we oversubscribe: exactly `threads` partitions makes the
    /// whole call wait on its slowest partition, and at high fault counts
    /// the level-spread deal cannot fully equalize propagation cost — a
    /// partition that drew a few extra large-cone faults stalls the join.
    /// Dealing ~4 claims per worker lets the atomic claim queue in
    /// [`ParallelFsim::run_partitioned`] rebalance stragglers dynamically,
    /// while each partition stays large enough to amortize engine reuse.
    fn fault_units(&self, n: usize, threads: usize) -> usize {
        if self.cfg.chunk_size > 0 {
            n.div_ceil(self.cfg.chunk_size).max(threads)
        } else if threads <= 1 {
            1
        } else {
            (threads * 4).min(n.max(1))
        }
    }

    /// Runs `work` over every partition on `threads` scoped workers,
    /// claiming partitions from a shared queue; collects each partition's
    /// result with its index.
    ///
    /// Each worker builds its engine (and thus its simulation scratch —
    /// value arrays, event buckets) ONCE via `mk` and reuses it across
    /// every partition it claims, so claiming a partition costs no
    /// allocation.
    fn run_partitioned<S, R, F, W>(
        &self,
        parts: &[Vec<usize>],
        threads: usize,
        mk: F,
        work: W,
    ) -> Vec<R>
    where
        R: Send + Default + Clone,
        F: Fn() -> S + Sync,
        W: Fn(&mut S, &[usize]) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<R>> = Mutex::new(vec![R::default(); parts.len()]);
        // Workers inherit the spawning thread's stats destination (the
        // handle stack is thread-local); the enter guard also flushes each
        // worker's batched counts once, on exit. They likewise inherit an
        // active span scope, so a scoped job's partition spans land on the
        // job's tracer, not the process-wide one.
        let h = stats::handle();
        let scope_tracer = atspeed_trace::current_scope();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let _g = h.enter();
                    let _ts = scope_tracer.clone().map(atspeed_trace::scope);
                    let mut engine = mk();
                    loop {
                        let p = next.fetch_add(1, Ordering::Relaxed);
                        if p >= parts.len() {
                            break;
                        }
                        let _sp = atspeed_trace::span("fsim.partition");
                        let started = Instant::now();
                        let r = work(&mut engine, &parts[p]);
                        stats::record_partition(started.elapsed());
                        results.lock().unwrap_or_else(|e| e.into_inner())[p] = r;
                    }
                });
            }
        });
        results.into_inner().unwrap_or_else(|e| e.into_inner())
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
        let threads = self.cfg.effective_threads(faults.len());
        if threads <= 1 {
            return CombFaultSim::new(self.nl).detect_block(tests, faults, universe);
        }
        assert!(
            !tests.is_empty() && tests.len() <= 64,
            "1..=64 tests per block"
        );
        let parts =
            self.fault_partitions(faults, universe, self.fault_units(faults.len(), threads));
        let masks = self.run_partitioned(
            &parts,
            threads,
            || CombFaultSim::new(self.nl),
            |sim, part| {
                stats::add_invocation();
                let ids: Vec<FaultId> = part.iter().map(|&k| faults[k]).collect();
                sim.detect_block(tests, &ids, universe)
            },
        );
        let mut out = vec![0u64; faults.len()];
        for (part, ms) in parts.iter().zip(masks) {
            for (&k, m) in part.iter().zip(ms) {
                out[k] = m;
            }
        }
        out
    }

    /// Parallel [`CombFaultSim::detect_all`]: which faults some test
    /// detects, test-sharded with cross-partition fault dropping through a
    /// shared atomic bitmap.
    pub fn detect_all(
        &self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<bool> {
        let blocks: Vec<&[CombTest]> = tests.chunks(64).collect();
        let threads = self.cfg.effective_threads(blocks.len());
        if threads <= 1 {
            return CombFaultSim::new(self.nl).detect_all(tests, faults, universe);
        }
        let chunk = if self.cfg.chunk_size > 0 {
            self.cfg.chunk_size
        } else {
            1
        };
        let shared = SharedDetectMap::new(faults.len());
        let next = AtomicUsize::new(0);
        let h = stats::handle();
        let scope_tracer = atspeed_trace::current_scope();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let _g = h.enter();
                    let _ts = scope_tracer.clone().map(atspeed_trace::scope);
                    let mut sim = CombFaultSim::new(self.nl);
                    let mut alive_idx: Vec<usize> = Vec::with_capacity(faults.len());
                    let mut alive_ids: Vec<FaultId> = Vec::with_capacity(faults.len());
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= blocks.len() {
                            break;
                        }
                        let _sp = atspeed_trace::span("fsim.detect_all.claim");
                        let started = Instant::now();
                        stats::add_invocation();
                        for block in &blocks[start..blocks.len().min(start + chunk)] {
                            alive_idx.clear();
                            alive_ids.clear();
                            for (k, &fid) in faults.iter().enumerate() {
                                if !shared.is_set(k) {
                                    alive_idx.push(k);
                                    alive_ids.push(fid);
                                }
                            }
                            if alive_ids.is_empty() {
                                break;
                            }
                            let masks = sim.detect_block(block, &alive_ids, universe);
                            for (&k, mask) in alive_idx.iter().zip(masks) {
                                if mask != 0 && shared.set(k) {
                                    stats::add_dropped(1);
                                }
                            }
                        }
                        stats::record_partition(started.elapsed());
                    }
                });
            }
        });
        shared.snapshot(faults.len())
    }

    /// Parallel [`CombFaultSim::detect_matrix`]: the full per-fault,
    /// per-test detection matrix (no dropping), fault-sharded.
    pub fn detect_matrix(
        &self,
        tests: &[CombTest],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Vec<Vec<u64>> {
        let threads = self.cfg.effective_threads(faults.len());
        if threads <= 1 {
            return CombFaultSim::new(self.nl).detect_matrix(tests, faults, universe);
        }
        let words = tests.len().div_ceil(64);
        let parts =
            self.fault_partitions(faults, universe, self.fault_units(faults.len(), threads));
        let rows = self.run_partitioned(
            &parts,
            threads,
            || CombFaultSim::new(self.nl),
            |sim, part| {
                stats::add_invocation();
                let ids: Vec<FaultId> = part.iter().map(|&k| faults[k]).collect();
                sim.detect_matrix(tests, &ids, universe)
            },
        );
        let mut out = vec![vec![0u64; words]; faults.len()];
        for (part, rs) in parts.iter().zip(rows) {
            for (&k, row) in part.iter().zip(rs) {
                out[k] = row;
            }
        }
        out
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
        let observe = if observe_final_state {
            FinalObserve::FullState
        } else {
            FinalObserve::None
        };
        self.detect_observed(init, seq, faults, universe, observe)
    }

    /// Parallel [`SeqFaultSim::detect_observed`], fault-sharded.
    pub fn detect_observed(
        &self,
        init: &State,
        seq: &Sequence,
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe: FinalObserve<'_>,
    ) -> Vec<bool> {
        let threads = self.cfg.effective_threads(faults.len());
        if threads <= 1 {
            return SeqFaultSim::new(self.nl).detect_observed(init, seq, faults, universe, observe);
        }
        let parts =
            self.fault_partitions(faults, universe, self.fault_units(faults.len(), threads));
        let dets = self.run_partitioned(
            &parts,
            threads,
            || SeqFaultSim::new(self.nl),
            |sim, part| {
                let ids: Vec<FaultId> = part.iter().map(|&k| faults[k]).collect();
                sim.detect_observed(init, seq, &ids, universe, observe)
            },
        );
        let mut out = vec![false; faults.len()];
        for (part, ds) in parts.iter().zip(dets) {
            for (&k, d) in part.iter().zip(ds) {
                out[k] = d;
            }
        }
        out
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

    /// Parallel [`SeqFaultSim::profiles_bounded`], fault-sharded.
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
        let threads = self.cfg.effective_threads(faults.len());
        if threads <= 1 {
            return SeqFaultSim::new(self.nl).profiles_bounded(
                init,
                seq,
                faults,
                universe,
                max_state_words,
            );
        }
        let parts =
            self.fault_partitions(faults, universe, self.fault_units(faults.len(), threads));
        let results = self.run_partitioned(
            &parts,
            threads,
            || SeqFaultSim::new(self.nl),
            |sim, part| {
                let ids: Vec<FaultId> = part.iter().map(|&k| faults[k]).collect();
                sim.profiles_bounded(init, seq, &ids, universe, max_state_words)
            },
        );
        let mut out = vec![DetectionProfile::default(); faults.len()];
        let mut truncated = 0u64;
        for (part, (ps, t)) in parts.iter().zip(results) {
            truncated += t;
            for (&k, p) in part.iter().zip(ps) {
                out[k] = p;
            }
        }
        (out, truncated)
    }

    /// Union detection over many scan tests — each run `(scan-in state,
    /// sequence)` is simulated with scan-out observation and the detected
    /// sets are unioned. Runs are claimed from a work queue; faults
    /// already detected by *any* partition are dropped everywhere through
    /// the shared atomic bitmap.
    ///
    /// Serial equivalent: iterating the runs in order and dropping
    /// detected faults from the alive list (what `TestSet::detects` in
    /// `atspeed-core` historically did). The union is order-independent,
    /// so both report the same detected set.
    pub fn detect_union(
        &self,
        runs: &[(&State, &Sequence)],
        faults: &[FaultId],
        universe: &FaultUniverse,
        observe_final_state: bool,
    ) -> Vec<bool> {
        let threads = self.cfg.effective_threads(runs.len());
        if threads <= 1 {
            let mut sim = SeqFaultSim::new(self.nl);
            let mut detected = vec![false; faults.len()];
            let mut alive: Vec<usize> = (0..faults.len()).collect();
            for (init, seq) in runs {
                if alive.is_empty() {
                    break;
                }
                let ids: Vec<FaultId> = alive.iter().map(|&k| faults[k]).collect();
                let det = sim.detect(init, seq, &ids, universe, observe_final_state);
                let mut still_alive = Vec::with_capacity(alive.len());
                let mut dropped = 0u64;
                for (&k, d) in alive.iter().zip(det) {
                    if d {
                        detected[k] = true;
                        dropped += 1;
                    } else {
                        still_alive.push(k);
                    }
                }
                alive = still_alive;
                stats::add_dropped(dropped);
            }
            return detected;
        }
        let chunk = if self.cfg.chunk_size > 0 {
            self.cfg.chunk_size
        } else {
            1
        };
        let shared = SharedDetectMap::new(faults.len());
        let next = AtomicUsize::new(0);
        let h = stats::handle();
        let scope_tracer = atspeed_trace::current_scope();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let _g = h.enter();
                    let _ts = scope_tracer.clone().map(atspeed_trace::scope);
                    let mut sim = SeqFaultSim::new(self.nl);
                    let mut alive_idx: Vec<usize> = Vec::with_capacity(faults.len());
                    let mut alive_ids: Vec<FaultId> = Vec::with_capacity(faults.len());
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= runs.len() {
                            break;
                        }
                        let _sp = atspeed_trace::span("fsim.detect_union.claim");
                        let started = Instant::now();
                        for (init, seq) in &runs[start..runs.len().min(start + chunk)] {
                            alive_idx.clear();
                            alive_ids.clear();
                            for (k, &fid) in faults.iter().enumerate() {
                                if !shared.is_set(k) {
                                    alive_idx.push(k);
                                    alive_ids.push(fid);
                                }
                            }
                            if alive_ids.is_empty() {
                                break;
                            }
                            let det =
                                sim.detect(init, seq, &alive_ids, universe, observe_final_state);
                            for (&k, d) in alive_idx.iter().zip(det) {
                                if d && shared.set(k) {
                                    stats::add_dropped(1);
                                }
                            }
                        }
                        stats::record_partition(started.elapsed());
                    }
                });
            }
        });
        shared.snapshot(faults.len())
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

    #[test]
    fn parallel_seq_matches_serial_on_s27() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let seq = Sequence::from_vectors(
            (0..24)
                .map(|t| {
                    (0..nl.num_pis())
                        .map(|i| V3::from_bool((t * 7 + i * 3) % 5 < 2))
                        .collect()
                })
                .collect(),
        );
        let init = vec![V3::Zero; nl.num_ffs()];

        let mut serial = SeqFaultSim::new(&nl);
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(4));

        assert_eq!(
            serial.detect(&init, &seq, &faults, &u, true),
            par.detect(&init, &seq, &faults, &u, true)
        );
        let sp = serial.profiles(&init, &seq, &faults, &u);
        let pp = par.profiles(&init, &seq, &faults, &u);
        assert_eq!(sp.len(), pp.len());
        for (a, b) in sp.iter().zip(pp.iter()) {
            assert_eq!(a.earliest_detection(), b.earliest_detection());
        }
    }

    #[test]
    fn fault_units_oversubscribes_the_claim_queue() {
        let nl = s27();
        // Default chunking: ~4 claims per worker so the queue can
        // rebalance, capped by the fault count, and serial stays at one.
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(4));
        assert_eq!(par.fault_units(1000, 4), 16);
        assert_eq!(par.fault_units(10, 4), 10);
        assert_eq!(par.fault_units(0, 4), 1);
        assert_eq!(par.fault_units(1000, 1), 1);
        // Explicit chunk_size still controls granularity directly.
        let chunked = ParallelFsim::new(
            &nl,
            SimConfig {
                threads: 4,
                chunk_size: 100,
            },
        );
        assert_eq!(chunked.fault_units(1000, 4), 10);
        assert_eq!(chunked.fault_units(100, 4), 4);
    }

    #[test]
    fn parallel_bounded_profiles_match_serial_including_truncation() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        // 70 cycles spills state-diff bits past the first 64-bit word, so
        // a budget of one word must truncate the same bits everywhere.
        let seq = Sequence::from_vectors(
            (0..70)
                .map(|t| {
                    (0..nl.num_pis())
                        .map(|i| V3::from_bool((t * 5 + i * 11) % 7 < 3))
                        .collect()
                })
                .collect(),
        );
        let init = vec![V3::Zero; nl.num_ffs()];
        let (sp, st) = SeqFaultSim::new(&nl).profiles_bounded(&init, &seq, &faults, &u, 1);
        for threads in [2, 4] {
            let par = ParallelFsim::new(&nl, SimConfig::with_threads(threads));
            let (pp, pt) = par.profiles_bounded(&init, &seq, &faults, &u, 1);
            assert_eq!(st, pt, "truncation count diverges at {threads} threads");
            assert_eq!(sp.len(), pp.len());
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

    #[test]
    fn order_hint_does_not_change_results() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.representatives().to_vec();
        let tests = comb_tests(&nl, 128, 7);
        let mut serial = CombFaultSim::new(&nl);
        let hint: Vec<u32> = (0..faults.len() as u32).rev().collect();
        let par = ParallelFsim::new(&nl, SimConfig::with_threads(3)).with_order_hint(hint);
        assert_eq!(
            serial.detect_all(&tests, &faults, &u),
            par.detect_all(&tests, &faults, &u)
        );
        assert_eq!(
            serial.detect_block(&tests[..64], &faults, &u),
            par.detect_block(&tests[..64], &faults, &u)
        );
    }
}
