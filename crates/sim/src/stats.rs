//! Lightweight per-phase instrumentation for the simulation substrate.
//!
//! The engines in this crate ([`comb`](crate::comb),
//! [`fsim_comb`](crate::fsim_comb), [`fsim_seq`](crate::fsim_seq),
//! [`parallel`](crate::parallel)) report three counters — gate evaluations,
//! fault-simulation invocations, and faults dropped — plus wall time per
//! parallel partition. Counts accumulate in thread-local cells (one
//! unsynchronized add per engine call, so the hot loops stay hot) and are
//! merged into an [`atspeed_trace::MetricsRegistry`] under metric names of
//! the form `phase/<label>/<field>`, keyed by the current *phase* label.
//!
//! The orchestration layer names the phases: call [`set_phase`] around each
//! pipeline stage, then take a [`SimReport`] snapshot with [`report`] when
//! done. Worker threads must call [`flush`] before they exit so their
//! counts are not lost; a worker spawned inside a [`scoped`] region must
//! additionally [`StatsHandle::enter`] the parent's handle, because the
//! scope stack is thread-local.
//!
//! By default counts land in the process-global registry
//! ([`atspeed_trace::metrics::global`]), so `--metrics-json` exports phase
//! counters next to the other workspace metrics. Tests (and any caller
//! wanting isolation) create a private registry with [`scoped`]: while the
//! returned guard lives, this thread's stats calls target that registry
//! only, and concurrent tests cannot observe each other's counts.
//!
//! Counter semantics:
//!
//! - **gate evaluations** — gate-words: one unit is one gate evaluated over
//!   one 64-slot word. A compiled full pass counts one per gate, and the
//!   PPSFP engine's per-fault cone propagation counts only the gates it
//!   touched. The gates that propagation skipped are reported in the same
//!   unit (`events_skipped`), so for every propagated fault
//!   `evals + skipped == num_gates`;
//! - **invocations** — calls of a fault-simulation entry point (`detect*`,
//!   `profiles*`, `end_states`, `sweep_*`, [`score_scan_ins`](crate::score_scan_ins)). A [`ParallelFsim`](crate::ParallelFsim)
//!   call counts once at any thread count; the engine calls it makes on
//!   its partitions count none, so the total does not depend on the
//!   thread count;
//! - **faults dropped** — faults removed from further simulation by
//!   detection.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use atspeed_trace::metrics::{bucket_index, MetricsRegistry, NUM_BUCKETS};

// ---------------------------------------------------------------------------
// Thread-local pending counts (one unsynchronized add per engine call).
// ---------------------------------------------------------------------------

thread_local! {
    static GATE_EVALS: Cell<u64> = const { Cell::new(0) };
    static INVOCATIONS: Cell<u64> = const { Cell::new(0) };
    static DROPPED: Cell<u64> = const { Cell::new(0) };
    static EVENTS_SKIPPED: Cell<u64> = const { Cell::new(0) };
    // Partition wall times are batched here too, so a worker takes the
    // registry lock once per claimed partition set (at flush) instead of
    // once per partition.
    static PART_COUNT: Cell<u64> = const { Cell::new(0) };
    static PART_TOTAL_NS: Cell<u64> = const { Cell::new(0) };
    static PART_MAX_NS: Cell<u64> = const { Cell::new(0) };
    static PART_SUM_US: Cell<u64> = const { Cell::new(0) };
    static PART_HIST: RefCell<[u64; NUM_BUCKETS]> = const { RefCell::new([0; NUM_BUCKETS]) };
}

/// Everything a thread has recorded since its last flush.
#[derive(Clone)]
struct Pending {
    gate_evals: u64,
    invocations: u64,
    dropped: u64,
    events_skipped: u64,
    partitions: u64,
    part_total_ns: u64,
    part_max_ns: u64,
    part_sum_us: u64,
    part_hist: [u64; NUM_BUCKETS],
}

impl Pending {
    fn take() -> Pending {
        Pending {
            gate_evals: GATE_EVALS.with(|c| c.replace(0)),
            invocations: INVOCATIONS.with(|c| c.replace(0)),
            dropped: DROPPED.with(|c| c.replace(0)),
            events_skipped: EVENTS_SKIPPED.with(|c| c.replace(0)),
            partitions: PART_COUNT.with(|c| c.replace(0)),
            part_total_ns: PART_TOTAL_NS.with(|c| c.replace(0)),
            part_max_ns: PART_MAX_NS.with(|c| c.replace(0)),
            part_sum_us: PART_SUM_US.with(|c| c.replace(0)),
            part_hist: PART_HIST
                .with(|h| std::mem::replace(&mut *h.borrow_mut(), [0; NUM_BUCKETS])),
        }
    }

    fn is_empty(&self) -> bool {
        self.gate_evals == 0
            && self.invocations == 0
            && self.dropped == 0
            && self.events_skipped == 0
            && self.partitions == 0
    }
}

/// Adds `n` gate evaluations to this thread's pending counts.
#[inline]
pub fn add_gate_evals(n: u64) {
    GATE_EVALS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Adds one fault-simulation invocation to this thread's pending counts.
#[inline]
pub fn add_invocation() {
    INVOCATIONS.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Adds `n` dropped faults to this thread's pending counts.
#[inline]
pub fn add_dropped(n: u64) {
    DROPPED.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Adds `n` skipped gate evaluations (gates outside a propagated fault
/// cone) to this thread's pending counts.
#[inline]
pub fn add_events_skipped(n: u64) {
    EVENTS_SKIPPED.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Records one parallel partition's wall time in this thread's pending
/// tally. Nothing is locked here; the batch is merged into the registry on
/// the next [`flush`].
pub fn record_partition(wall: Duration) {
    let ns = wall.as_nanos().min(u128::from(u64::MAX)) as u64;
    let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
    PART_COUNT.with(|c| c.set(c.get() + 1));
    PART_TOTAL_NS.with(|c| c.set(c.get().wrapping_add(ns)));
    PART_MAX_NS.with(|c| c.set(c.get().max(ns)));
    PART_SUM_US.with(|c| c.set(c.get().wrapping_add(us)));
    PART_HIST.with(|h| h.borrow_mut()[bucket_index(us)] += 1);
}

/// Merges this thread's pending counts into the current phase of the
/// current [`StatsHandle`].
///
/// Worker threads must call this before exiting; the orchestrating thread
/// is flushed automatically by [`set_phase`] and [`report`].
pub fn flush() {
    let pending = Pending::take();
    if pending.is_empty() {
        return;
    }
    handle().merge(&pending);
}

// ---------------------------------------------------------------------------
// Handles: which registry the calling thread's stats go to.
// ---------------------------------------------------------------------------

/// Phase attribution state shared by everyone using one handle.
#[derive(Debug)]
struct PhaseState {
    current: String,
    phase_started: Option<Instant>,
}

#[derive(Debug)]
enum MetricsRef {
    /// The process-global registry ([`atspeed_trace::metrics::global`]).
    Global,
    /// A private registry owned by this handle (see [`scoped`]).
    Owned(MetricsRegistry),
}

#[derive(Debug)]
struct HandleInner {
    metrics: MetricsRef,
    state: Mutex<PhaseState>,
}

/// A destination for simulation stats: a metrics registry plus the current
/// phase label. Cloning is cheap (`Arc`); clones share state.
///
/// Most code never touches handles — the free functions route through the
/// calling thread's current handle. Handles exist so that (a) tests can
/// isolate themselves with [`scoped`], and (b) worker threads spawned
/// inside a scope can join it with [`StatsHandle::enter`].
#[derive(Debug, Clone)]
pub struct StatsHandle(Arc<HandleInner>);

impl StatsHandle {
    fn new_scoped() -> StatsHandle {
        StatsHandle(Arc::new(HandleInner {
            metrics: MetricsRef::Owned(MetricsRegistry::new()),
            state: Mutex::new(PhaseState {
                current: "unattributed".to_string(),
                phase_started: None,
            }),
        }))
    }

    /// The metrics registry this handle writes to. Phase counters appear
    /// under `phase/<label>/<field>` names; other subsystems may record
    /// arbitrary metrics alongside them.
    pub fn metrics(&self) -> &MetricsRegistry {
        match &self.0.metrics {
            MetricsRef::Global => atspeed_trace::metrics::global(),
            MetricsRef::Owned(reg) => reg,
        }
    }

    /// Makes this handle the target of the calling thread's stats until the
    /// returned guard drops. Use from worker threads to join the scope of
    /// the thread that spawned them:
    ///
    /// ```
    /// use atspeed_sim::stats;
    /// let scope = stats::scoped();
    /// let h = stats::handle();
    /// std::thread::scope(|s| {
    ///     s.spawn(|| {
    ///         let _g = h.enter();
    ///         stats::add_gate_evals(17);
    ///         // guard drop flushes into the scoped registry
    ///     });
    /// });
    /// assert_eq!(scope.report().totals().gate_evals, 17);
    /// ```
    ///
    /// Flushes the thread's pending counts to its *previous* handle first,
    /// so nothing recorded before the switch is misattributed.
    #[must_use = "stats target reverts when the guard drops"]
    pub fn enter(&self) -> StatsEnterGuard {
        flush();
        HANDLE_STACK.with(|s| s.borrow_mut().push(self.clone()));
        StatsEnterGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    fn merge(&self, p: &Pending) {
        let label = {
            let st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            st.current.clone()
        };
        let m = self.metrics();
        let name = |field: &str| format!("phase/{label}/{field}");
        if p.gate_evals > 0 {
            m.counter(&name("gate_evals")).add(p.gate_evals);
        }
        if p.invocations > 0 {
            m.counter(&name("fsim_invocations")).add(p.invocations);
        }
        if p.dropped > 0 {
            m.counter(&name("faults_dropped")).add(p.dropped);
        }
        if p.events_skipped > 0 {
            m.counter(&name("events_skipped")).add(p.events_skipped);
        }
        if p.partitions > 0 {
            m.counter(&name("partitions")).add(p.partitions);
            m.counter(&name("partition_wall_total_ns"))
                .add(p.part_total_ns);
            m.gauge(&name("partition_wall_max_ns"))
                .record_max(i64::try_from(p.part_max_ns).unwrap_or(i64::MAX));
            m.histogram(&name("partition_wall_us")).merge_tally(
                &p.part_hist,
                p.partitions,
                p.part_sum_us,
            );
        }
    }

    /// Ends the current phase and starts attributing counts to `name`.
    /// Charges the old phase its elapsed wall time. Does *not* flush any
    /// thread's pending counts — use the free [`set_phase`] for that.
    pub fn set_phase(&self, name: &str) {
        let now = Instant::now();
        let (old, elapsed) = {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            let charge = st
                .phase_started
                .take()
                .map(|started| (st.current.clone(), now - started));
            st.current = name.to_string();
            st.phase_started = Some(now);
            match charge {
                Some((old, d)) => (old, d),
                None => return,
            }
        };
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.metrics()
            .counter(&format!("phase/{old}/wall_ns"))
            .add(ns);
    }

    /// Clears phase attribution and zeroes every metric in the registry
    /// (names and outstanding metric handles stay valid).
    pub fn reset(&self) {
        {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            st.current = "unattributed".to_string();
            st.phase_started = None;
        }
        self.metrics().zero();
    }

    /// Snapshots per-phase counters from the registry. Closes out the
    /// running phase timer (the phase keeps accumulating if more work
    /// follows). Does *not* flush thread-local pending counts — use the
    /// free [`report`] for that.
    pub fn report(&self) -> SimReport {
        {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(started) = st.phase_started {
                let now = Instant::now();
                let ns = (now - started).as_nanos().min(u128::from(u64::MAX)) as u64;
                let current = st.current.clone();
                st.phase_started = Some(now);
                drop(st);
                if ns > 0 {
                    self.metrics()
                        .counter(&format!("phase/{current}/wall_ns"))
                        .add(ns);
                }
            }
        }
        let snap = self.metrics().snapshot();
        let mut phases: BTreeMap<String, PhaseStats> = BTreeMap::new();
        for (name, value) in &snap.counters {
            let Some(rest) = name.strip_prefix("phase/") else {
                continue;
            };
            // Phase labels are identifier-like (no '/'), so the last
            // segment is the field name.
            let Some((label, field)) = rest.rsplit_once('/') else {
                continue;
            };
            let entry = phases.entry(label.to_string()).or_default();
            match field {
                "gate_evals" => entry.gate_evals = *value,
                "fsim_invocations" => entry.fsim_invocations = *value,
                "faults_dropped" => entry.faults_dropped = *value,
                "events_skipped" => entry.events_skipped = *value,
                "wall_ns" => entry.wall = Duration::from_nanos(*value),
                "partitions" => entry.partitions = *value,
                "partition_wall_total_ns" => {
                    entry.partition_wall_total = Duration::from_nanos(*value)
                }
                _ => {}
            }
        }
        for (name, value) in &snap.gauges {
            let Some(rest) = name.strip_prefix("phase/") else {
                continue;
            };
            let Some((label, field)) = rest.rsplit_once('/') else {
                continue;
            };
            if field == "partition_wall_max_ns" {
                let entry = phases.entry(label.to_string()).or_default();
                entry.partition_wall_max = Duration::from_nanos(u64::try_from(*value).unwrap_or(0));
            }
        }
        for (name, hist) in &snap.histograms {
            let Some(rest) = name.strip_prefix("phase/") else {
                continue;
            };
            let Some((label, field)) = rest.rsplit_once('/') else {
                continue;
            };
            if field == "partition_wall_us" {
                let entry = phases.entry(label.to_string()).or_default();
                entry.partition_wall_p50 = Duration::from_micros(hist.approx_quantile(0.50) as u64);
                entry.partition_wall_p99 = Duration::from_micros(hist.approx_quantile(0.99) as u64);
            }
        }
        SimReport {
            phases: phases
                .into_iter()
                .filter(|(_, s)| *s != PhaseStats::default())
                .collect(),
        }
    }
}

thread_local! {
    /// Innermost scoped handle wins; empty means the global handle.
    static HANDLE_STACK: RefCell<Vec<StatsHandle>> = const { RefCell::new(Vec::new()) };
}

fn global_handle() -> &'static StatsHandle {
    static GLOBAL: OnceLock<StatsHandle> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        StatsHandle(Arc::new(HandleInner {
            metrics: MetricsRef::Global,
            state: Mutex::new(PhaseState {
                current: "unattributed".to_string(),
                phase_started: None,
            }),
        }))
    })
}

/// The calling thread's current stats destination: the innermost
/// [`scoped`]/[`StatsHandle::enter`] handle, or the process-global one.
pub fn handle() -> StatsHandle {
    HANDLE_STACK
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| global_handle().clone())
}

/// Reverts the calling thread's stats destination on drop; returned by
/// [`StatsHandle::enter`] and carried inside [`StatsScope`].
///
/// Guards must drop in LIFO order (natural with `let _g = h.enter();`
/// block scoping). The pending counts accumulated while entered are
/// flushed to the entered handle on drop.
pub struct StatsEnterGuard {
    // Thread-local stack manipulation must unwind on the same thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for StatsEnterGuard {
    fn drop(&mut self) {
        flush();
        HANDLE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// An isolated stats region: a fresh private registry that this thread's
/// stats calls target until the guard drops. See [`scoped`].
pub struct StatsScope {
    handle: StatsHandle,
    _guard: StatsEnterGuard,
}

impl StatsScope {
    /// The handle backing this scope — clone it into worker threads and
    /// [`StatsHandle::enter`] there.
    pub fn handle(&self) -> StatsHandle {
        self.handle.clone()
    }

    /// Snapshot of this scope's counters; flushes the calling thread first.
    pub fn report(&self) -> SimReport {
        flush();
        self.handle.report()
    }
}

/// Opens an isolated stats region backed by a fresh private registry.
///
/// While the returned guard lives, the calling thread's [`add_gate_evals`],
/// [`set_phase`], [`report`], … target the private registry, so concurrent
/// tests cannot interfere with each other or with the process-global
/// metrics. Pending counts recorded *before* the call are flushed to the
/// previous destination first.
#[must_use = "the scope ends when the guard drops"]
pub fn scoped() -> StatsScope {
    let handle = StatsHandle::new_scoped();
    let guard = handle.enter();
    StatsScope {
        handle,
        _guard: guard,
    }
}

/// Ends the current phase and starts attributing counts to `name`.
///
/// Flushes the calling thread's pending counts to the *old* phase first
/// and charges the old phase its elapsed wall time.
pub fn set_phase(name: &str) {
    flush();
    handle().set_phase(name);
}

/// Clears all recorded stats and returns phase attribution to the default.
///
/// On the global handle this zeroes the process-global metrics registry —
/// including metrics recorded by other subsystems — which is what a fresh
/// benchmark run wants.
pub fn reset() {
    let _ = Pending::take();
    handle().reset();
}

/// Takes a snapshot of everything recorded since the last [`reset`].
///
/// Flushes the calling thread and closes out the running phase timer (the
/// phase keeps accumulating if more work follows).
pub fn report() -> SimReport {
    flush();
    handle().report()
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// Counters merged for one phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Gate-words evaluated: one gate over one 64-slot word.
    pub gate_evals: u64,
    /// Engine-level fault-simulation invocations.
    pub fsim_invocations: u64,
    /// Faults dropped after detection.
    pub faults_dropped: u64,
    /// Gate evaluations PPSFP fault propagation avoided (gates outside the
    /// propagated cone that a full levelized pass would have computed).
    pub events_skipped: u64,
    /// Wall time attributed to the phase.
    pub wall: Duration,
    /// Parallel partitions run during the phase.
    pub partitions: u64,
    /// Summed wall time across those partitions.
    pub partition_wall_total: Duration,
    /// Wall time of the slowest partition (the parallel critical path).
    pub partition_wall_max: Duration,
    /// Median partition wall time (approximate, from the log2-bucketed
    /// `partition_wall_us` histogram).
    pub partition_wall_p50: Duration,
    /// 99th-percentile partition wall time (approximate, same source).
    pub partition_wall_p99: Duration,
}

impl PhaseStats {
    /// Gate evaluations per second of phase wall time (0.0 when no wall
    /// time was recorded).
    pub fn gate_evals_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.gate_evals as f64 / secs
        } else {
            0.0
        }
    }

    /// Load-imbalance ratio of the phase's parallel partitions: the
    /// slowest partition's wall time over the mean partition wall time.
    /// 1.0 means perfectly balanced; `P` (the partition count) means one
    /// partition did all the work. 0.0 when the phase ran no partitions.
    pub fn partition_imbalance(&self) -> f64 {
        if self.partitions == 0 {
            return 0.0;
        }
        let mean = self.partition_wall_total.as_secs_f64() / self.partitions as f64;
        if mean > 0.0 {
            self.partition_wall_max.as_secs_f64() / mean
        } else {
            0.0
        }
    }
}

/// A snapshot of per-phase simulation counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Stats per phase label, ordered by label.
    pub phases: Vec<(String, PhaseStats)>,
}

impl SimReport {
    /// Sums the counters across phases.
    pub fn totals(&self) -> PhaseStats {
        let mut t = PhaseStats::default();
        for (_, s) in &self.phases {
            t.gate_evals += s.gate_evals;
            t.fsim_invocations += s.fsim_invocations;
            t.faults_dropped += s.faults_dropped;
            t.events_skipped += s.events_skipped;
            t.wall += s.wall;
            t.partitions += s.partitions;
            t.partition_wall_total += s.partition_wall_total;
            t.partition_wall_max = t.partition_wall_max.max(s.partition_wall_max);
            // Quantiles do not sum; the cross-phase maximum is the
            // conservative roll-up for a totals row.
            t.partition_wall_p50 = t.partition_wall_p50.max(s.partition_wall_p50);
            t.partition_wall_p99 = t.partition_wall_p99.max(s.partition_wall_p99);
        }
        t
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>14} {:>8} {:>9} {:>14} {:>11} {:>10} {:>6} {:>10} {:>10} {:>10} {:>6}",
            "phase",
            "gate evals",
            "fsims",
            "dropped",
            "evts skipped",
            "evals/s",
            "wall",
            "parts",
            "part p50",
            "part p99",
            "part max",
            "imbal"
        )?;
        for (name, s) in &self.phases {
            writeln!(
                f,
                "{:<18} {:>14} {:>8} {:>9} {:>14} {:>11.3e} {:>10.2?} {:>6} {:>10.2?} {:>10.2?} {:>10.2?} {:>6.2}",
                name,
                s.gate_evals,
                s.fsim_invocations,
                s.faults_dropped,
                s.events_skipped,
                s.gate_evals_per_sec(),
                s.wall,
                s.partitions,
                s.partition_wall_p50,
                s.partition_wall_p99,
                s.partition_wall_max,
                s.partition_imbalance()
            )?;
        }
        let t = self.totals();
        writeln!(
            f,
            "{:<18} {:>14} {:>8} {:>9} {:>14} {:>11.3e} {:>10.2?} {:>6} {:>10.2?} {:>10.2?} {:>10.2?} {:>6.2}",
            "total",
            t.gate_evals,
            t.fsim_invocations,
            t.faults_dropped,
            t.events_skipped,
            t.gate_evals_per_sec(),
            t.wall,
            t.partitions,
            t.partition_wall_p50,
            t.partition_wall_p99,
            t.partition_wall_max,
            t.partition_imbalance()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test opens its own scoped() registry, so they are independent
    // under the parallel test harness — no shared global state.

    #[test]
    fn counters_merge_into_phases() {
        let scope = scoped();
        set_phase("alpha");
        add_gate_evals(10);
        add_invocation();
        add_dropped(3);
        set_phase("beta");
        add_gate_evals(5);
        add_events_skipped(7);
        let r = scope.report();
        let alpha = &r.phases.iter().find(|(n, _)| n == "alpha").unwrap().1;
        assert_eq!(alpha.gate_evals, 10);
        assert_eq!(alpha.fsim_invocations, 1);
        assert_eq!(alpha.faults_dropped, 3);
        let beta = &r.phases.iter().find(|(n, _)| n == "beta").unwrap().1;
        assert_eq!(beta.gate_evals, 5);
        assert_eq!(beta.events_skipped, 7);
        assert!(beta.gate_evals_per_sec() > 0.0, "beta has wall time");
        let t = r.totals();
        assert_eq!(t.gate_evals, 15);
        assert_eq!(t.events_skipped, 7);
    }

    #[test]
    fn partitions_batch_and_merge_exactly() {
        let scope = scoped();
        set_phase("par");
        record_partition(Duration::from_millis(2));
        record_partition(Duration::from_millis(4));
        // Partition tallies stay thread-local until flush (report flushes);
        // only the phase wall timer has reached the registry so far.
        let pre = handle().report();
        assert!(pre
            .phases
            .iter()
            .all(|(_, s)| s.partitions == 0 && s.partition_wall_total == Duration::ZERO));
        let r = scope.report();
        let par = &r.phases.iter().find(|(n, _)| n == "par").unwrap().1;
        assert_eq!(par.partitions, 2);
        assert_eq!(par.partition_wall_total, Duration::from_millis(6));
        assert_eq!(par.partition_wall_max, Duration::from_millis(4));
        // The batched histogram saw both samples.
        let hist = scope
            .handle()
            .metrics()
            .histogram("phase/par/partition_wall_us");
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 2000 + 4000);
    }

    #[test]
    fn imbalance_ratio_reported_in_display() {
        let mut s = PhaseStats {
            partitions: 4,
            partition_wall_total: Duration::from_millis(40),
            partition_wall_max: Duration::from_millis(20),
            ..PhaseStats::default()
        };
        assert!((s.partition_imbalance() - 2.0).abs() < 1e-9);
        s.partitions = 0;
        assert_eq!(s.partition_imbalance(), 0.0);
        let scope = scoped();
        set_phase("p");
        record_partition(Duration::from_millis(1));
        record_partition(Duration::from_millis(3));
        let r = scope.report();
        let table = format!("{r}");
        assert!(table.contains("imbal"), "{table}");
        assert!(table.contains("  1.50\n"), "{table}");
    }

    #[test]
    fn partition_quantiles_surface_in_report_display() {
        let scope = scoped();
        set_phase("q");
        for _ in 0..20 {
            record_partition(Duration::from_millis(2));
        }
        record_partition(Duration::from_millis(40));
        let r = scope.report();
        let q = &r.phases.iter().find(|(n, _)| n == "q").unwrap().1;
        // 2 ms lands in the [1024, 2047] µs bucket; the p50 estimate stays
        // within it. The single 40 ms outlier pulls p99 upward.
        assert!(
            (Duration::from_millis(1)..Duration::from_millis(3)).contains(&q.partition_wall_p50),
            "p50 {:?}",
            q.partition_wall_p50
        );
        assert!(
            q.partition_wall_p99 >= q.partition_wall_p50,
            "p99 {:?} < p50 {:?}",
            q.partition_wall_p99,
            q.partition_wall_p50
        );
        let table = format!("{r}");
        assert!(table.contains("part p50"), "{table}");
        assert!(table.contains("part p99"), "{table}");
    }

    #[test]
    fn reset_clears_scope() {
        let scope = scoped();
        set_phase("x");
        add_gate_evals(1);
        assert!(!scope.report().phases.is_empty());
        reset();
        assert!(scope.report().phases.is_empty());
    }

    #[test]
    fn scopes_nest_and_isolate() {
        let outer = scoped();
        set_phase("outer");
        add_gate_evals(1);
        {
            let inner = scoped();
            set_phase("inner");
            add_gate_evals(100);
            let r = inner.report();
            assert_eq!(r.totals().gate_evals, 100);
            assert!(r.phases.iter().all(|(n, _)| n != "outer"));
        }
        // Counts recorded after the inner scope closed go to the outer one.
        add_gate_evals(2);
        let r = outer.report();
        assert_eq!(r.totals().gate_evals, 3);
        assert!(r.phases.iter().all(|(n, _)| n != "inner"));
    }

    #[test]
    fn worker_threads_enter_a_scope_handle() {
        let scope = scoped();
        set_phase("workers");
        let h = handle();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = h.enter();
                    add_gate_evals(10);
                    record_partition(Duration::from_micros(50));
                });
            }
        });
        let r = scope.report();
        let w = &r.phases.iter().find(|(n, _)| n == "workers").unwrap().1;
        assert_eq!(w.gate_evals, 40);
        assert_eq!(w.partitions, 4);
    }
}
