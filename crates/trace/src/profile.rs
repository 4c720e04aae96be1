//! Span-stack sampling profiler with collapsed-stack (`.folded`) output.
//!
//! A [`Profiler`] periodically samples each registered thread's **live span
//! stack** — the spans currently open through [`crate::span()`] — and
//! aggregates the observations into folded stacks: one line per distinct
//! stack, `thread;outer;inner <count>`, the format
//! [speedscope](https://www.speedscope.app) and
//! [inferno](https://github.com/jonhoo/inferno) (`inferno-flamegraph`)
//! ingest directly. Because samples attach to *spans* rather than program
//! counters, the profile answers the attribution question the span
//! taxonomy poses: which circuits, phases, faults, and partitions the wall
//! clock actually went to — with zero external dependencies and no
//! debug-symbol machinery.
//!
//! # Cost model
//!
//! Profiling is opt-in, like tracing. While disabled, the hook in
//! [`crate::span()`] is one relaxed atomic load and the per-span bookkeeping
//! is skipped entirely. While enabled, opening or closing a span
//! push/pops one frame behind an uncontended thread-private mutex, and a
//! background sampler thread wakes at the configured interval (default
//! 250 Hz), locks each registered stack just long enough to copy it, and
//! folds the copy into an aggregation map. Kernel hot loops open no
//! per-gate spans, so enabling the profiler costs well under 2% of
//! gate-eval throughput (measured in `benches/kernels.rs`).
//!
//! # Determinism for tests
//!
//! The sampler is manually pumpable: [`Profiler::sample_once`] takes one
//! synchronous sample sweep with no thread and no clock, so tests assert
//! exact folded counts without timing flake.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Process-wide profiler id allocator (instances are distinguished in
/// thread-local caches by id, so test instances never mix).
static NEXT_PROFILER_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Cache of this thread's registered stacks, one per profiler.
    static LOCAL_STACKS: RefCell<Vec<(usize, Arc<ThreadStack>)>> =
        const { RefCell::new(Vec::new()) };
}

/// One thread's live span stack, shared between the owning thread (push/
/// pop) and the sampler (copy).
#[derive(Debug)]
struct ThreadStack {
    /// Root frame for this thread's folded stacks: the OS thread name when
    /// it has one, else `thread-<n>`.
    label: String,
    frames: Mutex<Vec<Cow<'static, str>>>,
}

/// A span-stack sampling profiler.
///
/// Most code drives the process-wide instance through the free functions
/// ([`enabled`], [`push`], [`pop`], [`start`], [`stop`]); tests construct
/// their own instances and pump [`Profiler::sample_once`] by hand.
#[derive(Debug)]
pub struct Profiler {
    id: usize,
    enabled: AtomicBool,
    interval_us: AtomicU64,
    next_thread: AtomicU32,
    threads: Mutex<Vec<Arc<ThreadStack>>>,
    /// Folded stack -> sample count.
    samples: Mutex<BTreeMap<String, u64>>,
    sampler: Mutex<Option<SamplerThread>>,
}

#[derive(Debug)]
struct SamplerThread {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

/// The default sampling rate, in samples per second.
pub const DEFAULT_HZ: u32 = 250;

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Creates a disabled profiler sampling at [`DEFAULT_HZ`] once started.
    pub fn new() -> Self {
        Profiler {
            id: NEXT_PROFILER_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            interval_us: AtomicU64::new(1_000_000 / u64::from(DEFAULT_HZ)),
            next_thread: AtomicU32::new(1),
            threads: Mutex::new(Vec::new()),
            samples: Mutex::new(BTreeMap::new()),
            sampler: Mutex::new(None),
        }
    }

    /// Turns the span-stack bookkeeping on or off. Spans opened while
    /// disabled never appear in samples, even if they are still live when
    /// profiling is enabled later (their guards never pushed a frame).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether span push/pop currently records frames.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the background sampling rate (clamped to `[1, 100_000]` Hz).
    /// Takes effect on the sampler's next wakeup.
    pub fn set_rate_hz(&self, hz: u32) {
        let hz = u64::from(hz.clamp(1, 100_000));
        self.interval_us.store(1_000_000 / hz, Ordering::Relaxed);
    }

    /// This thread's stack for this profiler, creating and registering it
    /// on first use.
    fn stack(&self) -> Arc<ThreadStack> {
        LOCAL_STACKS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, st)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(st);
            }
            let label = std::thread::current()
                .name()
                .map(sanitize_frame)
                .unwrap_or_else(|| {
                    format!(
                        "thread-{}",
                        self.next_thread.fetch_add(1, Ordering::Relaxed)
                    )
                });
            let st = Arc::new(ThreadStack {
                label,
                frames: Mutex::new(Vec::new()),
            });
            self.threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&st));
            cache.push((self.id, Arc::clone(&st)));
            st
        })
    }

    /// Pushes one frame onto the calling thread's live stack. Returns
    /// whether the frame was recorded (callers must pop iff it was).
    ///
    /// Takes `&Cow` rather than `&str` so a `Borrowed` span name clones
    /// as a pointer copy, not a heap allocation, on the span-open path.
    #[inline]
    #[allow(clippy::ptr_arg)]
    pub fn push(&self, name: &Cow<'static, str>) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let st = self.stack();
        st.frames
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(name.clone());
        true
    }

    /// Pops the calling thread's top frame; the inverse of a successful
    /// [`Profiler::push`] (span guards drop LIFO, so the top frame is the
    /// pushed one).
    #[inline]
    pub fn pop(&self) {
        let st = self.stack();
        st.frames.lock().unwrap_or_else(|e| e.into_inner()).pop();
    }

    /// Takes one synchronous sample of every registered thread's live
    /// stack, folding non-empty stacks into the aggregate. Returns how
    /// many stacks were sampled (threads currently inside at least one
    /// span).
    ///
    /// The background sampler calls this on a timer; tests call it
    /// directly for deterministic counts.
    pub fn sample_once(&self) -> usize {
        let threads = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        let mut sampled = 0;
        let mut samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        for st in threads.iter() {
            let folded = {
                let frames = st.frames.lock().unwrap_or_else(|e| e.into_inner());
                if frames.is_empty() {
                    continue;
                }
                let mut line = st.label.clone();
                for f in frames.iter() {
                    line.push(';');
                    line.push_str(&sanitize_frame(f));
                }
                line
            };
            *samples.entry(folded).or_insert(0) += 1;
            sampled += 1;
        }
        sampled
    }

    /// Total samples aggregated so far, across all stacks.
    pub fn num_samples(&self) -> u64 {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .sum()
    }

    /// Discards all aggregated samples (thread registrations persist).
    pub fn clear(&self) {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Renders the aggregate as collapsed/folded stacks, one
    /// `stack count` line per distinct stack, lexicographically ordered —
    /// loadable by speedscope and `inferno-flamegraph` as-is.
    pub fn folded(&self) -> String {
        let samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (stack, count) in samples.iter() {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Writes [`Profiler::folded`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_folded(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.folded())
    }

    /// Enables profiling and starts the background sampler at `hz`
    /// samples per second. A no-op if a sampler is already running.
    pub fn start_sampler(self: &Arc<Self>, hz: u32) {
        self.set_rate_hz(hz);
        self.set_enabled(true);
        let mut slot = self.sampler.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let profiler = Arc::clone(self);
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("atspeed-profiler".to_owned())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    profiler.sample_once();
                    let us = profiler.interval_us.load(Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(us));
                }
            })
            .expect("spawning the sampler thread");
        *slot = Some(SamplerThread { stop, handle });
    }

    /// Disables profiling and stops the background sampler (joining it),
    /// if one is running. Aggregated samples are kept; read them with
    /// [`Profiler::folded`].
    pub fn stop_sampler(&self) {
        self.set_enabled(false);
        let sampler = self
            .sampler
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(s) = sampler {
            s.stop.store(true, Ordering::Relaxed);
            let _ = s.handle.join();
        }
    }
}

/// Makes a name safe as one frame of a folded line: the folded format
/// reserves `;` as the frame separator and the trailing ` <count>` field,
/// and is line-oriented. Semicolons become `:`, whitespace becomes `_`.
fn sanitize_frame(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_whitespace() => '_',
            c if (c as u32) < 0x20 => '_',
            c => c,
        })
        .collect()
}

/// The process-wide profiler, lazily constructed.
///
/// Stays unconstructed (and [`enabled`] stays `false` at the cost of one
/// atomic load) until something starts it.
static GLOBAL: OnceLock<Arc<Profiler>> = OnceLock::new();

/// The process-wide profiler used by the free functions.
pub fn global() -> &'static Arc<Profiler> {
    GLOBAL.get_or_init(|| Arc::new(Profiler::new()))
}

/// Whether the process-wide profiler is recording span frames. Near-free
/// while profiling has never been started.
#[inline]
pub fn enabled() -> bool {
    GLOBAL.get().is_some_and(|p| p.is_enabled())
}

/// Pushes a frame onto the process-wide profiler if it is enabled;
/// returns whether a matching [`pop`] is owed. Called by [`crate::span()`],
/// which holds its name as a `Cow` — see [`Profiler::push`] for why the
/// reference stays a `&Cow`.
#[inline]
#[allow(clippy::ptr_arg)]
pub fn push(name: &Cow<'static, str>) -> bool {
    match GLOBAL.get() {
        Some(p) => p.push(name),
        None => false,
    }
}

/// Pops the frame a successful [`push`] recorded. Called by span guards.
#[inline]
pub fn pop() {
    if let Some(p) = GLOBAL.get() {
        p.pop();
    }
}

/// Starts the process-wide profiler's background sampler at `hz` samples
/// per second (binaries call this for `--profile FILE`).
pub fn start(hz: u32) {
    global().start_sampler(hz);
}

/// Stops the process-wide sampler and returns the folded stacks.
pub fn stop() -> String {
    let p = global();
    p.stop_sampler();
    p.folded()
}

/// Stops the process-wide sampler and writes the folded stacks to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn stop_and_write(path: impl AsRef<Path>) -> io::Result<()> {
    let p = global();
    p.stop_sampler();
    p.write_folded(path)
}

/// Structural validation of one folded-stacks document: every non-empty
/// line must be `frame(;frame)* count` with a positive integer count and
/// no empty frames — the exact shape speedscope's and inferno's collapsed
/// parsers accept. Returns the total sample count.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn validate_folded(folded: &str) -> Result<u64, String> {
    let mut total = 0u64;
    for (i, line) in folded.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no count field: {line:?}", i + 1))?;
        let n: u64 = count
            .parse()
            .map_err(|_| format!("line {}: bad count {count:?}", i + 1))?;
        if n == 0 {
            return Err(format!("line {}: zero count", i + 1));
        }
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty frame in {stack:?}", i + 1));
        }
        total += n;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::new();
        assert!(!p.push(&Cow::Borrowed("x")));
        assert_eq!(p.sample_once(), 0);
        assert_eq!(p.num_samples(), 0);
        assert_eq!(p.folded(), "");
    }

    #[test]
    fn sample_folds_the_live_stack() {
        let p = Profiler::new();
        p.set_enabled(true);
        assert!(p.push(&Cow::Borrowed("outer")));
        assert!(p.push(&Cow::Borrowed("inner")));
        assert_eq!(p.sample_once(), 1);
        assert_eq!(p.sample_once(), 1);
        p.pop();
        assert_eq!(p.sample_once(), 1);
        p.pop();
        assert_eq!(p.sample_once(), 0, "empty stacks are not sampled");
        let folded = p.folded();
        let label = std::thread::current().name().map(sanitize_frame).unwrap();
        assert!(
            folded.contains(&format!("{label};outer;inner 2\n")),
            "{folded}"
        );
        assert!(folded.contains(&format!("{label};outer 1\n")), "{folded}");
        assert_eq!(validate_folded(&folded), Ok(3));
    }

    #[test]
    fn frames_are_sanitized_for_the_folded_format() {
        assert_eq!(sanitize_frame("a;b c\nd"), "a:b_c_d");
        let p = Profiler::new();
        p.set_enabled(true);
        assert!(p.push(&Cow::Borrowed("evil; frame")));
        p.sample_once();
        p.pop();
        assert_eq!(validate_folded(&p.folded()), Ok(1));
    }

    #[test]
    fn validate_folded_rejects_malformed_lines() {
        assert!(validate_folded("main;x").is_err(), "missing count");
        assert!(validate_folded("main;x zero").is_err());
        assert!(validate_folded("main;x 0").is_err());
        assert!(validate_folded(";x 1").is_err(), "empty frame");
        assert!(validate_folded("main;;x 1").is_err(), "empty frame");
        assert_eq!(validate_folded("main;x 2\n\nmain 1\n"), Ok(3));
        assert_eq!(validate_folded(""), Ok(0));
    }

    #[test]
    fn clear_discards_samples() {
        let p = Profiler::new();
        p.set_enabled(true);
        assert!(p.push(&Cow::Borrowed("s")));
        p.sample_once();
        assert_eq!(p.num_samples(), 1);
        p.clear();
        assert_eq!(p.num_samples(), 0);
        p.pop();
    }

    #[test]
    fn background_sampler_starts_and_stops() {
        let p = Arc::new(Profiler::new());
        p.start_sampler(1000);
        assert!(p.is_enabled());
        // The guard frame is live while the sampler runs; at 1 kHz some
        // samples land within 50 ms on any machine, but the assertion only
        // needs the sampler to have *run*, not a specific count.
        assert!(p.push(&Cow::Borrowed("busy")));
        std::thread::sleep(Duration::from_millis(50));
        p.pop();
        p.stop_sampler();
        assert!(!p.is_enabled());
        let after = p.num_samples();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(p.num_samples(), after, "sampler is really stopped");
    }
}
