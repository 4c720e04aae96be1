//! The benchmark's own span recorder.
//!
//! A traced run wraps each call into a layer of the program in a span:
//! name, start, end, the span that caused it, and the job it belongs to.
//! Spans stay in memory until the run ends; then [`Tracer::write_chrome`]
//! writes them as a Chrome trace-event file and [`Tracer::self_ms`]
//! derives each layer's self time. A disabled tracer records nothing and
//! only calls through, so untraced runs execute the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `core.phase12`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The job this span belongs to.
    pub job: u64,
    /// Offset of the start from the tracer's epoch.
    pub start: Duration,
    /// Offset of the end from the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans from one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled` and only calls through
    /// otherwise. `epoch` is the common time origin of merged tracers.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job: self.job,
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .sum()
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1e3;
        }
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Renders the spans as Chrome trace-event JSON (loadable in Perfetto
    /// or `chrome://tracing`); each job gets its own track.
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (s, self_time)) in self.spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.job,
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
                s.parent.map_or(-1, |p| p as i64),
                self_time.as_secs_f64() * 1e6,
            );
        }
        out.push_str("]}\n");
        out
    }

    fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Writes [`Tracer::chrome_json`] to `path`, creating its directory.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("job", |t| {
            t.span("a", |_| std::thread::sleep(Duration::from_millis(5)));
            t.span("b", |t| {
                t.span("c", |_| std::thread::sleep(Duration::from_millis(5)))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let selfs = t.self_ms();
        let total: f64 = selfs.values().sum();
        assert!(
            (total - t.total_ms("job")).abs() < 1e-6,
            "self times partition the root"
        );
        assert!(selfs["c"] >= 5.0 && selfs["b"] < selfs["c"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("job", |t| t.span("a", |_| 7)), 7);
        assert!(t.spans().is_empty());
        assert!(t.chrome_json().contains("\"traceEvents\":[]"));
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("x", |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("y", |t| t.span("z", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.chrome_json().starts_with("{\"traceEvents\":[{"));
    }
}
