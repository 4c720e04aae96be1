//! Zero-dependency telemetry for the atspeed workspace.
//!
//! Six cooperating subsystems, all usable independently:
//!
//! - [`span`](mod@span) — hierarchical RAII **spans**. A [`Span`] guard records a
//!   begin event on creation and an end event on drop; guards nest
//!   naturally (LIFO drop order), events are buffered per thread, and the
//!   whole recording exports as a Chrome trace-event JSON file loadable in
//!   Perfetto or `chrome://tracing`. Tracing is **off by default**: a
//!   disabled span is a single relaxed atomic load and no allocation, so
//!   per-fault ATPG scopes stay essentially free in production runs.
//! - [`metrics`] — a named **metrics registry** of monotonic [`Counter`]s,
//!   [`Gauge`]s, and log-2-bucketed [`Histogram`]s. Handles are cheap
//!   `Arc`-backed clones: resolve a metric once, then update it with
//!   lock-free atomics from any thread.
//! - [`log`] — a leveled **structured event log** (`error`/`warn`/`info`/
//!   `debug`) emitting one JSON object per line, with key=value fields,
//!   replacing ad-hoc `eprintln!` diagnostics.
//! - [`profile`] — a **span-stack sampling profiler**: a background thread
//!   samples each thread's live span stack at a configurable rate and
//!   aggregates collapsed/folded stacks loadable by speedscope or
//!   inferno. Off by default at the cost of one atomic load per span.
//! - [`history`] — an append-only **run history**: one schema-versioned
//!   JSONL record per telemetry-enabled run (git SHA, command, config
//!   fingerprint, derived metrics, peak RSS, wall time).
//! - [`json`] — a minimal **JSON parser** used by the report tooling and
//!   by tests that round-trip the crate's own JSON output.
//!
//! # Example
//!
//! ```
//! use atspeed_trace as trace;
//!
//! // Spans (instance API; the `trace::span(..)` free function uses a
//! // process-wide tracer that binaries enable with `--trace`).
//! let tracer = trace::Tracer::new();
//! tracer.set_enabled(true);
//! {
//!     let _outer = tracer.span("phase1");
//!     let _inner = tracer.span("fsim");
//! }
//! let json = tracer.chrome_trace_json();
//! assert!(json.contains("\"ph\":\"B\""));
//!
//! // Metrics.
//! let reg = trace::MetricsRegistry::new();
//! reg.counter("podem/aborted").inc();
//! reg.histogram("podem/backtracks").record(17);
//! assert_eq!(reg.counter("podem/aborted").get(), 1);
//!
//! // Structured logs.
//! trace::info!("doc.example", "pipeline done"; circuit = "s27", cycles = 42);
//! ```

// `deny` rather than `forbid`: rss.rs carries one audited `extern "C"`
// getrusage shim behind an explicit `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod history;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod rss;
pub mod span;

pub use history::RunRecord;
pub use log::Level;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKindError, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{validate_folded, Profiler};
pub use span::{
    chrome_trace_json, current_scope, scope, set_tracing, span, span_args, tracing_enabled,
    write_chrome_trace, Span, Tracer, TracerScope,
};

/// Escapes a string for embedding inside a JSON string literal.
///
/// Handles quotes, backslashes, and control characters — the full set JSON
/// requires — without allocating when no escape is needed.
pub(crate) fn json_escape(s: &str) -> std::borrow::Cow<'_, str> {
    if !s
        .chars()
        .any(|c| matches!(c, '"' | '\\') || (c as u32) < 0x20)
    {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn escape_passes_plain_strings_through() {
        assert_eq!(json_escape("phase1-2"), "phase1-2");
        assert!(matches!(
            json_escape("plain"),
            std::borrow::Cow::Borrowed(_)
        ));
    }

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
