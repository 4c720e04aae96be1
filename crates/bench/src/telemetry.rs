//! Shared telemetry plumbing for the bench binaries: the `--trace FILE`,
//! `--metrics-json FILE`, `--profile FILE`, `--history FILE`, and
//! `--log LEVEL` flags.
//!
//! - `--trace FILE` enables span recording for the whole run and writes a
//!   Chrome trace-event JSON on exit — open it at <https://ui.perfetto.dev>
//!   or `chrome://tracing`;
//! - `--metrics-json FILE` writes every counter, gauge, and histogram from
//!   the global registry, plus a small `derived` section with headline
//!   figures computed from the simulation report;
//! - `--profile FILE` runs the span-stack sampling profiler for the whole
//!   run and writes collapsed/folded stacks on exit (speedscope and
//!   `inferno-flamegraph` load the file as-is); `--profile-hz N` tunes the
//!   sampling rate (default 250 Hz);
//! - `--history FILE` overrides where the run-history record is appended
//!   (default `target/bench-history.jsonl`). Every telemetry-enabled run
//!   appends one schema-versioned JSONL record; see
//!   [`atspeed_trace::history`];
//! - `--log LEVEL` sets the structured-log filter (`error`, `warn`,
//!   `info`, `debug`; default `info`).

use std::io;
use std::time::Instant;

use atspeed_sim::stats::SimReport;
use atspeed_trace::history::RunRecord;
use atspeed_trace::Level;

/// Telemetry-related command-line options shared by `tables`, `stress`,
/// `verifier` and `serve`.
#[derive(Debug, Default)]
pub struct TelemetryArgs {
    /// Chrome-trace output path (`--trace`). `None` leaves tracing off.
    pub trace: Option<String>,
    /// Metrics JSON output path (`--metrics-json`).
    pub metrics_json: Option<String>,
    /// Folded-profile output path (`--profile`). `None` leaves the
    /// sampling profiler off.
    pub profile: Option<String>,
    /// Sampling rate override (`--profile-hz`).
    pub profile_hz: Option<u32>,
    /// Run-history path override (`--history`).
    pub history: Option<String>,
    /// Log-level filter (`--log`).
    pub log: Option<Level>,
    /// When [`TelemetryArgs::init`] ran, for the history record's wall
    /// time.
    started: Option<Instant>,
}

impl TelemetryArgs {
    /// Consumes one flag if it is telemetry-related. Returns `Ok(true)`
    /// when `flag` was handled (its value pulled from `it`), `Ok(false)`
    /// when the caller should handle it.
    pub fn consume(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--trace" => {
                self.trace = Some(it.next().ok_or("--trace needs a path")?);
                Ok(true)
            }
            "--metrics-json" => {
                self.metrics_json = Some(it.next().ok_or("--metrics-json needs a path")?);
                Ok(true)
            }
            "--profile" => {
                self.profile = Some(it.next().ok_or("--profile needs a path")?);
                Ok(true)
            }
            "--profile-hz" => {
                let v = it.next().ok_or("--profile-hz needs a rate")?;
                self.profile_hz = Some(
                    v.parse()
                        .ok()
                        .filter(|hz| *hz > 0)
                        .ok_or(format!("bad profile rate `{v}` (positive Hz)"))?,
                );
                Ok(true)
            }
            "--history" => {
                self.history = Some(it.next().ok_or("--history needs a path")?);
                Ok(true)
            }
            "--log" => {
                let v = it.next().ok_or("--log needs a level")?;
                self.log = Some(
                    Level::parse(&v)
                        .ok_or(format!("bad log level `{v}` (error|warn|info|debug)"))?,
                );
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Whether any output was requested — the condition for appending a
    /// run-history record.
    pub fn telemetry_enabled(&self) -> bool {
        self.trace.is_some()
            || self.metrics_json.is_some()
            || self.profile.is_some()
            || self.history.is_some()
    }

    /// Applies the flags that take effect at startup: the log filter,
    /// span recording (when `--trace` was given), and the sampling
    /// profiler (when `--profile` was given). Starts the wall-time clock
    /// for the history record.
    pub fn init(&mut self) {
        self.started = Some(Instant::now());
        if let Some(level) = self.log {
            atspeed_trace::log::set_max_level(level);
        }
        if self.trace.is_some() {
            atspeed_trace::set_tracing(true);
        }
        if self.profile.is_some() {
            let hz = self
                .profile_hz
                .unwrap_or(atspeed_trace::profile::DEFAULT_HZ);
            atspeed_trace::profile::start(hz);
        }
    }

    /// Writes the trace, metrics, and profile files requested on the
    /// command line, and appends the run-history record when any
    /// telemetry output was requested. Call once, after the run's
    /// [`SimReport`] is taken. `sim_threads` is the run's effective
    /// simulation thread count (`None` when the argv already names every
    /// count the run uses); the history fingerprint includes it.
    ///
    /// # Errors
    ///
    /// Propagates the first filesystem error.
    pub fn write_outputs(&self, report: &SimReport, sim_threads: Option<usize>) -> io::Result<()> {
        // Stop the sampler before exporting anything, so no sample lands
        // mid-write.
        if let Some(path) = &self.profile {
            atspeed_trace::profile::stop_and_write(path)?;
            atspeed_trace::info!("bench.telemetry", "wrote folded profile"; path = path);
        }
        if let Some(path) = &self.trace {
            atspeed_trace::write_chrome_trace(path)?;
            atspeed_trace::info!("bench.telemetry", "wrote chrome trace"; path = path);
        }
        if let Some(path) = &self.metrics_json {
            std::fs::write(path, metrics_json_with_derived(report))?;
            atspeed_trace::info!("bench.telemetry", "wrote metrics json"; path = path);
        }
        if self.telemetry_enabled() {
            let path = self
                .history
                .as_deref()
                .unwrap_or(atspeed_trace::history::DEFAULT_PATH);
            let record = self.history_record(report, sim_threads);
            record.append(path)?;
            atspeed_trace::info!("bench.telemetry", "appended run-history record"; path = path);
        }
        Ok(())
    }

    /// The history record for this run: process identity plus the same
    /// derived figures `--metrics-json` exports.
    fn history_record(&self, report: &SimReport, sim_threads: Option<usize>) -> RunRecord {
        let snapshot = atspeed_trace::metrics::global().snapshot();
        let derived = DerivedMetrics::compute(report, &snapshot);
        let mut record = RunRecord::for_current_process(sim_threads);
        record.wall_us = self
            .started
            .map(|s| s.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        record.peak_rss_bytes = derived.peak_rss_bytes;
        record.derived = derived.pairs();
        record
    }
}

/// The headline figures of a run — the `derived` object of
/// `--metrics-json` and the `derived` field of every history record,
/// computed once from the same sources.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedMetrics {
    /// Gate evaluations summed over phases.
    pub gate_evals_total: u64,
    /// Phase wall time summed over phases, µs.
    pub wall_us_total: u64,
    /// Whole-run partition imbalance (see
    /// [`atspeed_sim::stats::PhaseStats::partition_imbalance`]).
    pub partition_imbalance: f64,
    /// Phase-2 vector omission; `None` for a served job (see
    /// [`DerivedMetrics::for_job`]).
    pub omission: Option<OmissionFigures>,
    /// Peak resident set in bytes (0 where unmeasurable).
    pub peak_rss_bytes: u64,
}

/// Phase-2 vector-omission figures, read from the process-global metrics
/// registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OmissionFigures {
    /// Omission attempts (zero when Phase 2 never ran).
    pub attempts_total: u64,
    /// Wall time the omission engine charged itself, µs.
    pub wall_us: u64,
}

impl OmissionFigures {
    /// Attempts per second of omission wall time (0.0 without wall time).
    pub fn attempts_per_sec(&self) -> f64 {
        if self.wall_us > 0 {
            self.attempts_total as f64 / (self.wall_us as f64 / 1e6)
        } else {
            0.0
        }
    }
}

impl DerivedMetrics {
    /// The figures of a whole process run: `report`, plus the omission
    /// counters of `snapshot` (the global registry).
    pub fn compute(
        report: &SimReport,
        snapshot: &atspeed_trace::MetricsSnapshot,
    ) -> DerivedMetrics {
        let job = DerivedMetrics::for_job(report);
        DerivedMetrics {
            omission: Some(OmissionFigures {
                attempts_total: snapshot.counter("omission/attempts").unwrap_or(0),
                wall_us: snapshot.counter("omission/wall_us").unwrap_or(0),
            }),
            // Falls back to whatever a binary recorded explicitly.
            peak_rss_bytes: atspeed_trace::rss::peak_rss_bytes()
                .or_else(|| snapshot.gauge("process/peak_rss_bytes").map(|v| v as u64))
                .unwrap_or(0),
            ..job
        }
    }

    /// The figures of one served job, from the job's own stats `report`
    /// only. The omission counters reach only the process-global
    /// registry, where they sum every job the server has run, so a job's
    /// figures leave them out.
    pub fn for_job(report: &SimReport) -> DerivedMetrics {
        let t = report.totals();
        DerivedMetrics {
            gate_evals_total: t.gate_evals,
            wall_us_total: t.wall.as_micros().min(u128::from(u64::MAX)) as u64,
            partition_imbalance: t.partition_imbalance(),
            omission: None,
            // Measured at export time: the kernel high-water mark only
            // grows, so this is the process's peak so far.
            peak_rss_bytes: atspeed_trace::rss::peak_rss_bytes().unwrap_or(0),
        }
    }

    /// `(name, value)` pairs in schema order, for the history record.
    pub fn pairs(&self) -> Vec<(String, f64)> {
        let mut pairs = vec![
            ("gate_evals_total".into(), self.gate_evals_total as f64),
            ("wall_us_total".into(), self.wall_us_total as f64),
            ("partition_imbalance".into(), self.partition_imbalance),
        ];
        if let Some(om) = self.omission {
            pairs.push(("omission_attempts_total".into(), om.attempts_total as f64));
            pairs.push(("omission_wall_us".into(), om.wall_us as f64));
            pairs.push(("omission_attempts_per_sec".into(), om.attempts_per_sec()));
        }
        pairs.push(("peak_rss_bytes".into(), self.peak_rss_bytes as f64));
        pairs
    }

    /// The body of the `derived` JSON object (no `"derived":` wrapper).
    pub fn to_json_body(&self) -> String {
        let omission = self.omission.map_or(String::new(), |om| {
            format!(
                "\"omission_attempts_total\":{},\"omission_wall_us\":{},\
                 \"omission_attempts_per_sec\":{:.1},",
                om.attempts_total,
                om.wall_us,
                om.attempts_per_sec(),
            )
        });
        format!(
            "\"gate_evals_total\":{},\"wall_us_total\":{},\
             \"partition_imbalance\":{:.3},{omission}\"peak_rss_bytes\":{}",
            self.gate_evals_total,
            self.wall_us_total,
            self.partition_imbalance,
            self.peak_rss_bytes,
        )
    }
}

/// The global metrics registry as JSON, extended with a `derived` object
/// holding the run's headline figures.
pub fn metrics_json_with_derived(report: &SimReport) -> String {
    let snapshot = atspeed_trace::metrics::global().snapshot();
    let base = snapshot.to_json();
    let derived = format!(
        "\"derived\":{{{}}}",
        DerivedMetrics::compute(report, &snapshot).to_json_body()
    );
    // Splice the derived object into the snapshot's top-level JSON object.
    // If the snapshot ever isn't one, fall back to wrapping rather than
    // aborting a run whose results are already computed.
    let trimmed = base.trim_end();
    let Some(body) = trimmed.strip_suffix('}') else {
        return format!("{{\"snapshot\":{trimmed},{derived}}}");
    };
    if body.trim_end().ends_with('{') {
        format!("{body}{derived}}}")
    } else {
        format!("{body},{derived}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn consume_handles_only_telemetry_flags() {
        let mut t = TelemetryArgs::default();
        let mut it = vec!["out.json".to_string()].into_iter();
        assert!(t.consume("--trace", &mut it).unwrap());
        assert_eq!(t.trace.as_deref(), Some("out.json"));
        let mut empty = std::iter::empty();
        assert!(!t.consume("--csv", &mut empty).unwrap());
        assert!(t.consume("--log", &mut empty).is_err());
        let mut lvl = vec!["debug".to_string()].into_iter();
        assert!(t.consume("--log", &mut lvl).unwrap());
        assert_eq!(t.log, Some(Level::Debug));
    }

    #[test]
    fn consume_handles_profile_and_history_flags() {
        let mut t = TelemetryArgs::default();
        assert!(!t.telemetry_enabled());
        let mut it = vec!["prof.folded".to_string()].into_iter();
        assert!(t.consume("--profile", &mut it).unwrap());
        assert_eq!(t.profile.as_deref(), Some("prof.folded"));
        assert!(t.telemetry_enabled());
        let mut hz = vec!["500".to_string()].into_iter();
        assert!(t.consume("--profile-hz", &mut hz).unwrap());
        assert_eq!(t.profile_hz, Some(500));
        let mut bad = vec!["zero".to_string()].into_iter();
        assert!(t.consume("--profile-hz", &mut bad).is_err());
        let mut hist = vec!["runs.jsonl".to_string()].into_iter();
        assert!(t.consume("--history", &mut hist).unwrap());
        assert_eq!(t.history.as_deref(), Some("runs.jsonl"));
    }

    #[test]
    fn derived_section_is_spliced_into_valid_json() {
        let mut report = SimReport::default();
        report.phases.push((
            "p".into(),
            atspeed_sim::stats::PhaseStats {
                gate_evals: 1000,
                wall: Duration::from_millis(10),
                ..Default::default()
            },
        ));
        let json = metrics_json_with_derived(&report);
        assert!(json.contains("\"derived\""));
        assert!(json.contains("\"gate_evals_total\":1000"));
        assert!(json.contains("\"wall_us_total\":10000"));
        assert!(json.contains("\"omission_attempts_per_sec\""));
        assert!(json.contains("\"peak_rss_bytes\""));
        // Balanced braces — cheap structural sanity check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        atspeed_trace::json::parse(&json).expect("metrics JSON parses");
    }

    #[test]
    fn history_record_carries_the_derived_figures() {
        let mut t = TelemetryArgs::default();
        t.init();
        let mut report = SimReport::default();
        report.phases.push((
            "p".into(),
            atspeed_sim::stats::PhaseStats {
                gate_evals: 500,
                wall: Duration::from_millis(5),
                ..Default::default()
            },
        ));
        let record = t.history_record(&report, Some(1));
        assert_eq!(record.schema, atspeed_trace::history::SCHEMA_VERSION);
        let get = |name: &str| {
            record
                .derived
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("gate_evals_total"), Some(500.0));
        assert_eq!(get("wall_us_total"), Some(5000.0));
        assert!(get("peak_rss_bytes").is_some());
        atspeed_trace::json::parse(&record.to_json_line()).expect("record parses");
    }
}
