//! Append-only run history: one schema-versioned JSONL record per
//! telemetry-enabled run.
//!
//! Benchmark baselines (`BENCH_*.json`) are frozen single points; the
//! history file is the trajectory between them. Every run that exports
//! telemetry appends one [`RunRecord`] line to
//! `target/bench-history.jsonl` (override with `--history PATH`) carrying
//! the git revision, the command line, a config fingerprint, every
//! `derived.*` headline metric, peak RSS, and wall time — enough for the
//! `report` binary to draw throughput/RSS trends across commits and for
//! CI to archive the series as an artifact.
//!
//! The format is JSON Lines so appends are atomic at line granularity,
//! partial files stay readable, and records from different machines
//! concatenate. [`SCHEMA_VERSION`] is bumped on any field
//! removal/renaming; consumers skip records with a newer major schema
//! than they understand (additions are non-breaking).

use std::io::Write;
use std::path::Path;

/// Version stamped into every record's `schema` field.
pub const SCHEMA_VERSION: u64 = 1;

/// The default history path, relative to the working directory.
pub const DEFAULT_PATH: &str = "target/bench-history.jsonl";

/// One run's history entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Schema version ([`SCHEMA_VERSION`] for records this code writes).
    pub schema: u64,
    /// Seconds since the Unix epoch when the record was written.
    pub unix_time_s: u64,
    /// Git revision of the working tree, `"unknown"` outside a checkout.
    pub git_sha: String,
    /// The command line that produced the run (binary name + args).
    pub command: String,
    /// FNV-1a fingerprint of the effective configuration (the argv and
    /// the simulation thread count, see [`config_fingerprint`]); runs with
    /// equal fingerprints are directly comparable.
    pub config_fingerprint: String,
    /// Whole-run wall time in microseconds.
    pub wall_us: u64,
    /// Peak resident set in bytes (0 where unmeasurable).
    pub peak_rss_bytes: u64,
    /// The `derived.*` headline metrics, name -> value, as exported into
    /// the metrics JSON.
    pub derived: Vec<(String, f64)>,
}

impl RunRecord {
    /// Starts a record for the current process: schema, wall-clock time,
    /// git revision, command line, and config fingerprint are filled in;
    /// metrics fields start zeroed/empty. `sim_threads` is the run's
    /// effective simulation thread count, `None` for a run that has none.
    pub fn for_current_process(sim_threads: Option<usize>) -> RunRecord {
        let argv: Vec<String> = std::env::args().collect();
        let command = command_line(&argv);
        RunRecord {
            schema: SCHEMA_VERSION,
            unix_time_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            git_sha: git_sha(),
            config_fingerprint: config_fingerprint(&argv, sim_threads),
            command,
            wall_us: 0,
            peak_rss_bytes: 0,
            derived: Vec::new(),
        }
    }

    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{},\"unix_time_s\":{},\"git_sha\":\"{}\",\
             \"command\":\"{}\",\"config_fingerprint\":\"{}\",\
             \"wall_us\":{},\"peak_rss_bytes\":{},\"derived\":{{",
            self.schema,
            self.unix_time_s,
            crate::json_escape(&self.git_sha),
            crate::json_escape(&self.command),
            crate::json_escape(&self.config_fingerprint),
            self.wall_us,
            self.peak_rss_bytes,
        );
        for (i, (name, value)) in self.derived.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Format finite values plainly; JSON has no NaN/Inf.
            let v = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!("\"{}\":{v:.1}", crate::json_escape(name)));
        }
        out.push_str("}}");
        out
    }

    /// Appends the record to the JSONL file at `path`, creating parent
    /// directories and the file as needed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn append(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json_line())
    }
}

/// `binary-name arg1 arg2 ...` with the binary's directory stripped.
fn command_line(argv: &[String]) -> String {
    let mut parts: Vec<&str> = Vec::with_capacity(argv.len());
    if let Some(first) = argv.first() {
        parts.push(
            Path::new(first)
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(first),
        );
    }
    parts.extend(argv.iter().skip(1).map(String::as_str));
    parts.join(" ")
}

/// The current git revision: `GITHUB_SHA` when CI provides it, else
/// `git rev-parse HEAD`, else `"unknown"`.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_owned();
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The config fingerprint of a run: its argv, plus the effective
/// simulation thread count when it has one. A binary may take that count
/// from the environment (`SIM_THREADS`) rather than from its argv, and
/// runs at different counts do not time alike, so their trend lines must
/// not mix.
pub fn config_fingerprint(argv: &[String], sim_threads: Option<usize>) -> String {
    match sim_threads {
        None => fingerprint(argv),
        Some(n) => {
            let mut parts = argv.to_vec();
            parts.push(format!("sim_threads={n}"));
            fingerprint(&parts)
        }
    }
}

/// A 64-bit FNV-1a fingerprint of the argv (order-sensitive, rendered as
/// 16 hex digits). Cheap, stable across platforms, and collision-safe at
/// the "group comparable runs" granularity it serves.
pub fn fingerprint(args: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in args {
        for b in a.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab","c"] and ["a","bc"] differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn record() -> RunRecord {
        RunRecord {
            schema: SCHEMA_VERSION,
            unix_time_s: 1_700_000_000,
            git_sha: "abc123".into(),
            command: "tables --quick \"x\"".into(),
            config_fingerprint: fingerprint(&["tables".into(), "--quick".into()]),
            wall_us: 1234,
            peak_rss_bytes: 5 << 20,
            derived: vec![
                ("gate_evals_total".into(), 2.5e7),
                ("peak_rss_bytes".into(), (5 << 20) as f64),
            ],
        }
    }

    #[test]
    fn record_renders_parseable_schema_versioned_json() {
        let line = record().to_json_line();
        let v = parse(&line).expect("record parses");
        assert_eq!(
            v.get("schema").and_then(Value::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(v.get("git_sha").and_then(Value::as_str), Some("abc123"));
        assert_eq!(
            v.get("command").and_then(Value::as_str),
            Some("tables --quick \"x\""),
            "quotes in the command escape and round-trip"
        );
        assert_eq!(v.get("wall_us").and_then(Value::as_u64), Some(1234));
        let derived = v.get("derived").expect("derived object");
        assert_eq!(
            derived.get("gate_evals_total").and_then(Value::as_f64),
            Some(2.5e7)
        );
        assert!(!line.contains('\n'), "one record, one line");
    }

    #[test]
    fn append_accumulates_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "atspeed-history-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join("nested/history.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        record().append(&path).unwrap();
        record().append(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 2, "two appends, two records");
        for l in lines {
            parse(l).expect("every line parses");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_arg_boundaries() {
        let a = fingerprint(&["ab".into(), "c".into()]);
        let b = fingerprint(&["a".into(), "bc".into()]);
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert_eq!(a, fingerprint(&["ab".into(), "c".into()]), "stable");
    }

    #[test]
    fn config_fingerprint_tells_thread_counts_apart() {
        let argv: Vec<String> = vec!["stress".into(), "--faults".into(), "128".into()];
        let one = config_fingerprint(&argv, Some(1));
        let four = config_fingerprint(&argv, Some(4));
        assert_ne!(
            one, four,
            "SIM_THREADS=1 and =4 runs must not share a trend line"
        );
        assert_eq!(
            one,
            config_fingerprint(&argv, Some(1)),
            "equal settings agree"
        );
        assert_eq!(config_fingerprint(&argv, None), fingerprint(&argv));
        assert_ne!(config_fingerprint(&argv, None), one);
    }

    #[test]
    fn current_process_record_is_filled_in() {
        let r = RunRecord::for_current_process(Some(2));
        assert_eq!(r.schema, SCHEMA_VERSION);
        assert!(!r.command.is_empty());
        assert_eq!(r.config_fingerprint.len(), 16);
        assert!(!r.git_sha.is_empty());
        parse(&r.to_json_line()).expect("parses");
    }
}
