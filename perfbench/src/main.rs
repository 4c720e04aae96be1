//! The atspeed benchmark: one command that runs a workload in a single
//! process, checks its outputs and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload catalog|stress|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run, whose spans are also written to
//! `perfbench/out/trace-<workload>-<seed>.json`. Human-readable detail goes
//! to standard error. See `perfbench/README.md`.

mod catalog;
mod host;
mod layers;
mod report;
mod run;
mod serve;
mod stats;
mod stress;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use layers::Layers;
use report::{result_json, Checks, END_TO_END, PER_LAYER};
use run::Measured;
use trace::Tracer;

/// What a workload run returns: its end-to-end measurements, its per-layer
/// figures (traced runs only), its checks and its spans.
pub type RunOutput = (Measured, Layers, Checks, Tracer);

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2001;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `catalog`, `stress` or `serve`.
    pub name: String,
    /// Drives every generated input.
    pub seed: u64,
    /// Nominal length of the timed part.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Workload, String> {
    let mut w = Workload {
        name: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => w.name = value()?.clone(),
            "--seed" => {
                let v = value()?;
                w.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                w.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or(format!("bad --seconds `{v}` (expected 0 < s <= 120)"))?;
            }
            "--trace" => {
                w.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !matches!(w.name.as_str(), "catalog" | "stress" | "serve") {
        return Err(format!(
            "--workload must be catalog, stress or serve (got `{}`)",
            w.name
        ));
    }
    Ok(w)
}

/// Runs the workload `w` names.
fn run_workload(w: &Workload) -> Result<RunOutput, String> {
    match w.name.as_str() {
        "catalog" => catalog::run(w),
        "stress" => stress::run(w),
        _ => serve::run(w),
    }
}

/// The per-layer metrics the workload `name` never measures.
fn unmeasured(name: &str) -> &'static [&'static str] {
    match name {
        "catalog" => catalog::UNMEASURED,
        "stress" => stress::UNMEASURED,
        _ => serve::UNMEASURED,
    }
}

/// Runs the workload and returns the final JSON line.
fn execute(w: &Workload) -> Result<String, String> {
    let ref_before = host::reference_loop_ms();
    let ticks_before = host::CpuTicks::now()?;
    let (m, layers, checks, tracer) = run_workload(w)?;
    let steal = ticks_before.steal_pct_until(&host::CpuTicks::now()?);
    let ref_after = host::reference_loop_ms();

    for failure in checks.failures() {
        eprintln!("check failed: {failure}");
    }
    if w.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", w.name, w.seed));
        write_trace(&tracer, &path);
        per_layer_line(
            &w.name,
            layers,
            &checks,
            (ref_before + ref_after) / 2.0,
            steal,
        )
    } else {
        eprintln!(
            "host: reference loop {ref_before:.1} ms before, {ref_after:.1} ms after; steal {steal:.2}%"
        );
        end_to_end_line(&m, &checks)
    }
}

fn end_to_end_line(m: &Measured, checks: &Checks) -> Result<String, String> {
    let metrics = end_to_end(m, checks)?;
    describe(&metrics);
    result_json(checks, END_TO_END, &metrics)
}

/// The traced run's line: the workload's layer figures, the host readings,
/// and 0 for each metric the workload never measures. Any other metric
/// that is missing makes the line an error.
fn per_layer_line(
    workload: &str,
    mut layers: Layers,
    checks: &Checks,
    ref_ms: f64,
    steal_pct: f64,
) -> Result<String, String> {
    layers.insert("host.ref_ms", ref_ms);
    layers.insert("host.steal_pct", steal_pct);
    for &name in unmeasured(workload) {
        if layers.insert(name, 0.0).is_some() {
            return Err(format!(
                "{workload} measured {name}, which it lists as unmeasured"
            ));
        }
    }
    describe(&layers);
    result_json(checks, PER_LAYER, &layers)
}

fn end_to_end(m: &Measured, checks: &Checks) -> Result<BTreeMap<&'static str, f64>, String> {
    let p50 = stats::median(&m.job_ms).ok_or("no job completed")?;
    let p90 = stats::percentile(&m.job_ms, 0.9).ok_or("no job completed")?;
    if let Some((q1, q3)) = stats::quartiles(&m.job_ms) {
        eprintln!(
            "jobs: {} (quartiles {q1:.1} ms and {q3:.1} ms)",
            m.job_ms.len()
        );
    }
    if stats::tail_percentile(&m.job_ms, 0.9).is_none() {
        eprintln!(
            "note: job_ms.p90 rests on {} jobs, fewer than ten of them beyond it",
            m.job_ms.len()
        );
    }
    Ok(BTreeMap::from([
        ("setup_s", m.setup_s),
        ("wall_s", m.wall_s),
        ("cpu_s", m.cpu_s),
        ("job_ms.p50", p50),
        ("job_ms.p90", p90),
        ("peak_rss_mb", m.peak_rss_mib),
        ("comp_cycles", m.quality.comp_cycles as f64),
        ("detected_faults", m.quality.detected_faults as f64),
        ("at_speed_avg", m.quality.at_speed_avg()),
        ("success_rate", checks.success_rate()),
    ]))
}

fn write_trace(tracer: &Tracer, path: &std::path::Path) {
    match tracer.write_chrome(path) {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn describe(metrics: &BTreeMap<&'static str, f64>) {
    for (name, value) in metrics {
        eprintln!("{name:>28} = {value}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let w = match parse_args(&args) {
        Ok(w) => w,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match execute(&w) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_trace::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn catalogue(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_emitted_metrics() {
        let m = manifest();
        assert_eq!(listed(&m, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), catalogue(PER_LAYER));
        for e in m.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = e.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{e:?}");
            let better = e.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "lower" || better == "higher", "{e:?}");
        }
    }

    #[test]
    fn unmeasured_lists_name_distinct_per_layer_metrics() {
        for wl in ["catalog", "stress", "serve"] {
            let list = unmeasured(wl);
            for (i, name) in list.iter().enumerate() {
                assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{wl}: {name}");
                assert!(!list[..i].contains(name), "{wl}: {name} twice");
            }
        }
    }

    /// Runs every workload of `BENCHMARK.json` traced, at its smallest
    /// size, and checks that both result lines carry every metric the
    /// manifest lists. Takes about a minute in a release build, so a debug
    /// build skips it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow; run with cargo test --release")]
    fn every_workload_emits_every_metric_in_the_manifest() {
        let m = manifest();
        let workloads = m.get("workloads").and_then(Value::as_arr).unwrap();
        assert!(!workloads.is_empty());
        for wl in workloads {
            let name = wl.get("name").and_then(Value::as_str).unwrap();
            let args: Vec<String> = [
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                "1",
            ]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
            let w = parse_args(&args).unwrap_or_else(|e| panic!("{name}: {e}"));
            let (measured, layers, checks, _) =
                run_workload(&w).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(checks.failures(), &[] as &[String], "{name}");
            let lines = [
                (END_TO_END, end_to_end_line(&measured, &checks)),
                (PER_LAYER, per_layer_line(name, layers, &checks, 1.0, 0.0)),
            ];
            for (catalogue, line) in lines {
                let line = line.unwrap_or_else(|e| panic!("{name}: {e}"));
                let metrics = json::parse(&line).unwrap();
                let metrics = metrics.get("metrics").unwrap();
                for (metric, unit) in catalogue {
                    let got = metrics.get(metric).and_then(|v| v.get("unit"));
                    assert_eq!(got.and_then(Value::as_str), Some(*unit), "{name}: {metric}");
                }
            }
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "catalog"]).is_ok());
        assert!(parse(&["--workload", "other"]).is_err());
        assert!(parse(&["--workload", "serve", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "serve", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "serve", "--seed"]).is_err());
        assert!(parse(&["--workload", "serve", "--bogus", "1"]).is_err());
    }
}
