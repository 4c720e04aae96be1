//! The metric catalogue and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric the benchmark emits,
//! with its unit. `BENCHMARK.json` at the repository root declares the
//! same lists; a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("comp_cycles", "cycles"),
    ("detected_faults", "faults"),
    ("at_speed_avg", "vectors"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.parse_ms", "ms"),
    ("circuit.compile_ms", "ms"),
    ("sim.fault_universe_ms", "ms"),
    ("sim.gate_evals", "gate-words"),
    ("sim.events_skipped", "gate-words"),
    ("sim.fsim_invocations", "count"),
    ("sim.gate_evals.phase12", "gate-words"),
    ("sim.gate_evals.phase4", "gate-words"),
    ("sim.cpu_wall_ratio", "ratio"),
    ("atpg.comb_gen_ms", "ms"),
    ("atpg.comb_tests", "tests"),
    ("atpg.podem_calls", "count"),
    ("atpg.podem_backtracks", "count"),
    ("atpg.aborted", "count"),
    ("atpg.t0_gen_ms", "ms"),
    ("atpg.t0_len", "vectors"),
    ("core.phase12_ms", "ms"),
    ("core.tau_seq_len", "vectors"),
    ("core.omission_attempts", "count"),
    ("core.omission_wasted", "count"),
    ("core.phase3_ms", "ms"),
    ("core.phase4_ms", "ms"),
    ("core.phase4_attempts", "count"),
    ("core.phase4_combinations", "count"),
    ("serve.hit_server_ms.p50", "ms"),
    ("serve.miss_server_ms.p50", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.waits", "count"),
    ("serve.computed", "count"),
    ("trace.overhead_pct", "%"),
    ("bench.unattributed_pct", "%"),
    ("host.ref_ms", "ms"),
    ("host.steal_pct", "%"),
];

/// Whether `name` is a legal metric name: it starts with a letter or a
/// digit and is at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Operations attempted and failed: every job and every output check.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; records `what()` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Operations counted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// What failed, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Passed over attempted (1 when nothing was attempted yet).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed()) as f64 / self.attempted as f64
        }
    }
}

/// Renders the final result line. `metrics` must hold exactly the names of
/// `catalogue`; values are printed with every digit they have.
pub fn result_json(
    checks: &Checks,
    catalogue: &[(&str, &str)],
    metrics: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed() == 0,
        checks.attempted().max(1),
        checks.failed()
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]"));
        }
        let value = *metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    if let Some(extra) = metrics
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name} unit {unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name} unit {unit}"
            );
        }
    }

    #[test]
    fn name_rule_rejects_illegal_names() {
        assert!(valid_name("job_ms.p90"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_every_metric_and_rejects_gaps() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        checks.check(false, || "second".to_owned());
        assert_eq!(checks.success_rate(), 0.5);
        let cat = &[("a_s", "s"), ("b", "count")];
        let mut m = BTreeMap::new();
        m.insert("a_s", 1.25);
        assert!(result_json(&checks, cat, &m).is_err(), "b is missing");
        m.insert("b", 3.0);
        let line = result_json(&checks, cat, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        m.insert("c", f64::NAN);
        assert!(
            result_json(&checks, cat, &m).is_err(),
            "c is not catalogued"
        );
    }
}
