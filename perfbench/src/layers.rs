//! Per-layer figures of a traced run.
//!
//! Times come from two sources. Calls the benchmark makes itself (parse,
//! compile, the fault universe, and the `stress` workload's phase calls)
//! run inside the benchmark's own spans. `Pipeline::run` is a single call,
//! so the `catalog` workload wraps it in a `job` span and takes its phase
//! times from the job's [`stats::SimReport`], which times every phase the
//! pipeline enters. Counts come from the same report, from the program's
//! process-global metrics and from the results themselves.

use std::collections::BTreeMap;
use std::time::Instant;

use atspeed_sim::stats::{self, SimReport, StatsScope};

use crate::host;
use crate::trace::Tracer;

/// Per-layer figures summed over jobs, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to the metric `name`.
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// Spans the benchmark wraps around layer calls, and the per-layer metric
/// their self time feeds.
const LAYER_SPANS: [(&str, &str); 6] = [
    ("circuit.parse", "circuit.parse_ms"),
    ("circuit.compile", "circuit.compile_ms"),
    ("sim.fault_universe", "sim.fault_universe_ms"),
    ("core.phase12", "core.phase12_ms"),
    ("core.phase3", "core.phase3_ms"),
    ("core.phase4", "core.phase4_ms"),
];

/// Phases `Pipeline::run` enters (its `stats::set_phase` labels), and the
/// per-layer metric their wall time feeds.
const PIPELINE_PHASES: [(&str, &str); 5] = [
    ("comb-gen", "atpg.comb_gen_ms"),
    ("t0-gen", "atpg.t0_gen_ms"),
    ("phase1-2", "core.phase12_ms"),
    ("phase3", "core.phase3_ms"),
    ("phase4", "core.phase4_ms"),
];

/// Layer times measured inside job spans; what they leave of the jobs'
/// wall time is `bench.unattributed_pct`. On `catalog` that includes the
/// fault universe `Pipeline::run` builds before its first phase, which
/// `sim.fault_universe_ms` times with a separate build outside the job.
const JOB_TIMES: [&str; 5] = [
    "atpg.comb_gen_ms",
    "atpg.t0_gen_ms",
    "core.phase12_ms",
    "core.phase3_ms",
    "core.phase4_ms",
];

/// Adds the wall time of each pipeline phase in `report` to its metric.
pub fn add_phase_walls(layers: &mut Layers, report: &SimReport) {
    for (phase, s) in &report.phases {
        if let Some((_, metric)) = PIPELINE_PHASES.iter().find(|(p, _)| p == phase) {
            add(layers, metric, s.wall.as_secs_f64() * 1e3);
        }
    }
}

/// The program's process-global counters a layer figure is taken from.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    podem_calls: u64,
    podem_backtracks: u64,
    podem_aborted: u64,
    omission_attempts: u64,
    omission_wasted: u64,
}

impl Counters {
    /// The counters now.
    pub fn now() -> Counters {
        let snap = atspeed_trace::metrics::global().snapshot();
        let (podem_calls, podem_backtracks) = snap
            .histogram("podem/backtracks")
            .map_or((0, 0), |h| (h.count, h.sum));
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        Counters {
            podem_calls,
            podem_backtracks,
            podem_aborted: counter("podem/aborted"),
            omission_attempts: counter("omission/attempts"),
            omission_wasted: counter("omission/wasted"),
        }
    }

    /// Adds what the counters grew by since `self`.
    pub fn add_since(&self, layers: &mut Layers) {
        let now = Counters::now();
        let grown = |a: u64, b: u64| b.saturating_sub(a) as f64;
        add(
            layers,
            "atpg.podem_calls",
            grown(self.podem_calls, now.podem_calls),
        );
        add(
            layers,
            "atpg.podem_backtracks",
            grown(self.podem_backtracks, now.podem_backtracks),
        );
        add(
            layers,
            "atpg.aborted",
            grown(self.podem_aborted, now.podem_aborted),
        );
        add(
            layers,
            "core.omission_attempts",
            grown(self.omission_attempts, now.omission_attempts),
        );
        add(
            layers,
            "core.omission_wasted",
            grown(self.omission_wasted, now.omission_wasted),
        );
    }
}

/// What one traced job is measured by: a private stats scope, the
/// program's counters, and the process CPU and wall clocks.
pub struct JobProbe {
    scope: StatsScope,
    counters: Counters,
    cpu: f64,
    wall: Instant,
}

impl JobProbe {
    /// Opens the job's stats scope and reads the counters and clocks.
    pub fn start() -> Result<JobProbe, String> {
        Ok(JobProbe {
            scope: stats::scoped(),
            counters: Counters::now(),
            cpu: host::cpu_seconds()?,
            wall: Instant::now(),
        })
    }

    /// Adds the job's simulation work and counter growth to `layers` and
    /// its process CPU and wall seconds to `cpu_wall`; returns the job's
    /// stats report.
    pub fn finish(
        self,
        layers: &mut Layers,
        cpu_wall: &mut (f64, f64),
    ) -> Result<SimReport, String> {
        cpu_wall.1 += self.wall.elapsed().as_secs_f64();
        cpu_wall.0 += host::cpu_seconds()? - self.cpu;
        self.counters.add_since(layers);
        let report = self.scope.report();
        let totals = report.totals();
        add(layers, "sim.gate_evals", totals.gate_evals as f64);
        add(layers, "sim.events_skipped", totals.events_skipped as f64);
        add(
            layers,
            "sim.fsim_invocations",
            totals.fsim_invocations as f64,
        );
        for (phase, s) in &report.phases {
            match phase.as_str() {
                "phase1-2" => add(layers, "sim.gate_evals.phase12", s.gate_evals as f64),
                "phase4" => add(layers, "sim.gate_evals.phase4", s.gate_evals as f64),
                _ => {}
            }
        }
        Ok(report)
    }
}

/// What a traced `catalog` or `stress` run recorded.
pub struct TracedRun<'a> {
    /// Spans of every set-up.
    pub setup: &'a Tracer,
    /// Set-ups the `setup` spans cover.
    pub setups: usize,
    /// Spans of the traced rounds (jobs), each job under a `job` span.
    pub jobs: &'a Tracer,
    /// Traced rounds (jobs); every one has an untraced partner.
    pub pairs: usize,
    /// Figures summed over the traced rounds.
    pub counts: Layers,
    /// Process CPU and wall seconds of the traced jobs.
    pub cpu_wall: (f64, f64),
    /// Wall milliseconds of the traced rounds and of their untraced partners.
    pub paired_ms: (f64, f64),
}

impl TracedRun<'_> {
    /// Per-layer figures: set-up times per set-up, everything else per
    /// traced round (job), plus the run's attribution and overhead figures.
    pub fn layers(self) -> Layers {
        let mut layers = self.counts;
        for (span, ms) in self.jobs.self_ms() {
            if let Some((_, metric)) = LAYER_SPANS.iter().find(|(s, _)| *s == span) {
                add(&mut layers, metric, ms);
            }
        }
        let job_ms = self.jobs.total_ms("job");
        let attributed: f64 = JOB_TIMES.iter().filter_map(|m| layers.get(m)).sum();
        for v in layers.values_mut() {
            *v /= self.pairs as f64;
        }
        for (span, ms) in self.setup.self_ms() {
            if let Some((_, metric)) = LAYER_SPANS.iter().find(|(s, _)| *s == span) {
                add(&mut layers, metric, ms / self.setups as f64);
            }
        }
        add(
            &mut layers,
            "bench.unattributed_pct",
            100.0 * (job_ms - attributed) / job_ms,
        );
        add(
            &mut layers,
            "sim.cpu_wall_ratio",
            self.cpu_wall.0 / self.cpu_wall.1,
        );
        let (traced, untraced) = self.paired_ms;
        add(
            &mut layers,
            "trace.overhead_pct",
            100.0 * (traced / untraced - 1.0),
        );
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unattributed_time_is_job_time_outside_layer_figures() {
        let epoch = Instant::now();
        let mut jobs = Tracer::new(true, epoch);
        jobs.span("job", |t| {
            t.span("core.phase12", |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
            std::thread::sleep(Duration::from_millis(20));
        });
        let setup = Tracer::new(true, epoch);
        let mut counts = Layers::new();
        add(&mut counts, "core.omission_attempts", 6.0);
        let layers = TracedRun {
            setup: &setup,
            setups: 1,
            jobs: &jobs,
            pairs: 2,
            counts,
            cpu_wall: (1.0, 2.0),
            paired_ms: (110.0, 100.0),
        }
        .layers();
        assert_eq!(layers["core.omission_attempts"], 3.0, "per traced job");
        assert!(layers["core.phase12_ms"] >= 10.0);
        let unattributed = layers["bench.unattributed_pct"];
        assert!((30.0..70.0).contains(&unattributed), "{unattributed}%");
        assert_eq!(layers["sim.cpu_wall_ratio"], 0.5);
        assert!((layers["trace.overhead_pct"] - 10.0).abs() < 1e-9);
    }
}
