//! What every workload measures, and the helpers they share.

use std::time::Instant;

use atspeed_circuit::Netlist;
use atspeed_core::{verify_test_set, ClaimedCoverage, TestSet};
use atspeed_sim::fault::{FaultId, FaultUniverse};

use crate::host;
use crate::report::Checks;
use crate::stats::median;

/// Times of one untraced run plus the output figures of its distinct jobs.
#[derive(Debug, Default)]
pub struct Measured {
    /// Median set-up time.
    pub setup_s: f64,
    /// Wall time of the timed part.
    pub wall_s: f64,
    /// Process CPU time of the timed part.
    pub cpu_s: f64,
    /// Latency of every job in the timed part.
    pub job_ms: Vec<f64>,
    /// Peak resident memory at the end of the timed part.
    pub peak_rss_mib: f64,
    /// Output figures summed over distinct jobs.
    pub quality: Quality,
}

/// The paper's figures of merit, summed over the distinct jobs of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    /// Clock cycles of the compacted sets (Table 3).
    pub comp_cycles: u64,
    /// Faults the final sets detect (Table 1).
    pub detected_faults: u64,
    at_speed_sum: f64,
    jobs: u64,
}

impl Quality {
    /// Adds one distinct job.
    pub fn add(&mut self, comp_cycles: usize, detected: usize, at_speed_avg: f64) {
        self.comp_cycles += comp_cycles as u64;
        self.detected_faults += detected as u64;
        self.at_speed_sum += at_speed_avg;
        self.jobs += 1;
    }

    /// Mean at-speed sequence length over the distinct jobs (Table 4).
    pub fn at_speed_avg(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.at_speed_sum / self.jobs as f64
        }
    }
}

/// A timed part in progress: wall clock and process CPU from its start,
/// less what [`Stopwatch::exclude`] ran.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    excluded: (f64, f64),
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Result<Stopwatch, String> {
        Ok(Stopwatch {
            cpu: host::cpu_seconds()?,
            wall: Instant::now(),
            excluded: (0.0, 0.0),
        })
    }

    /// Runs `f` inside the timed part without counting its wall or CPU time.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> Result<R, String> {
        let (cpu, wall) = (host::cpu_seconds()?, Instant::now());
        let out = f();
        self.excluded.0 += wall.elapsed().as_secs_f64();
        self.excluded.1 += host::cpu_seconds()? - cpu;
        Ok(out)
    }

    /// Stops timing and records wall, CPU and peak memory into `m`.
    pub fn stop(self, m: &mut Measured) -> Result<(), String> {
        m.wall_s = self.wall.elapsed().as_secs_f64() - self.excluded.0;
        m.cpu_s = host::cpu_seconds()? - self.cpu - self.excluded.1;
        m.peak_rss_mib = host::peak_rss_mib()?;
        Ok(())
    }
}

/// Set-up times, kept as blocks of repeated set-ups in groups. Each block
/// is timed as a whole and lasts about 100 ms or more, so no reported time
/// rests on a single timing of a few milliseconds. A group gathers the
/// blocks of one stretch of the run.
#[derive(Debug, Default)]
pub struct SetupClock {
    /// Seconds and set-ups per group; the last group is open.
    groups: Vec<(f64, usize)>,
    open: bool,
}

impl SetupClock {
    /// Runs `setup` `reps` times as one block of the open group and returns
    /// the last result. The previous result is dropped, untimed, before
    /// each set-up, so set-ups do not stack their memory and tearing down
    /// is not counted as setting up.
    pub fn block<T>(
        &mut self,
        reps: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        if !self.open {
            self.groups.push((0.0, 0));
            self.open = true;
        }
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let started = Instant::now();
            last = Some(setup()?);
            let group = self.groups.last_mut().expect("an open group");
            group.0 += started.elapsed().as_secs_f64();
            group.1 += 1;
        }
        Ok(last.expect("at least one set-up"))
    }

    /// Closes the open group; the next block starts a new one.
    pub fn close_group(&mut self) {
        self.open = false;
    }

    /// Runs `groups` groups of one block of `reps` set-ups each and returns
    /// the last result; each block's result is dropped before the next
    /// block starts.
    pub fn groups<T>(
        &mut self,
        groups: usize,
        reps: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..groups.max(1) {
            drop(last.take());
            last = Some(self.block(reps, &mut setup)?);
            self.close_group();
        }
        Ok(last.expect("at least one group"))
    }

    /// Set-ups timed so far.
    pub fn setups(&self) -> usize {
        self.groups.iter().map(|g| g.1).sum()
    }

    /// The median over groups of the mean time of one set-up in the group,
    /// in seconds (0 before the first block).
    pub fn median_s(&self) -> f64 {
        let means: Vec<f64> = self.groups.iter().map(|g| g.0 / g.1 as f64).collect();
        let ms: Vec<String> = means.iter().map(|s| format!("{:.4}", s * 1e3)).collect();
        eprintln!(
            "set-up: {} set-ups; ms per set-up by group: {}",
            self.setups(),
            ms.join(" ")
        );
        median(&means).unwrap_or(0.0)
    }
}

/// Faults of `faults` that `set` detects, by the serial reference engine.
pub fn detected_by(
    nl: &Netlist,
    universe: &FaultUniverse,
    set: &TestSet,
    faults: &[FaultId],
) -> Vec<FaultId> {
    let hits = set.detects(nl, universe, faults);
    faults
        .iter()
        .zip(hits)
        .filter_map(|(f, hit)| hit.then_some(*f))
        .collect()
}

/// The coverage oracle on one finished job: the initial set must detect at
/// least the `claimed` number of faults, and the compacted set every fault
/// the initial set detects (Phase 4 never loses coverage).
pub fn oracle_check(
    checks: &mut Checks,
    label: &str,
    nl: &Netlist,
    initial: &TestSet,
    compacted: &TestSet,
    claimed: usize,
) {
    let universe = FaultUniverse::full(nl);
    let covered = detected_by(nl, &universe, initial, universe.representatives());
    checks.check(covered.len() >= claimed, || {
        format!(
            "{label}: initial set detects {} faults, fewer than the claimed {claimed}",
            covered.len()
        )
    });
    let verdict = verify_test_set(
        nl,
        &universe,
        compacted,
        &ClaimedCoverage::set_only(covered),
    );
    checks.check(verdict.is_ok(), || {
        format!("{label}: coverage oracle rejected the compacted set: {verdict:?}")
    });
}

/// The paper's per-job invariants: compaction never adds cycles, and each
/// phase keeps what the one before it detected.
pub fn invariant_check(
    checks: &mut Checks,
    label: &str,
    init_cycles: usize,
    comp_cycles: usize,
    t0_detected: usize,
    tau_seq_detected: usize,
    final_detected: usize,
) {
    checks.check(comp_cycles <= init_cycles, || {
        format!("{label}: compacted cycles {comp_cycles} exceed initial {init_cycles}")
    });
    checks.check(
        t0_detected <= tau_seq_detected && tau_seq_detected <= final_detected,
        || {
            format!(
                "{label}: detections not monotone: T0 {t0_detected}, tau_seq \
                 {tau_seq_detected}, final {final_detected}"
            )
        },
    );
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// inputs, so input generation never depends on the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_averages_at_speed_over_jobs() {
        let mut q = Quality::default();
        q.add(100, 10, 4.0);
        q.add(50, 5, 6.0);
        assert_eq!((q.comp_cycles, q.detected_faults), (150, 15));
        assert_eq!(q.at_speed_avg(), 5.0);
    }

    #[test]
    fn setup_clock_reports_the_median_group_per_set_up() {
        let mut clock = SetupClock::default();
        let mut calls = 0;
        let mut sleepy = |ms: u64| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(calls)
        };
        // Group 1: two blocks averaging 1 ms; groups 2 and 3: 20 ms each.
        clock.block(3, || sleepy(1)).unwrap();
        clock.block(1, || sleepy(1)).unwrap();
        clock.close_group();
        let last = clock.groups(2, 2, || sleepy(20)).unwrap();
        assert_eq!((last, clock.setups()), (8, 8));
        let secs = clock.median_s();
        assert!((0.02..0.5).contains(&secs), "{secs} s per set-up");
    }

    #[test]
    fn excluded_work_does_not_count() {
        let mut watch = Stopwatch::start().unwrap();
        watch
            .exclude(|| std::thread::sleep(std::time::Duration::from_millis(50)))
            .unwrap();
        let mut m = Measured::default();
        watch.stop(&mut m).unwrap();
        assert!(m.wall_s < 0.04, "{} s", m.wall_s);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!(r.below(3) < 3);
    }
}
