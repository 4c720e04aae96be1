//! What the host tells the benchmark about itself: process CPU time, peak
//! resident memory, hypervisor steal time, and the speed of a fixed
//! reference loop. All of it comes from `/proc` or from the benchmark's
//! own code, never from the program under test.

use std::hint::black_box;
use std::time::Instant;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Process user + system CPU time in seconds, all threads included
/// (threads that already exited too).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // Field 2 (`comm`) may contain spaces; the fields after its closing
    // parenthesis start at field 3 (`state`). utime and stime are fields
    // 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// Machine-wide CPU tick counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the counters now.
    pub fn now() -> Result<CpuTicks, String> {
        parse_cpu_ticks(&read("/proc/stat")?)
    }

    /// Share of machine CPU time stolen by the hypervisor between `self`
    /// and `later`, in percent.
    pub fn steal_pct_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        let steal = later.steal.saturating_sub(self.steal);
        if total == 0 {
            0.0
        } else {
            100.0 * steal as f64 / total as f64
        }
    }
}

fn parse_cpu_ticks(stat: &str) -> Result<CpuTicks, String> {
    let line = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("no cpu line in /proc/stat")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().map_err(|_| format!("bad /proc/stat field `{x}`")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so it is left out of the total.
    let total = v.iter().take(8).sum();
    let steal = *v.get(7).ok_or("short cpu line in /proc/stat")?;
    Ok(CpuTicks { total, steal })
}

/// Milliseconds taken by a fixed integer loop that touches no memory. Its
/// work never changes, so a change in its time is a change in the host
/// (frequency, contention, steal), not in the program.
pub fn reference_loop_ms() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..black_box(40_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_from_proc_stat_lines() {
        let a = parse_cpu_ticks("cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3\n").unwrap();
        let b = parse_cpu_ticks("cpu  200 0 100 1600 0 0 0 100 0 0\n").unwrap();
        assert!((a.steal_pct_until(&b) - 5.0).abs() < 1e-12);
        assert!(parse_cpu_ticks("cpu0 1 2\n").is_err());
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        let t = CpuTicks::now().unwrap();
        assert_eq!(t.steal_pct_until(&t), 0.0);
        assert!(reference_loop_ms() > 0.0);
    }
}
