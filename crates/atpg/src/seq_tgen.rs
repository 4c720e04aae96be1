//! Sequential test-sequence generation (the paper's `T_0`).
//!
//! The paper takes `T_0` from STRATEGATE \[10\] (ISCAS-89) or PROPTEST \[12\]
//! (ITC-99), both closed-source simulation-based sequential ATPG tools, and
//! also evaluates plain random sequences of length 1000 (Table 5). This
//! module provides three substitutes with the same interface contract —
//! a primary-input sequence applied from the unknown initial state, no scan:
//!
//! - [`random_t0`] — uniform random vectors (the Table 5 configuration);
//! - [`directed_t0`] — STRATEGATE-style greedy simulation-based search:
//!   each step appends the candidate vector that newly detects the most
//!   target faults (with a cheap activity tie-break), tracked by the
//!   incremental parallel-fault simulator [`IncrementalSim`];
//! - [`property_t0`] — PROPTEST-style burst generation: random bursts are
//!   kept only when they detect new faults, otherwise rolled back.

use atspeed_circuit::Netlist;
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{IncrementalSim, Sequence, V3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The longest `T_0` a front end accepts for [`random_t0`], which
/// allocates every vector up front: a failed allocation aborts the process
/// rather than failing the request, so lengths are bounded before any work.
pub const MAX_T0_LEN: usize = 65_536;

/// Generates a uniform random binary sequence of `len` vectors.
pub fn random_t0(nl: &Netlist, len: usize, seed: u64) -> Sequence {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            (0..nl.num_pis())
                .map(|_| V3::from_bool(rng.gen()))
                .collect()
        })
        .collect()
}

/// Configuration for [`directed_t0`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectedConfig {
    /// Hard length cap for the sequence.
    pub max_len: usize,
    /// Candidate vectors evaluated per step.
    pub candidates: usize,
    /// Stop after this many consecutive detection-free steps.
    pub plateau_limit: usize,
    /// Fault-group sample size used to score candidates (the chosen vector
    /// is still applied to every group).
    pub sample_groups: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DirectedConfig {
    fn default() -> Self {
        DirectedConfig {
            max_len: 1024,
            candidates: 8,
            plateau_limit: 40,
            sample_groups: 8,
            seed: 2,
        }
    }
}

/// Configuration for [`property_t0`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropertyConfig {
    /// Vectors per burst.
    pub burst: usize,
    /// Hard length cap for the sequence.
    pub max_len: usize,
    /// Stop after this many consecutive rejected bursts.
    pub stale_bursts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PropertyConfig {
    fn default() -> Self {
        PropertyConfig {
            burst: 16,
            max_len: 1024,
            stale_bursts: 12,
            seed: 3,
        }
    }
}

/// STRATEGATE-style directed generation: greedy candidate selection by
/// simulated fault detections, with a state-activity tie-break and a
/// plateau cutoff.
pub fn directed_t0(
    nl: &Netlist,
    universe: &FaultUniverse,
    targets: &[FaultId],
    cfg: &DirectedConfig,
) -> Sequence {
    let _sp = atspeed_trace::span("t0.directed");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut inc = IncrementalSim::new(nl, universe, targets);
    let mut seq = Sequence::new();
    let mut plateau = 0usize;
    let steps = atspeed_trace::metrics::global().counter("tgen/directed_steps");
    while seq.len() < cfg.max_len && plateau < cfg.plateau_limit && !inc.all_detected() {
        steps.inc();
        let cands: Vec<Vec<V3>> = (0..cfg.candidates.max(1))
            .map(|_| {
                (0..nl.num_pis())
                    .map(|_| V3::from_bool(rng.gen()))
                    .collect()
            })
            .collect();
        let scores = inc.score_batch(&cands, cfg.sample_groups.max(1));
        let chosen = pick_best(cands, &scores);
        let newly = inc.apply(&chosen);
        seq.push(chosen);
        plateau = if newly == 0 { plateau + 1 } else { 0 };
    }
    seq
}

/// The first candidate with lexicographically maximal `(detections,
/// activity)` — the same winner the historical strictly-better scan picked.
pub fn pick_best(cands: Vec<Vec<V3>>, scores: &[(usize, usize)]) -> Vec<V3> {
    assert!(!cands.is_empty(), "at least one candidate");
    let mut k = 0;
    for i in 1..scores.len() {
        if scores[i] > scores[k] {
            k = i;
        }
    }
    cands.into_iter().nth(k).expect("index in range")
}

/// PROPTEST-style burst generation: append a random burst only when it
/// detects at least one new fault, otherwise roll the machine states back.
pub fn property_t0(
    nl: &Netlist,
    universe: &FaultUniverse,
    targets: &[FaultId],
    cfg: &PropertyConfig,
) -> Sequence {
    let _sp = atspeed_trace::span("t0.property");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut inc = IncrementalSim::new(nl, universe, targets);
    let mut seq = Sequence::new();
    let mut stale = 0usize;
    let m = atspeed_trace::metrics::global();
    let kept = m.counter("tgen/property_bursts_kept");
    let rolled_back = m.counter("tgen/property_bursts_rolled_back");
    while seq.len() < cfg.max_len && stale < cfg.stale_bursts && !inc.all_detected() {
        let burst_len = cfg.burst.max(1).min(cfg.max_len - seq.len());
        let burst: Vec<Vec<V3>> = (0..burst_len)
            .map(|_| {
                (0..nl.num_pis())
                    .map(|_| V3::from_bool(rng.gen()))
                    .collect()
            })
            .collect();
        inc.checkpoint();
        let mut newly = 0usize;
        for v in &burst {
            newly += inc.apply(v);
        }
        if newly == 0 {
            // Roll back: the burst added nothing.
            inc.rollback();
            stale += 1;
            rolled_back.inc();
        } else {
            for v in burst {
                seq.push(v);
            }
            stale = 0;
            kept.inc();
        }
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_sim::SeqFaultSim;

    fn count_detected(nl: &Netlist, u: &FaultUniverse, seq: &Sequence) -> usize {
        let mut fsim = SeqFaultSim::new(nl);
        let init = vec![V3::X; nl.num_ffs()];
        fsim.detect(&init, seq, u.representatives(), u, false)
            .iter()
            .filter(|&&d| d)
            .count()
    }

    #[test]
    fn random_t0_has_requested_shape() {
        let nl = s27();
        let seq = random_t0(&nl, 100, 7);
        assert_eq!(seq.len(), 100);
        assert_eq!(seq.vector(0).len(), 4);
        assert!(seq.iter().all(|v| v.iter().all(|x| x.is_known())));
    }

    #[test]
    fn random_t0_is_deterministic() {
        let nl = s27();
        assert_eq!(random_t0(&nl, 50, 7), random_t0(&nl, 50, 7));
        assert_ne!(random_t0(&nl, 50, 7), random_t0(&nl, 50, 8));
    }

    #[test]
    fn incremental_sim_matches_batch_fault_sim() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let seq = random_t0(&nl, 60, 11);
        let mut inc = IncrementalSim::new(&nl, &u, &targets);
        for t in 0..seq.len() {
            inc.apply(seq.vector(t));
        }
        let batch = count_detected(&nl, &u, &seq);
        assert_eq!(inc.total_detected(), batch);
    }

    #[test]
    fn directed_beats_or_matches_random_at_same_length() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let cfg = DirectedConfig {
            max_len: 48,
            ..DirectedConfig::default()
        };
        let directed = directed_t0(&nl, &u, &targets, &cfg);
        let random = random_t0(&nl, directed.len().max(1), cfg.seed);
        let d = count_detected(&nl, &u, &directed);
        let r = count_detected(&nl, &u, &random);
        assert!(
            d >= r,
            "directed ({d}) should not lose to random ({r}) at equal length"
        );
    }

    #[test]
    fn property_bursts_only_keep_productive_vectors() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let cfg = PropertyConfig {
            burst: 8,
            max_len: 128,
            stale_bursts: 5,
            seed: 13,
        };
        let seq = property_t0(&nl, &u, &targets, &cfg);
        assert!(seq.len() <= 128);
        assert_eq!(seq.len() % 8, 0, "sequence grows burst-wise");
        if !seq.is_empty() {
            assert!(count_detected(&nl, &u, &seq) > 0);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let cfg = DirectedConfig {
            max_len: 32,
            ..DirectedConfig::default()
        };
        let a = directed_t0(&nl, &u, &targets, &cfg);
        let b = directed_t0(&nl, &u, &targets, &cfg);
        assert_eq!(a, b);
        let pc = PropertyConfig::default();
        assert_eq!(
            property_t0(&nl, &u, &targets, &pc),
            property_t0(&nl, &u, &targets, &pc)
        );
    }

    #[test]
    fn score_does_not_commit_state() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let mut inc = IncrementalSim::new(&nl, &u, &targets);
        let v: Vec<V3> = vec![V3::One, V3::Zero, V3::One, V3::Zero];
        let before = inc.total_detected();
        let _ = inc.score_batch(std::slice::from_ref(&v), 4);
        assert_eq!(inc.total_detected(), before);
        // Applying after scoring gives the same result as applying fresh.
        let mut inc2 = IncrementalSim::new(&nl, &u, &targets);
        assert_eq!(inc.apply(&v), inc2.apply(&v));
    }

    #[test]
    fn scoped_job_keeps_its_score_spans_at_two_threads() {
        // Two jobs traced through span scopes (`serve --job-trace-dir` with
        // two workers) must each see the span their candidate scoring runs
        // under, not lose it to the process-wide tracer or to the other
        // job. Scoring runs on the job's own thread.
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let cfg = DirectedConfig {
            max_len: 32,
            ..DirectedConfig::default()
        };
        let want = directed_t0(&nl, &u, &targets, &cfg);
        std::thread::scope(|s| {
            let jobs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let tracer = std::sync::Arc::new(atspeed_trace::Tracer::new());
                        tracer.set_enabled(true);
                        let seq = {
                            let _scope = atspeed_trace::scope(tracer.clone());
                            directed_t0(&nl, &u, &targets, &cfg)
                        };
                        (seq, tracer.chrome_trace_json())
                    })
                })
                .collect();
            for job in jobs {
                let (seq, json) = job.join().unwrap();
                assert_eq!(seq, want);
                let begins = json.matches(r#""t0.directed","cat":"atspeed","ph":"B""#);
                assert_eq!(begins.count(), 1, "{json}");
            }
        });
    }
}
