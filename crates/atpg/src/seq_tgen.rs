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
//!   target faults (with a cheap activity tie-break), tracked by an
//!   incremental parallel-fault simulator;
//! - [`property_t0`] — PROPTEST-style burst generation: random bursts are
//!   kept only when they detect new faults, otherwise rolled back.

use atspeed_circuit::{CompiledCircuit, Netlist};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::parallel::claim_map;
use atspeed_sim::{CompiledSim, Overrides, Sequence, SimConfig, V3, W3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// Threading for candidate scoring; scoring is side-effect-free, so
    /// the selected vectors are identical at any thread count.
    pub sim: SimConfig,
}

impl Default for DirectedConfig {
    fn default() -> Self {
        DirectedConfig {
            max_len: 1024,
            candidates: 8,
            plateau_limit: 40,
            sample_groups: 8,
            seed: 2,
            sim: SimConfig::default(),
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

/// Incremental parallel-fault sequential simulator: keeps per-fault machine
/// states across appended vectors so that candidate vectors can be scored
/// and sequences extended one step at a time.
///
/// Observation is primary outputs only — `T_0` is applied without scan, so
/// this measures the paper's `F_0`-style detection.
#[derive(Debug)]
pub struct IncrementalSim<'a> {
    nl: &'a Netlist,
    groups: Vec<Group<'a>>,
    vals: Vec<W3>,
    total_detected: usize,
}

#[derive(Debug)]
struct Group<'a> {
    ov: Overrides<'a>,
    state: Vec<W3>,
    active: u64,
    detected: u64,
}

impl<'a> IncrementalSim<'a> {
    /// Overwrites every machine's flip-flop state with `state`, modeling a
    /// scan-in (all machines receive the same scanned value; stuck-at
    /// effects re-apply at the next evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one value per flip-flop.
    pub fn load_state(&mut self, state: &[V3]) {
        assert_eq!(state.len(), self.nl.num_ffs(), "state width mismatch");
        for g in &mut self.groups {
            for (f, w) in g.state.iter_mut().enumerate() {
                *w = W3::broadcast(state[f]);
            }
        }
    }

    /// Observes the current flip-flop state of every machine (modeling a
    /// scan-out) and returns the number of newly detected faults.
    pub fn scan_observe(&mut self) -> usize {
        let mut newly = 0usize;
        for g in &mut self.groups {
            let mut sd = 0u64;
            for w in &g.state {
                match w.get(0) {
                    V3::One => sd |= w.zero,
                    V3::Zero => sd |= w.one,
                    V3::X => {}
                }
            }
            let fresh = sd & g.active & !g.detected;
            g.detected |= fresh;
            newly += fresh.count_ones() as usize;
        }
        self.total_detected += newly;
        newly
    }

    /// Builds groups of up to 63 faulty machines over `targets`, all in the
    /// unknown initial state.
    pub fn new(nl: &'a Netlist, universe: &FaultUniverse, targets: &[FaultId]) -> Self {
        let groups = targets
            .chunks(63)
            .map(|chunk| {
                let mut ov = Overrides::new(nl.compiled());
                for (k, &fid) in chunk.iter().enumerate() {
                    ov.add(universe.fault(fid), 1u64 << (k + 1));
                }
                let active = if chunk.len() == 63 {
                    !1u64
                } else {
                    ((1u64 << chunk.len()) - 1) << 1
                };
                Group {
                    ov,
                    state: vec![W3::ALL_X; nl.num_ffs()],
                    active,
                    detected: 0,
                }
            })
            .collect();
        IncrementalSim {
            nl,
            groups,
            vals: vec![W3::ALL_X; nl.num_nets()],
            total_detected: 0,
        }
    }

    /// Total faults detected so far (primary outputs only).
    pub fn total_detected(&self) -> usize {
        self.total_detected
    }

    /// Whether every tracked fault has been detected.
    pub fn all_detected(&self) -> bool {
        self.groups.iter().all(|g| g.detected == g.active)
    }

    /// Applies `vector` to every machine, committing states; returns the
    /// number of newly detected faults.
    pub fn apply(&mut self, vector: &[V3]) -> usize {
        let mut newly = 0usize;
        let cc = self.nl.compiled();
        let sim = CompiledSim::new(cc);
        for gi in 0..self.groups.len() {
            let (po_mask, next) = {
                let g = &self.groups[gi];
                seed(cc, &mut self.vals, vector, &g.state);
                sim.eval_with(&mut self.vals, &g.ov);
                let po_mask = po_diff(cc, &self.vals, &self.groups[gi].ov);
                let next: Vec<W3> = capture(cc, &self.vals, &self.groups[gi].ov);
                (po_mask, next)
            };
            let g = &mut self.groups[gi];
            let fresh = po_mask & g.active & !g.detected;
            g.detected |= fresh;
            g.state = next;
            newly += fresh.count_ones() as usize;
        }
        self.total_detected += newly;
        newly
    }

    /// Scores `vector` without committing: `(new detections, state
    /// activity)` over the first `sample` still-live groups.
    pub fn score(&mut self, vector: &[V3], sample: usize) -> (usize, usize) {
        let mut vals = std::mem::take(&mut self.vals);
        let r = self.score_in(&mut vals, vector, sample);
        self.vals = vals;
        r
    }

    /// [`IncrementalSim::score`] with caller-provided scratch: evaluation
    /// rewrites every net from the seeded inputs, so any scratch of
    /// `num_nets` width gives the same score.
    /// Committing nothing and taking `&self`, this is shareable across
    /// scoring threads.
    pub fn score_in(&self, vals: &mut [W3], vector: &[V3], sample: usize) -> (usize, usize) {
        let cc = self.nl.compiled();
        let sim = CompiledSim::new(cc);
        let mut detections = 0usize;
        let mut activity = 0usize;
        let mut scored = 0usize;
        for g in &self.groups {
            if scored >= sample {
                break;
            }
            if g.detected == g.active {
                continue;
            }
            scored += 1;
            seed(cc, vals, vector, &g.state);
            sim.eval_with(vals, &g.ov);
            let po_mask = po_diff(cc, vals, &g.ov);
            detections += (po_mask & g.active & !g.detected).count_ones() as usize;
            // Activity: faulty machines whose next state newly differs.
            let next = capture(cc, vals, &g.ov);
            let mut sd = 0u64;
            for w in &next {
                match w.get(0) {
                    V3::One => sd |= w.zero,
                    V3::Zero => sd |= w.one,
                    V3::X => {}
                }
            }
            activity += (sd & g.active & !g.detected).count_ones() as usize;
        }
        (detections, activity)
    }

    /// Scores every candidate in `cands`, sharding candidates across
    /// `sim.threads` workers (each with its own net scratch). Scoring is
    /// read-only, so the result vector is identical at any thread count.
    pub fn score_batch(
        &self,
        cands: &[Vec<V3>],
        sample: usize,
        sim: SimConfig,
    ) -> Vec<(usize, usize)> {
        claim_map(
            sim,
            cands.len(),
            "tgen.score.claim",
            || vec![W3::ALL_X; self.nl.num_nets()],
            |vals, k| self.score_in(vals, &cands[k], sample),
        )
    }
}

fn seed(cc: &CompiledCircuit, vals: &mut [W3], vector: &[V3], state: &[W3]) {
    debug_assert_eq!(vector.len(), cc.pis().len());
    for (i, &pi) in cc.pis().iter().enumerate() {
        vals[pi.index()] = W3::broadcast(vector[i]);
    }
    for (f, &q) in cc.ff_qs().iter().enumerate() {
        vals[q.index()] = state[f];
    }
}

fn po_diff(cc: &CompiledCircuit, vals: &[W3], ov: &Overrides) -> u64 {
    let mut mask = 0u64;
    for (k, &po) in cc.pos().iter().enumerate() {
        let w = ov.apply_po_pin(atspeed_circuit::PoId::from_index(k), vals[po.index()]);
        match w.get(0) {
            V3::One => mask |= w.zero,
            V3::Zero => mask |= w.one,
            V3::X => {}
        }
    }
    mask
}

fn capture(cc: &CompiledCircuit, vals: &[W3], ov: &Overrides) -> Vec<W3> {
    cc.ff_ds()
        .iter()
        .enumerate()
        .map(|(f, &d)| ov.apply_ff_pin(atspeed_circuit::FfId::from_index(f), vals[d.index()]))
        .collect()
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
        let scores = inc.score_batch(&cands, cfg.sample_groups.max(1), cfg.sim);
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
        let snapshot: Vec<(Vec<W3>, u64, usize)> = inc
            .groups
            .iter()
            .map(|g| (g.state.clone(), g.detected, 0))
            .collect();
        let total_before = inc.total_detected;
        let mut newly = 0usize;
        for v in &burst {
            newly += inc.apply(v);
        }
        if newly == 0 {
            // Roll back: the burst added nothing.
            for (g, (state, detected, _)) in inc.groups.iter_mut().zip(snapshot) {
                g.state = state;
                g.detected = detected;
            }
            inc.total_detected = total_before;
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
        let _ = inc.score(&v, 4);
        assert_eq!(inc.total_detected(), before);
        // Applying after scoring gives the same result as applying fresh.
        let mut inc2 = IncrementalSim::new(&nl, &u, &targets);
        assert_eq!(inc.apply(&v), inc2.apply(&v));
    }

    #[test]
    fn scoped_job_keeps_its_score_spans_at_two_threads() {
        // A job traced through a span scope (`serve --job-trace-dir`) must
        // see the spans its scoring workers open, not lose them to the
        // process-wide tracer.
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let targets: Vec<FaultId> = u.representatives().to_vec();
        let inc = IncrementalSim::new(&nl, &u, &targets);
        let cands: Vec<Vec<V3>> = (0..8u32)
            .map(|k| (0..4).map(|b| V3::from_bool(k >> b & 1 == 1)).collect())
            .collect();
        let tracer = std::sync::Arc::new(atspeed_trace::Tracer::new());
        tracer.set_enabled(true);
        let scores = {
            let _scope = atspeed_trace::scope(tracer.clone());
            inc.score_batch(&cands, 8, SimConfig::with_threads(2))
        };
        assert_eq!(scores, inc.score_batch(&cands, 8, SimConfig::default()));
        let json = tracer.chrome_trace_json();
        assert!(json.contains("tgen.score.claim"), "{json}");
    }
}
