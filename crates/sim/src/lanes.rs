//! Scoring many scan-in states against one sequence in a single
//! simulation: the candidate scoring of Phase 1's Step 2.
//!
//! Every candidate applies the same sequence, so the only thing that tells
//! two scoring runs apart is the scan-in state. [`score_scan_ins`] lays
//! the distinct states out in *lanes*: with `w` the distinct-state count
//! rounded up to a power of two (at most 64), a word holds `64 / w` lanes
//! of `w` slots, lane `l` carrying one fault and its slot `j` running
//! state `j`. A fault-free *good word* repeats the `w` good machines in
//! every lane, so each slot of a fault word is compared with the same slot
//! of the good word: one overlay entry per lane, no gathers, no repacking.
//!
//! Almost every faulty machine equals its good machine in almost every
//! cycle (the premise of HOPE, Lee & Ha, IEEE TCAD 15(9), 1996). A slot is
//! *live* while its state differs from the good state (an X against a
//! binary value counts) and *excited* in a cycle where the good value at
//! its fault site differs from the stuck value; a slot that is neither
//! behaves exactly like the good machine for the cycle. A fault word is
//! simulated only in the cycles where one of its undetected slots is live
//! or excited; its dormant slots then start from the good state.

use std::collections::HashMap;
use std::sync::Mutex;

use atspeed_circuit::{CompiledCircuit, FfId, NetId, Netlist, PoId};

use crate::fault::{Fault, FaultId, FaultUniverse};
use crate::fsim_seq::{seed_sources, SeqFaultSim};
use crate::kernel::{CompiledSim, Overrides};
use crate::logic::{V3, W3};
use crate::parallel::{claim_map, SimConfig};
use crate::stats;
use crate::vectors::{Sequence, State};

/// For each of `states`, how many of `faults` the test `(state, seq)`
/// followed by a full scan-out detects — what
/// [`SeqFaultSim::detect`] with a scan-out counts, state by state.
///
/// Repeated states are scored once. With a single distinct state there is
/// nothing to share, and the state is scored by one
/// [`SeqFaultSim::detect`]. Otherwise the distinct states run in lanes, 64
/// states per group: each cycle simulates one good word per group, then
/// the fault words with an undetected slot that is live or excited. At
/// more than one thread those words are claimed by `sim.threads` workers
/// each cycle (under the span `phase1.score.claim`); the counts and the
/// gate-words are the same at any thread count.
///
/// # Panics
///
/// Panics if a state or a vector does not match the netlist's width.
pub fn score_scan_ins(
    nl: &Netlist,
    states: &[&State],
    seq: &Sequence,
    faults: &[FaultId],
    universe: &FaultUniverse,
    sim: SimConfig,
) -> Vec<usize> {
    let mut distinct: Vec<&State> = Vec::new();
    let mut first: HashMap<&State, usize> = HashMap::new();
    let of: Vec<usize> = states
        .iter()
        .map(|&s| {
            *first.entry(s).or_insert_with(|| {
                distinct.push(s);
                distinct.len() - 1
            })
        })
        .collect();
    let counts: Vec<usize> = if faults.is_empty() || distinct.is_empty() {
        vec![0; distinct.len()]
    } else if distinct.len() == 1 {
        let det = SeqFaultSim::new(nl).detect(distinct[0], seq, faults, universe, true);
        vec![det.iter().filter(|&&d| d).count()]
    } else {
        stats::add_invocation();
        distinct
            .chunks(64)
            .flat_map(|group| Lanes::new(nl, group, faults, universe).run(seq, sim))
            .collect()
    };
    of.iter().map(|&d| counts[d]).collect()
}

/// Up to 64 scan-in states laid out in lanes over one fault list.
struct Lanes<'a> {
    cc: &'a CompiledCircuit,
    /// Slots per lane: the state count rounded up to a power of two.
    width: usize,
    /// States in the group (slots `j < count` of a lane are real).
    count: usize,
    faults: Vec<Fault>,
    /// The net whose good value decides whether a fault is excited.
    sites: Vec<NetId>,
    /// The good machines: slot `l × width + j` runs state `j`.
    good_state: Vec<W3>,
    /// Per fault word: the live slots (undetected, state differs from the
    /// good state) and the detected ones.
    live: Vec<u64>,
    detected: Vec<u64>,
    /// Per fault word: the slots of real states in lanes holding a fault.
    valid: Vec<u64>,
}

/// What a fault word's cycle produced: the slots a primary output
/// detected and the live slots after capture.
#[derive(Debug, Clone, Copy)]
struct Step {
    detected: u64,
    live: u64,
}

/// A worker's scratch: a net value array and an overlay, with the word the
/// overlay holds.
struct Scratch<'a> {
    vals: Vec<W3>,
    ov: Overrides<'a>,
    loaded: Option<usize>,
}

impl<'a> Scratch<'a> {
    fn new(cc: &'a CompiledCircuit) -> Self {
        Scratch {
            vals: vec![W3::ALL_X; cc.num_nets()],
            ov: Overrides::new(cc),
            loaded: None,
        }
    }
}

/// A scratch lent by a pool for one claim loop, returned when dropped, so
/// the per-cycle claim loops allocate nothing after the first.
struct Lent<'p, 'a> {
    scratch: Option<Scratch<'a>>,
    pool: &'p Mutex<Vec<Scratch<'a>>>,
}

impl Drop for Lent<'_, '_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            self.pool.lock().unwrap_or_else(|e| e.into_inner()).push(s);
        }
    }
}

impl<'a> Lanes<'a> {
    fn new(
        nl: &'a Netlist,
        group: &[&State],
        faults: &[FaultId],
        universe: &FaultUniverse,
    ) -> Self {
        let cc = nl.compiled();
        let count = group.len();
        let width = count.next_power_of_two();
        let lanes = 64 / width;
        let lane_valid = low_bits(count);
        let repeat = repeat_mask(width);
        let good_state: Vec<W3> = (0..cc.ff_qs().len())
            .map(|f| {
                let mut lane = W3::ALL_X;
                for j in 0..width {
                    // Padding slots repeat state 0; they are never counted.
                    lane.set(j, group[if j < count { j } else { 0 }][f]);
                }
                W3 {
                    zero: lane.zero.wrapping_mul(repeat),
                    one: lane.one.wrapping_mul(repeat),
                }
            })
            .collect();
        let words = faults.len().div_ceil(lanes);
        let valid = (0..words)
            .map(|i| {
                let held = (faults.len() - i * lanes).min(lanes);
                (0..held).fold(0u64, |m, l| m | lane_valid << (l * width))
            })
            .collect();
        Lanes {
            cc,
            width,
            count,
            faults: faults.iter().map(|&f| universe.fault(f)).collect(),
            sites: faults.iter().map(|&f| universe.site_net(nl, f)).collect(),
            live: vec![0; words],
            detected: vec![0; words],
            valid,
            good_state,
        }
    }

    fn lanes(&self) -> usize {
        64 / self.width
    }

    /// The faults of word `i`, one per lane.
    fn word_faults(&self, i: usize) -> std::ops::Range<usize> {
        let lanes = self.lanes();
        i * lanes..((i + 1) * lanes).min(self.faults.len())
    }

    /// The undetected slots of word `i` that are live or excited in the
    /// cycle whose good evaluation is `good`.
    fn active(&self, i: usize, good: &[W3]) -> u64 {
        let open = self.valid[i] & !self.detected[i];
        if open == 0 {
            return 0;
        }
        let mut excited = 0u64;
        for (l, k) in self.word_faults(i).enumerate() {
            let g = good[self.sites[k].index()];
            let differs = if self.faults[k].stuck {
                !g.one
            } else {
                !g.zero
            };
            excited |= differs & low_bits(self.width) << (l * self.width);
        }
        (self.live[i] | excited) & open
    }

    /// Runs one cycle of fault word `i` from `state` (its own state on the
    /// live slots, the good state elsewhere), writing the captured state
    /// back into `state`.
    fn step(
        &self,
        sc: &mut Scratch<'a>,
        i: usize,
        vector: &[V3],
        good: &[W3],
        state: &mut [W3],
    ) -> Step {
        let cc = self.cc;
        if sc.loaded != Some(i) {
            sc.ov.clear();
            for (l, k) in self.word_faults(i).enumerate() {
                sc.ov
                    .add(self.faults[k], low_bits(self.width) << (l * self.width));
            }
            sc.loaded = Some(i);
        }
        let live = self.live[i];
        for (s, &g) in state.iter_mut().zip(&self.good_state) {
            *s = W3 {
                zero: s.zero & live | g.zero & !live,
                one: s.one & live | g.one & !live,
            };
        }
        seed_sources(cc, &mut sc.vals, vector, state);
        CompiledSim::new(cc).eval_with(&mut sc.vals, &sc.ov);
        let open = self.valid[i] & !self.detected[i];
        let mut detected = 0u64;
        for (k, &po) in cc.pos().iter().enumerate() {
            let faulty = sc.ov.apply_po_pin(PoId::from_index(k), sc.vals[po.index()]);
            detected |= faulty.diff_known(good[po.index()]);
        }
        let mut differs = 0u64;
        for (f, &d) in cc.ff_ds().iter().enumerate() {
            let next = sc.ov.apply_ff_pin(FfId::from_index(f), sc.vals[d.index()]);
            let g = good[d.index()];
            differs |= (next.zero ^ g.zero) | (next.one ^ g.one);
            state[f] = next;
        }
        let detected = detected & open;
        Step {
            detected,
            live: differs & open & !detected,
        }
    }

    /// Simulates `seq` and returns, per state of the group, how many faults
    /// are detected.
    ///
    /// At more than one thread, each cycle's claims are the cycle's active
    /// fault words plus the next cycle's good word, which needs only the
    /// state this cycle's good word captured: the same passes as at one
    /// thread, in another order.
    fn run(mut self, seq: &Sequence, sim: SimConfig) -> Vec<usize> {
        let cc = self.cc;
        let ffs = cc.ff_qs().len();
        let words = self.live.len();
        let vectors = seq.as_slice();
        let parallel = sim.effective_threads(words + 1) > 1;
        let good_pass = |vals: &mut [W3], vector: &[V3], state: &[W3]| {
            seed_sources(cc, vals, vector, state);
            CompiledSim::new(cc).eval(vals);
        };
        // Per fault word, its slots' states (meaningful on live slots).
        let mut states = vec![W3::ALL_X; words * ffs];
        let pool = Mutex::new(Vec::new());
        let mut inline = Scratch::new(cc);
        let mut good = vec![W3::ALL_X; cc.num_nets()];
        let mut next_good = Mutex::new(vec![W3::ALL_X; cc.num_nets()]);
        if let Some(first) = vectors.first() {
            good_pass(&mut good, first, &self.good_state);
        }
        let mut active: Vec<usize> = Vec::with_capacity(words);
        for (t, vector) in vectors.iter().enumerate() {
            active.clear();
            active.extend((0..words).filter(|&i| self.active(i, &good) != 0));
            let next_state: Vec<W3> = cc.ff_ds().iter().map(|d| good[d.index()]).collect();
            let next = vectors.get(t + 1);
            if parallel {
                let lead = usize::from(next.is_some());
                let (lanes, states_now) = (&self, &states);
                let steps = claim_map(
                    sim,
                    lead + active.len(),
                    "phase1.score.claim",
                    || Lent {
                        scratch: Some(
                            pool.lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .pop()
                                .unwrap_or_else(|| Scratch::new(cc)),
                        ),
                        pool: &pool,
                    },
                    |lent, a| {
                        if a < lead {
                            let mut vals = next_good.lock().unwrap_or_else(|e| e.into_inner());
                            good_pass(&mut vals, next.expect("lead claim"), &next_state);
                            return None;
                        }
                        let i = active[a - lead];
                        let mut state = states_now[i * ffs..(i + 1) * ffs].to_vec();
                        let sc = lent.scratch.as_mut().expect("lent until dropped");
                        let step = lanes.step(sc, i, vector, &good, &mut state);
                        Some((i, step, state))
                    },
                );
                for (i, step, state) in steps.into_iter().flatten() {
                    states[i * ffs..(i + 1) * ffs].copy_from_slice(&state);
                    self.commit(i, step);
                }
            } else {
                for &i in &active {
                    let state = &mut states[i * ffs..(i + 1) * ffs];
                    let step = self.step(&mut inline, i, vector, &good, state);
                    self.commit(i, step);
                }
                if let Some(v) = next {
                    let vals = next_good.get_mut().unwrap_or_else(|e| e.into_inner());
                    good_pass(vals, v, &next_state);
                }
            }
            std::mem::swap(
                &mut good,
                next_good.get_mut().unwrap_or_else(|e| e.into_inner()),
            );
            self.good_state = next_state;
        }
        // The scan-out: a live slot whose state is binary-opposite to the
        // good state on some flip-flop is detected.
        for i in 0..words {
            let live = self.live[i];
            if live == 0 {
                continue;
            }
            let seen = states[i * ffs..(i + 1) * ffs]
                .iter()
                .zip(&self.good_state)
                .fold(0u64, |m, (s, &g)| m | s.diff_known(g));
            self.detected[i] |= seen & live;
        }
        let mut counts = vec![0usize; self.count];
        for (i, &det) in self.detected.iter().enumerate() {
            for l in 0..self.word_faults(i).len() {
                let lane = det >> (l * self.width);
                for (j, c) in counts.iter_mut().enumerate() {
                    *c += (lane >> j & 1) as usize;
                }
            }
        }
        counts
    }

    fn commit(&mut self, i: usize, step: Step) {
        self.detected[i] |= step.detected;
        self.live[i] = step.live;
    }
}

/// The low `n` bits set (`n ≤ 64`).
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Bit `l × width` set for every lane `l`: multiplying a lane's bits by it
/// repeats them in every lane.
fn repeat_mask(width: usize) -> u64 {
    (0..64 / width).fold(0u64, |m, l| m | 1u64 << (l * width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::parse_values;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::synth::{generate, SynthSpec};

    fn states(nl: &Netlist, n: usize, seed: u64) -> Vec<State> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                (0..nl.num_ffs())
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        match x % 7 {
                            0 => V3::X,
                            r => V3::from_bool(r & 1 == 1),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn reference(
        nl: &Netlist,
        states: &[&State],
        seq: &Sequence,
        faults: &[FaultId],
        u: &FaultUniverse,
    ) -> Vec<usize> {
        let mut fsim = SeqFaultSim::new(nl);
        states
            .iter()
            .map(|s| {
                fsim.detect(s, seq, faults, u, true)
                    .iter()
                    .filter(|&&d| d)
                    .count()
            })
            .collect()
    }

    /// Lane scores equal per-state `detect` counts, for state counts that
    /// fill a word exactly, leave padding slots, and spill into a second
    /// group of 64, on every uncollapsed fault.
    #[test]
    fn lanes_match_per_state_detection() {
        let nl = generate(&SynthSpec::new("lanes", 5, 3, 9, 150, 31)).unwrap();
        let u = FaultUniverse::full(&nl);
        let faults: Vec<FaultId> = u.all_ids().collect();
        let seq: Sequence = (0..12)
            .map(|t| (0..5).map(|i| V3::from_bool((t * 3 + i) % 4 < 2)).collect())
            .collect();
        for n in [2, 3, 8, 13, 64, 70] {
            let pool = states(&nl, n, n as u64 * 977);
            let refs: Vec<&State> = pool.iter().collect();
            assert_eq!(
                score_scan_ins(&nl, &refs, &seq, &faults, &u, SimConfig::default()),
                reference(&nl, &refs, &seq, &faults, &u),
                "{n} states"
            );
        }
    }

    #[test]
    fn duplicate_states_get_equal_counts() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults = u.representatives().to_vec();
        let seq: Sequence = ["1010", "0110", "0001"]
            .iter()
            .map(|r| parse_values(r))
            .collect();
        let (a, b, c) = (
            parse_values("010"),
            parse_values("111"),
            parse_values("0x1"),
        );
        let refs = [&a, &b, &a, &c, &b, &a];
        let counts = score_scan_ins(&nl, &refs, &seq, &faults, &u, SimConfig::default());
        assert_eq!(counts[0], counts[2]);
        assert_eq!(counts[0], counts[5]);
        assert_eq!(counts[1], counts[4]);
        assert_eq!(counts, reference(&nl, &refs, &seq, &faults, &u));
    }

    /// One distinct state, however often repeated, is scored by one
    /// `detect` call: the same work as a single candidate.
    #[test]
    fn one_distinct_state_takes_the_per_candidate_path() {
        let nl = s27();
        let u = FaultUniverse::full(&nl);
        let faults = u.representatives().to_vec();
        let seq: Sequence = ["1010", "0110", "0001"]
            .iter()
            .map(|r| parse_values(r))
            .collect();
        let si = parse_values("010");
        let work = |refs: &[&State]| {
            let scope = stats::scoped();
            let counts = score_scan_ins(&nl, refs, &seq, &faults, &u, SimConfig::default());
            (counts, scope.report().totals().gate_evals)
        };
        let (one, one_work) = work(&[&si]);
        let (three, three_work) = work(&[&si, &si, &si]);
        let scope = stats::scoped();
        let det = SeqFaultSim::new(&nl).detect(&si, &seq, &faults, &u, true);
        let detect_work = scope.report().totals().gate_evals;
        assert_eq!(one, vec![det.iter().filter(|&&d| d).count()]);
        assert_eq!(three, vec![one[0]; 3]);
        assert_eq!(one_work, detect_work);
        assert_eq!(three_work, detect_work);
    }

    /// Counts and gate-words are the same at 1, 2 and 4 threads.
    #[test]
    fn scores_and_work_are_identical_at_any_thread_count() {
        let nl = generate(&SynthSpec::new("lanes-t", 5, 3, 9, 150, 7)).unwrap();
        let u = FaultUniverse::full(&nl);
        let faults = u.representatives().to_vec();
        let seq: Sequence = (0..16)
            .map(|t| {
                (0..5)
                    .map(|i| V3::from_bool((t * 5 + i * 3) % 7 < 3))
                    .collect()
            })
            .collect();
        let pool = states(&nl, 20, 5);
        let refs: Vec<&State> = pool.iter().collect();
        let run = |threads: usize| {
            let scope = stats::scoped();
            let counts = score_scan_ins(
                &nl,
                &refs,
                &seq,
                &faults,
                &u,
                SimConfig::with_threads(threads),
            );
            (counts, scope.report().totals().gate_evals)
        };
        let one = run(1);
        assert_eq!(one.0, reference(&nl, &refs, &seq, &faults, &u));
        for threads in [2, 4] {
            assert_eq!(run(threads), one, "threads={threads}");
        }
    }
}
