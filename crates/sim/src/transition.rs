//! Transition-delay fault simulation.
//!
//! The paper's motivation for long primary-input sequences is that they are
//! applied **at speed** (with the functional clock) and therefore detect
//! delay defects, which scan-bounded single-vector tests miss. This module
//! makes that claim measurable with the classic *transition fault* model:
//!
//! - a **slow-to-rise** fault on a net is detected by two consecutive
//!   at-speed cycles where the fault-free value transitions 0→1 in the
//!   first cycle pair and the (late) faulty value — modeled as the previous
//!   cycle's value, i.e. stuck-at-0 for that cycle — propagates to an
//!   observation point in the second cycle;
//! - a **slow-to-fall** fault is the 1→0 dual.
//!
//! Following standard practice, a transition fault is simulated as a
//! stuck-at fault that is only *armed* during cycles immediately following
//! a launching transition at the fault site. Launch and capture must occur
//! in back-to-back functional cycles — exactly what a long `T_i` provides
//! and what a scan operation interrupts: within a test `(SI, T)`, cycle
//! pairs `(t, t+1)` for `t < L(T)-1` are at-speed pairs, and the final
//! cycle's capture may also be observed by the scan-out.

use atspeed_circuit::{NetId, Netlist, Slot};

use crate::fault::{Fault, FaultSite};
use crate::fsim_seq::{seed_sources, slots, FinalObserve, Word, FAULTS_PER_PASS};
use crate::kernel::CompiledSim;
use crate::logic::{V3, W3};
use crate::vectors::{Sequence, State};

/// A transition-delay fault on a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionFault {
    /// The net whose transition is slow.
    pub net: NetId,
    /// `true` = slow-to-rise (misses 0→1), `false` = slow-to-fall.
    pub rising: bool,
}

impl TransitionFault {
    /// The stuck-at fault whose effect models the late transition during
    /// the capture cycle (slow-to-rise behaves as stuck-at-0).
    pub fn as_stuck_at(&self) -> Fault {
        Fault {
            site: FaultSite::Stem(self.net),
            stuck: !self.rising,
        }
    }

    /// Conventional description.
    pub fn describe(&self, nl: &Netlist) -> String {
        format!(
            "{} {}",
            nl.net_name(self.net),
            if self.rising { "str" } else { "stf" }
        )
    }
}

/// Enumerates both transition faults on every net.
pub fn all_transition_faults(nl: &Netlist) -> Vec<TransitionFault> {
    let mut out = Vec::with_capacity(2 * nl.num_nets());
    for net in nl.net_ids() {
        out.push(TransitionFault { net, rising: true });
        out.push(TransitionFault { net, rising: false });
    }
    out
}

/// Parallel-fault transition-delay fault simulator for scan tests.
///
/// Runs over the compiled kernel: each cycle takes one fault-free pass,
/// which decides the faults armed in that cycle, and one pass of the word
/// carrying them.
#[derive(Debug)]
pub struct TransitionFaultSim<'a> {
    nl: &'a Netlist,
    vals: Vec<W3>,
    word: Word<'a>,
}

impl<'a> TransitionFaultSim<'a> {
    /// Creates a simulator for `nl`.
    pub fn new(nl: &'a Netlist) -> Self {
        let cc = nl.compiled();
        TransitionFaultSim {
            nl,
            vals: vec![W3::ALL_X; cc.num_nets()],
            word: Word::new(cc),
        }
    }

    /// Simulates the scan test `(si, seq)` under `faults` and returns which
    /// transition faults it detects.
    ///
    /// Detection of fault `f` requires some cycle `t ≥ 1` where the
    /// fault-free value of `f.net` transitions in the fault direction
    /// between `t-1` and `t`, and the corresponding stuck-at effect at `t`
    /// reaches a primary output (any such `t`) or the captured state at the
    /// last cycle (observed by the scan-out). A single-vector test
    /// (`L = 1`) has no at-speed cycle pair, hence detects nothing — the
    /// paper's argument in miniature.
    pub fn detect(&mut self, si: &State, seq: &Sequence, faults: &[TransitionFault]) -> Vec<bool> {
        let mut detected = vec![false; faults.len()];
        if seq.len() < 2 {
            return detected;
        }
        for (chunk, detected) in faults
            .chunks(FAULTS_PER_PASS)
            .zip(detected.chunks_mut(FAULTS_PER_PASS))
        {
            for k in slots(self.detect_chunk(si, seq, chunk)) {
                detected[k] = true;
            }
        }
        detected
    }

    /// Counts the transition faults of `faults` detected by an entire test
    /// set, with fault dropping across tests.
    pub fn count_detected_by_set(
        &mut self,
        tests: &[(State, Sequence)],
        faults: &[TransitionFault],
    ) -> usize {
        let mut alive: Vec<TransitionFault> = faults.to_vec();
        let mut total = 0usize;
        for (si, seq) in tests {
            if alive.is_empty() {
                break;
            }
            let det = self.detect(si, seq, &alive);
            let survivors: Vec<TransitionFault> = alive
                .iter()
                .zip(det.iter())
                .filter(|(_, &d)| !d)
                .map(|(&f, _)| f)
                .collect();
            total += alive.len() - survivors.len();
            alive = survivors;
        }
        total
    }

    /// Runs one word of up to 63 transition faults, fault `k` in slot
    /// `k + 1`, and returns the caught-slot mask. Every cycle the word
    /// carries the stuck-at faults armed in that cycle; its state carries
    /// earlier corruption forward (a late transition corrupts the captured
    /// value permanently).
    fn detect_chunk(&mut self, si: &State, seq: &Sequence, chunk: &[TransitionFault]) -> u64 {
        let cc = self.nl.compiled();
        let word = &mut self.word;
        word.load(si);
        word.active = ((1u64 << chunk.len()) - 1) << 1;
        // The good value at each fault's net in the previous cycle; X
        // before the first cycle, so nothing is armed in cycle 0.
        let mut before = vec![V3::X; chunk.len()];
        // Each fault's net as a value slot, looked up once per word.
        let sites: Vec<Slot> = chunk.iter().map(|f| cc.slot_of(f.net)).collect();
        // Machines whose fault has been armed at least once: only their
        // divergence is a real fault effect (un-armed machines track the
        // good machine exactly, since no injection ever touches them).
        let mut infected = 0u64;
        let mut caught = 0u64;
        for t in 0..seq.len() {
            let vector = seq.vector(t);
            // The fault-free pass of cycle t, seeded from the word's state:
            // slot 0 is the good machine. A fault is armed when its net
            // transitions in the fault direction between t-1 and t (launch
            // at t-1, capture at t).
            seed_sources(cc, &mut self.vals, vector, &word.state);
            CompiledSim::new(cc).eval(&mut self.vals);
            let good = &self.vals;
            let armed = word.inject(chunk.iter().enumerate().filter_map(|(k, f)| {
                let now = good[sites[k].index()].get(0);
                let launches = match (std::mem::replace(&mut before[k], now), now) {
                    (V3::Zero, V3::One) => f.rising,
                    (V3::One, V3::Zero) => !f.rising,
                    _ => false,
                };
                launches.then(|| (k, f.as_stuck_at()))
            }));
            infected |= armed;
            caught |= word.eval(&mut self.vals, vector) & infected;
            word.capture(&self.vals);
            // Scan-out observation at the last cycle.
            if t + 1 == seq.len() {
                caught |= word.observe(FinalObserve::FullState) & infected;
            }
            if caught == word.active {
                break;
            }
        }
        caught
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::parse_values;
    use atspeed_circuit::bench_fmt::s27;
    use atspeed_circuit::{GateKind, NetlistBuilder};

    fn buf_circuit() -> Netlist {
        // y = BUF(a) through one FF so transitions need two cycles to see.
        let mut b = NetlistBuilder::new("buf");
        b.input("a");
        b.gate(GateKind::Buf, "y", &["a"]);
        b.output("y");
        b.finish().unwrap()
    }

    #[test]
    fn rising_transition_detected_by_zero_one_pair() {
        let nl = buf_circuit();
        let a = nl.find_net("a").unwrap();
        let f = TransitionFault {
            net: a,
            rising: true,
        };
        let mut sim = TransitionFaultSim::new(&nl);
        // 0 then 1: launches a rising transition; slow-to-rise shows 0.
        let seq: Sequence = ["0", "1"].iter().map(|r| parse_values(r)).collect();
        assert_eq!(sim.detect(&vec![], &seq, &[f]), vec![true]);
        // 1 then 0: no rising launch.
        let seq: Sequence = ["1", "0"].iter().map(|r| parse_values(r)).collect();
        assert_eq!(sim.detect(&vec![], &seq, &[f]), vec![false]);
        // Falling fault is the dual.
        let g = TransitionFault {
            net: a,
            rising: false,
        };
        assert_eq!(sim.detect(&vec![], &seq, &[g]), vec![true]);
    }

    #[test]
    fn single_vector_tests_detect_no_transition_faults() {
        // The paper's core claim in miniature: a scan test with L=1 has no
        // at-speed cycle pair.
        let nl = s27();
        let faults = all_transition_faults(&nl);
        let mut sim = TransitionFaultSim::new(&nl);
        let seq: Sequence = std::iter::once(parse_values("1010")).collect();
        let det = sim.detect(&parse_values("010"), &seq, &faults);
        assert!(det.iter().all(|&d| !d));
    }

    #[test]
    fn longer_sequences_detect_more() {
        let nl = s27();
        let faults = all_transition_faults(&nl);
        let mut sim = TransitionFaultSim::new(&nl);
        let rows = [
            "1010", "0101", "0011", "1100", "1111", "0000", "1001", "0110",
        ];
        let long: Sequence = rows.iter().map(|r| parse_values(r)).collect();
        let short: Sequence = rows[..2].iter().map(|r| parse_values(r)).collect();
        let si = parse_values("000");
        let count = |det: Vec<bool>| det.iter().filter(|&&d| d).count();
        let d_long = count(sim.detect(&si, &long, &faults));
        let d_short = count(sim.detect(&si, &short, &faults));
        assert!(d_long >= d_short);
        assert!(d_long > 0, "an 8-cycle at-speed burst detects something");
    }

    #[test]
    fn set_counting_drops_faults() {
        let nl = s27();
        let faults = all_transition_faults(&nl);
        let mut sim = TransitionFaultSim::new(&nl);
        let t1 = (
            parse_values("000"),
            ["1010", "0101"].iter().map(|r| parse_values(r)).collect(),
        );
        let t2 = (
            parse_values("111"),
            ["0000", "1111", "0000"]
                .iter()
                .map(|r| parse_values(r))
                .collect(),
        );
        let both = sim.count_detected_by_set(&[t1.clone(), t2.clone()], &faults);
        let first = sim.count_detected_by_set(&[t1], &faults);
        assert!(both >= first);
        assert!(both <= faults.len());
    }

    /// Every transition fault simulated alone, cycle by cycle, on the
    /// reference walker from random scan-ins and sequences with X values:
    /// the good and the faulty machine each keep their own state, and the
    /// faulty one receives the stuck-at only in the cycles right after a
    /// launching transition of the good value. Once armed, a binary
    /// difference at a primary output in any cycle, or in the state after
    /// the last cycle, detects the fault.
    #[test]
    fn detect_matches_per_fault_walker() {
        use crate::comb::CombSim;
        use atspeed_circuit::synth::{generate, SynthSpec};
        let known_diff =
            |a: W3, b: W3| a.get(0).is_known() && b.get(0).is_known() && a.get(0) != b.get(0);
        let synth = generate(&SynthSpec::new("tr-ref", 5, 3, 8, 160, 11)).unwrap();
        let mut x = 0x7a5e_d1a7u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let v3 = |r: u64| match r % 5 {
            0 => V3::X,
            n => V3::from_bool(n & 1 == 1),
        };
        let mut detections = 0;
        for nl in [s27(), synth] {
            let faults = all_transition_faults(&nl);
            let mut sim = TransitionFaultSim::new(&nl);
            let mut walker = CombSim::new(&nl);
            for _ in 0..8 {
                let len = 2 + (rnd() % 12) as usize;
                let si: State = (0..nl.num_ffs()).map(|_| v3(rnd())).collect();
                let seq: Sequence = (0..len)
                    .map(|_| (0..nl.num_pis()).map(|_| v3(rnd())).collect())
                    .collect();
                let det = sim.detect(&si, &seq, &faults);
                for (k, f) in faults.iter().enumerate() {
                    let stuck = [(f.as_stuck_at(), !0u64)];
                    let mut good = vec![W3::ALL_X; nl.num_nets()];
                    let mut bad = good.clone();
                    let mut good_state: Vec<W3> = si.iter().map(|&v| W3::broadcast(v)).collect();
                    let mut bad_state = good_state.clone();
                    let mut before = V3::X;
                    let (mut infected, mut caught) = (false, false);
                    for t in 0..seq.len() {
                        for (vals, state) in [(&mut good, &good_state), (&mut bad, &bad_state)] {
                            for (i, &pi) in nl.pis().iter().enumerate() {
                                vals[pi.index()] = W3::broadcast(seq.vector(t)[i]);
                            }
                            for (ff, &w) in nl.ffs().iter().zip(state) {
                                vals[ff.q().index()] = w;
                            }
                        }
                        walker.eval(&mut good);
                        let now = good[f.net.index()].get(0);
                        let armed = t >= 1
                            && match (before, now) {
                                (V3::Zero, V3::One) => f.rising,
                                (V3::One, V3::Zero) => !f.rising,
                                _ => false,
                            };
                        before = now;
                        infected |= armed;
                        walker.eval_with(&mut bad, if armed { &stuck[..] } else { &[] });
                        caught |= infected
                            && nl
                                .pos()
                                .iter()
                                .any(|&po| known_diff(good[po.index()], bad[po.index()]));
                        for (s, ff) in nl.ffs().iter().enumerate() {
                            good_state[s] = good[ff.d().index()];
                            bad_state[s] = bad[ff.d().index()];
                        }
                    }
                    caught |= infected
                        && good_state
                            .iter()
                            .zip(&bad_state)
                            .any(|(&g, &b)| known_diff(g, b));
                    assert_eq!(
                        det[k],
                        caught,
                        "{} on {}, test ({si:?}, {seq:?})",
                        f.describe(&nl),
                        nl.name()
                    );
                    detections += usize::from(caught);
                }
            }
        }
        assert!(detections > 0, "the stimuli must detect something");
    }

    #[test]
    fn fault_count_and_descriptions() {
        let nl = s27();
        let faults = all_transition_faults(&nl);
        assert_eq!(faults.len(), 2 * nl.num_nets());
        assert!(faults[0].describe(&nl).ends_with("str"));
        assert!(faults[1].describe(&nl).ends_with("stf"));
    }
}
