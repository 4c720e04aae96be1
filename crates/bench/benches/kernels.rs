//! Kernel micro-benchmarks: the legacy pointer walker vs the compiled full
//! pass, fault-free and under one 63-fault word, over the ISCAS-89
//! circuits of the catalog and the layered 108k-gate `stress` circuit; and
//! Phase-2 vector omission on s298 at 1, 2 and 4 threads.
//!
//! The catalog circuits' runs (consecutive ops of one level sharing a kind
//! and a fanin) are a few ops long, the `stress` circuit's about a hundred,
//! so the two shapes time the kernel's per-run dispatch and its inner
//! loops respectively.
//!
//! The kernel workload is a sequence of reseed-and-evaluate rounds: round 0
//! assigns every source net a random 3-valued word, later rounds reseed a
//! small random subset, as consecutive cycles of a sequential simulation
//! do. The faulty rows inject one word of 63 faults spread over the
//! collapsed faults, fault `k` in slot `k + 1`, as a sequential fault
//! simulation does. The walker indexes its value array by net and the
//! compiled kernel by value slot; before timing a circuit, the bench
//! compares one compiled pass with the walker's through `slot_of`,
//! fault-free and under the fault word, and panics on any difference, so a
//! layout mistake cannot be timed unnoticed.
//!
//! The Criterion timings are for local comparison; the counts a change is
//! judged by come from the benchmark in `perfbench/`.

use atspeed_atpg::compact::{omit_vectors, OmissionConfig};
use atspeed_atpg::random_t0;
use atspeed_circuit::catalog::{self, BenchmarkInfo, Suite};
use atspeed_circuit::synth::{generate, SynthSpec};
use atspeed_circuit::{NetId, Netlist};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombSim, CompiledSim, Fault, Overrides, SeqFaultSim, SimConfig, V3, W3};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// The kernel circuits: the ISCAS-89 circuits of the catalog, then the
/// `stress` binary's default circuit (same spec and synthesis seed).
fn selected() -> Vec<Netlist> {
    let mut nls: Vec<Netlist> = catalog::all()
        .iter()
        .filter(|b| b.suite == Suite::Iscas89)
        .map(BenchmarkInfo::instantiate)
        .collect();
    let stress = SynthSpec::new("stress", 64, 32, 512, 100_000, 2001)
        .with_layers(64)
        .with_fanout_hubs(32);
    nls.push(generate(&stress).expect("the stress spec is valid"));
    nls
}

fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn random_w3(next: &mut impl FnMut() -> u64) -> W3 {
    let a = next();
    let b = next();
    W3 {
        zero: a & !b,
        one: !a & b,
    }
}

/// Pre-generated reseed rounds: round 0 assigns every source, later rounds
/// a ~1/8 subset. Source `k` (the primary inputs, then the flip-flop
/// outputs) is net `sources[k]` and value slot `k`.
struct Workload {
    nl: Netlist,
    sources: Vec<NetId>,
    rounds: Vec<Vec<(usize, W3)>>,
}

fn make_workload(nl: Netlist, num_rounds: usize) -> Workload {
    let mut next = rng(0xBEEF ^ nl.num_gates() as u64);
    let mut sources: Vec<NetId> = nl.pis().to_vec();
    sources.extend(nl.ffs().iter().map(|ff| ff.q()));
    let mut rounds = Vec::with_capacity(num_rounds);
    for r in 0..num_rounds {
        let mut round: Vec<(usize, W3)> = Vec::new();
        for k in 0..sources.len() {
            if r == 0 || next() & 7 == 0 {
                round.push((k, random_w3(&mut next)));
            }
        }
        rounds.push(round);
    }
    Workload {
        nl,
        sources,
        rounds,
    }
}

/// Seeds `round` into a net-indexed array (the walker's layout).
fn seed_nets(w: &Workload, round: &[(usize, W3)], vals: &mut [W3]) {
    for &(k, val) in round {
        vals[w.sources[k].index()] = val;
    }
}

/// Seeds `round` into an array indexed by value slot (the kernel's
/// layout): source `k` is slot `k`.
fn seed_slots(round: &[(usize, W3)], vals: &mut [W3]) {
    for &(k, val) in round {
        vals[k] = val;
    }
}

/// One timed sweep over every round with the legacy pointer walker, on a
/// net-indexed array.
fn run_legacy(w: &Workload, sim: &mut CombSim<'_>, vals: &mut [W3]) {
    for round in &w.rounds {
        seed_nets(w, round, vals);
        sim.eval(vals);
    }
    black_box(vals.first().copied());
}

/// One timed sweep with compiled full passes over a caller slice indexed
/// by value slot, under `ov` when given.
fn run_compiled(w: &Workload, sim: &CompiledSim<'_>, ov: Option<&Overrides<'_>>, vals: &mut [W3]) {
    for round in &w.rounds {
        seed_slots(round, vals);
        match ov {
            Some(ov) => sim.eval_with(vals, ov),
            None => sim.eval(vals),
        }
    }
    black_box(vals.first().copied());
}

/// One word of 63 faults stride-sampled from the collapsed faults, fault
/// `k` in slot `k + 1`.
fn fault_word(nl: &Netlist) -> Vec<(Fault, u64)> {
    let universe = FaultUniverse::full(nl);
    let reps = universe.representatives();
    reps.iter()
        .step_by((reps.len() / 63).max(1))
        .take(63)
        .enumerate()
        .map(|(k, &f)| (universe.fault(f), 1 << (k + 1)))
        .collect()
}

/// Runs one compiled pass and one walker pass from round 0's sources,
/// seeded as the timed sweeps seed them, fault-free and under `faults`
/// (`ov` is their overlay), and panics unless every net's value agrees
/// through `slot_of`.
fn check_against_walker(w: &Workload, faults: &[(Fault, u64)], ov: &Overrides<'_>) {
    let nl = &w.nl;
    let cc = nl.compiled();
    let mut seeded = vec![W3::ALL_X; nl.num_nets()];
    let mut seeded_slots = vec![W3::ALL_X; nl.num_nets()];
    seed_nets(w, &w.rounds[0], &mut seeded);
    seed_slots(&w.rounds[0], &mut seeded_slots);
    for (path, injected) in [("fault-free", &[][..]), ("63-fault word", faults)] {
        let mut reference = seeded.clone();
        let mut vals = seeded_slots.clone();
        CombSim::new(nl).eval_with(&mut reference, injected);
        if injected.is_empty() {
            CompiledSim::new(cc).eval(&mut vals);
        } else {
            CompiledSim::new(cc).eval_with(&mut vals, ov);
        }
        if let Some(net) = nl
            .net_ids()
            .find(|&net| vals[cc.slot_of(net).index()] != reference[net.index()])
        {
            panic!(
                "{} ({path}): the compiled pass and the walker differ on net `{}`",
                nl.name(),
                nl.net_name(net)
            );
        }
    }
}

/// The vector-omission workload: a random sequence over a catalog circuit
/// plus the faults it detects (the set every omission must preserve).
struct OmissionWorkload {
    nl: Netlist,
    init: Vec<V3>,
    seq: atspeed_sim::Sequence,
    targets: Vec<FaultId>,
    universe: FaultUniverse,
}

fn make_omission_workload(info: &BenchmarkInfo, seq_len: usize) -> OmissionWorkload {
    let nl = info.instantiate();
    let universe = FaultUniverse::full(&nl);
    let seq = random_t0(&nl, seq_len, 0xA75);
    let init = vec![V3::Zero; nl.num_ffs()];
    let mut fsim = SeqFaultSim::new(&nl);
    let reps: Vec<FaultId> = universe.representatives().to_vec();
    let det = fsim.detect(&init, &seq, &reps, &universe, true);
    let targets = reps
        .iter()
        .zip(det.iter())
        .filter(|(_, &d)| d)
        .map(|(&f, _)| f)
        .collect();
    OmissionWorkload {
        nl,
        init,
        seq,
        targets,
        universe,
    }
}

fn run_omission(w: &OmissionWorkload, threads: usize) -> (usize, usize) {
    let cfg = OmissionConfig {
        sim: SimConfig::with_threads(threads),
        ..OmissionConfig::default()
    };
    let (short, stats) = omit_vectors(&w.nl, &w.universe, &w.init, &w.seq, &w.targets, true, cfg);
    black_box(short.len());
    (stats.attempts, stats.removed)
}

fn bench_kernels(c: &mut Criterion) {
    // Smoke mode (plain `cargo test`) keeps every group tiny.
    let (rounds, samples) = if bench_mode() { (64, 10) } else { (4, 1) };

    for nl in selected() {
        let w = make_workload(nl, rounds);
        let cc = w.nl.compiled();
        let faults = fault_word(&w.nl);
        let mut ov = Overrides::new(cc);
        for &(fault, mask) in &faults {
            ov.add(fault, mask);
        }
        check_against_walker(&w, &faults, &ov);
        let mut g = c.benchmark_group(format!("kernels_{}", w.nl.name()));
        g.sample_size(samples);
        let mut legacy = CombSim::new(&w.nl);
        let mut net_vals = vec![W3::ALL_X; w.nl.num_nets()];
        g.bench_function("legacy", |b| {
            b.iter(|| run_legacy(&w, &mut legacy, &mut net_vals))
        });
        let sim = CompiledSim::new(cc);
        let mut vals = vec![W3::ALL_X; w.nl.num_nets()];
        g.bench_function("compiled", |b| {
            b.iter(|| run_compiled(&w, &sim, None, &mut vals))
        });
        g.bench_function("compiled_63_faults", |b| {
            b.iter(|| run_compiled(&w, &sim, Some(&ov), &mut vals))
        });
        g.finish();
    }

    // Phase-2 omission at 1, 2 and 4 threads on a fixed catalog circuit
    // (results are identical at every thread count; only the sweep-start
    // profiles are sharded, so only wall time differs).
    let om_info = catalog::by_name("s298").expect("s298 is in the catalog");
    let om_len = if bench_mode() { 48 } else { 12 };
    let ow = make_omission_workload(&om_info, om_len);
    let mut g = c.benchmark_group("omission_s298");
    g.sample_size(samples);
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("t{threads}").as_str(), |b| {
            b.iter(|| run_omission(&ow, threads))
        });
    }
    g.finish();
}

criterion_group!(kernels, bench_kernels);
criterion_main!(kernels);
