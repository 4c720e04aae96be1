//! Kernel micro-benchmarks: the legacy pointer walker vs the compiled full
//! pass over the ISCAS-89 circuits of the catalog, and Phase-2 vector
//! omission on s298 at 1, 2 and 4 threads.
//!
//! The kernel workload is a sequence of reseed-and-evaluate rounds: round 0
//! assigns every source net a random 3-valued word, later rounds reseed a
//! small random subset, as consecutive cycles of a sequential simulation
//! do. Both kernels compute identical values (the differential tests in
//! `atspeed-sim` prove it); only the traversal differs.
//!
//! The Criterion timings are for local comparison; the counts a change is
//! judged by come from the benchmark in `perfbench/`.

use atspeed_atpg::compact::{omit_vectors, OmissionConfig};
use atspeed_atpg::random_t0;
use atspeed_circuit::catalog::{self, BenchmarkInfo, Suite};
use atspeed_circuit::{NetId, Netlist};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{CombSim, CompiledSim, SeqFaultSim, SimConfig, V3, W3};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

fn selected() -> Vec<BenchmarkInfo> {
    catalog::all()
        .iter()
        .copied()
        .filter(|b| b.suite == Suite::Iscas89)
        .collect()
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
/// a ~1/8 subset.
struct Workload {
    nl: Netlist,
    rounds: Vec<Vec<(NetId, W3)>>,
}

fn make_workload(info: &BenchmarkInfo, num_rounds: usize) -> Workload {
    let nl = info.instantiate();
    let mut next = rng(0xBEEF ^ info.num_gates as u64);
    let mut sources: Vec<NetId> = nl.pis().to_vec();
    sources.extend(nl.ffs().iter().map(|ff| ff.q()));
    let mut rounds = Vec::with_capacity(num_rounds);
    for r in 0..num_rounds {
        let mut round: Vec<(NetId, W3)> = Vec::new();
        for &s in &sources {
            if r == 0 || next() & 7 == 0 {
                round.push((s, random_w3(&mut next)));
            }
        }
        rounds.push(round);
    }
    Workload { nl, rounds }
}

/// One timed sweep over every round with the legacy pointer walker.
fn run_legacy(w: &Workload, sim: &mut CombSim<'_>, vals: &mut [W3]) {
    for round in &w.rounds {
        for &(net, val) in round {
            vals[net.index()] = val;
        }
        sim.eval(vals);
    }
    black_box(vals.first().copied());
}

/// One timed sweep with compiled full passes over a caller slice.
fn run_compiled(w: &Workload, sim: &CompiledSim<'_>, vals: &mut [W3]) {
    for round in &w.rounds {
        for &(net, val) in round {
            vals[net.index()] = val;
        }
        sim.eval(vals);
    }
    black_box(vals.first().copied());
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

    for info in selected() {
        let w = make_workload(&info, rounds);
        let cc = w.nl.compiled();
        let mut g = c.benchmark_group(format!("kernels_{}", info.name));
        g.sample_size(samples);
        let mut legacy = CombSim::new(&w.nl);
        let mut vals = vec![W3::ALL_X; w.nl.num_nets()];
        g.bench_function("legacy", |b| {
            b.iter(|| run_legacy(&w, &mut legacy, &mut vals))
        });
        let sim = CompiledSim::new(cc);
        let mut vals = vec![W3::ALL_X; w.nl.num_nets()];
        g.bench_function("compiled", |b| b.iter(|| run_compiled(&w, &sim, &mut vals)));
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
