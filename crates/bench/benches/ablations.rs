//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! - omission sweep style (chunked delta-debugging rounds vs. plain
//!   single-vector passes);
//! - Phase 4 combining with vs. without transfer sequences ([7]);
//! - scan-out rule i0 vs. i1 (the paper's Section 3.1 discussion).

use atspeed_atpg::comb_tset::{self, CombTsetConfig};
use atspeed_atpg::compact::{omit_vectors, OmissionConfig};
use atspeed_atpg::{directed_t0, DirectedConfig};
use atspeed_circuit::catalog;
use atspeed_core::iterate::{build_tau_seq, IterateConfig};
use atspeed_core::phase4::{combine_tests_cfg, CombineConfig, TransferConfig};
use atspeed_core::{Phase1Config, ScanOutRule, TestSet};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{SeqFaultSim, V3};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_omission_styles(c: &mut Criterion) {
    let nl = catalog::by_name("s298").unwrap().instantiate();
    let u = FaultUniverse::full(&nl);
    let targets: Vec<FaultId> = u.representatives().to_vec();
    let t0 = directed_t0(
        &nl,
        &u,
        &targets,
        &DirectedConfig {
            max_len: 96,
            ..DirectedConfig::default()
        },
    );
    let init = vec![V3::Zero; nl.num_ffs()];
    let mut fsim = SeqFaultSim::new(&nl);
    let det = fsim.detect(&init, &t0, &targets, &u, true);
    let detected: Vec<FaultId> = targets
        .iter()
        .zip(det.iter())
        .filter(|(_, &d)| d)
        .map(|(&f, _)| f)
        .collect();

    let mut g = c.benchmark_group("ablation_omission");
    g.sample_size(10);
    for (label, chunked) in [("chunked", true), ("plain", false)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cfg = OmissionConfig {
                    chunked,
                    max_passes: 1,
                    ..OmissionConfig::default()
                };
                let (seq, stats) = omit_vectors(&nl, &u, &init, &t0, &detected, true, cfg);
                black_box((seq.len(), stats.attempts))
            })
        });
    }
    g.finish();
}

fn bench_transfer_sequences(c: &mut Criterion) {
    let nl = catalog::by_name("b06").unwrap().instantiate();
    let u = FaultUniverse::full(&nl);
    let targets: Vec<FaultId> = u.representatives().to_vec();
    let comb = comb_tset::generate(&nl, &u, &CombTsetConfig::default())
        .unwrap()
        .tests;
    let set = TestSet::from_comb_tests(&comb);

    let mut g = c.benchmark_group("ablation_transfer");
    g.sample_size(10);
    for (label, transfer) in [
        ("plain", None),
        ("with_transfer", Some(TransferConfig::default())),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cfg = CombineConfig {
                    transfer,
                    ..CombineConfig::default()
                };
                let (out, stats) = combine_tests_cfg(&nl, &u, &set, &targets, cfg);
                black_box((out.len(), stats.combinations, stats.transfer_combinations))
            })
        });
    }
    g.finish();
}

fn bench_scan_out_rules(c: &mut Criterion) {
    let nl = catalog::by_name("b02").unwrap().instantiate();
    let u = FaultUniverse::full(&nl);
    let targets: Vec<FaultId> = u.representatives().to_vec();
    let comb = comb_tset::generate(&nl, &u, &CombTsetConfig::default())
        .unwrap()
        .tests;
    let t0 = directed_t0(
        &nl,
        &u,
        &targets,
        &DirectedConfig {
            max_len: 64,
            ..DirectedConfig::default()
        },
    );

    let mut g = c.benchmark_group("ablation_scan_out");
    g.sample_size(10);
    for (label, rule) in [
        ("i0_earliest", ScanOutRule::EarliestComplete),
        ("i1_max_detect", ScanOutRule::MaxDetectEarliest),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let cfg = IterateConfig {
                    phase1: Phase1Config {
                        scan_out_rule: rule,
                        ..IterateConfig::default().phase1
                    },
                    ..IterateConfig::default()
                };
                let r = build_tau_seq(&nl, &u, &t0, &comb, &targets, cfg).unwrap();
                black_box((r.test.len(), r.detected.len()))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_omission_styles,
    bench_transfer_sequences,
    bench_scan_out_rules
);
criterion_main!(benches);
