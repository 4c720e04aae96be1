//! End-to-end integration tests spanning all workspace crates: the complete
//! proposed procedure on the s27 golden fixture and on synthetic circuits,
//! checked against the paper's structural claims.

use atspeed::atpg::comb_tset::{self, CombTsetConfig};
use atspeed::circuit::bench_fmt::s27;
use atspeed::circuit::synth::{generate, SynthSpec};
use atspeed::core::dynamic::{dynamic_schedule, DynamicConfig};
use atspeed::core::phase4::baseline4;
use atspeed::core::{Pipeline, T0Source};
use atspeed::sim::fault::FaultUniverse;

#[test]
fn s27_proposed_procedure_end_to_end() {
    let nl = s27();
    let r = Pipeline::new(&nl)
        .t0_source(T0Source::Directed { max_len: 64 })
        .seed(2001)
        .run()
        .unwrap();

    // Classic s27 facts.
    assert_eq!(r.n_sv, 3);
    assert_eq!(r.total_faults, 32);
    assert_eq!(r.final_detected, 32);

    // Paper's structural claims.
    assert!(r.t0_detected <= r.tau_seq_detected, "F_SI ⊇ F_0");
    assert!(
        r.tau_seq_len <= r.t0_len,
        "T_seq is a compacted prefix of T_0"
    );
    assert!(r.comp_cycles <= r.init_cycles, "Phase 4 never hurts");

    // Cost model spot-check: k tests -> (k+1)*N_SV + total vectors.
    let k = r.initial_set.len();
    assert_eq!(r.init_cycles, (k + 1) * 3 + r.initial_set.total_vectors());
}

#[test]
fn proposed_final_set_actually_detects_what_it_claims() {
    let nl = s27();
    let r = Pipeline::new(&nl).seed(3).run().unwrap();
    let universe = FaultUniverse::full(&nl);
    let reps = universe.representatives().to_vec();
    let measured = r.compacted_set.count_detected(&nl, &universe, &reps);
    assert_eq!(
        measured, r.final_detected,
        "reported final coverage must match re-simulation"
    );
}

#[test]
fn proposed_beats_baseline4_initial_on_synthetic_circuit() {
    // The paper's headline (Table 3): the proposed initial test set needs
    // fewer clock cycles than [4]'s initial test set. With few flip-flops
    // the margin shrinks, so use a state-heavy circuit.
    let nl = generate(&SynthSpec::new("headline", 4, 3, 24, 200, 77)).unwrap();
    let universe = FaultUniverse::full(&nl);
    let targets = universe.representatives().to_vec();
    let r = Pipeline::new(&nl)
        .t0_source(T0Source::Directed { max_len: 512 })
        .seed(2001)
        .run()
        .unwrap();
    let b4 = baseline4(&nl, &universe, &r.comb_tests, &targets);
    let n_sv = nl.num_ffs();
    assert!(
        r.init_cycles < b4.initial.clock_cycles(n_sv),
        "proposed init ({}) should beat [4] init ({})",
        r.init_cycles,
        b4.initial.clock_cycles(n_sv)
    );
    // And the proposed sets carry much longer at-speed sequences.
    let prop_max = r.at_speed_comp.unwrap().max;
    let b4_max = b4.compacted.at_speed_stats().unwrap().max;
    assert!(
        prop_max >= b4_max,
        "proposed at-speed max {prop_max} vs [4] {b4_max}"
    );
}

#[test]
fn all_three_methods_cover_the_same_fault_universe() {
    let nl = generate(&SynthSpec::new("coverage", 4, 2, 10, 120, 5)).unwrap();
    let universe = FaultUniverse::full(&nl);
    let targets = universe.representatives().to_vec();
    let r = Pipeline::new(&nl).seed(1).run().unwrap();
    let b4 = baseline4(&nl, &universe, &r.comb_tests, &targets);
    let dyn_r = dynamic_schedule(
        &nl,
        &universe,
        &r.comb_tests,
        &targets,
        &DynamicConfig::default(),
    );

    // [4]'s compacted set must cover whatever its initial set covered.
    let init_cov = b4.initial.count_detected(&nl, &universe, &targets);
    let comp_cov = b4.compacted.count_detected(&nl, &universe, &targets);
    assert!(comp_cov >= init_cov);

    // The proposed final set covers everything C can cover.
    assert!(r.final_detected >= comp_cov);

    // The dynamic baseline reaches a comparable coverage level.
    assert!(dyn_r.detected * 10 >= comp_cov * 8);
}

#[test]
fn shared_comb_test_set_keeps_flows_comparable() {
    // The paper uses the same C for [4] and the proposed procedure; the
    // pipeline result must expose that C for baselines.
    let nl = s27();
    let r = Pipeline::new(&nl).seed(9).run().unwrap();
    let universe = FaultUniverse::full(&nl);
    let c = comb_tset::generate(&nl, &universe, &{
        let mut cfg = CombTsetConfig::default();
        cfg.seed = cfg.seed.wrapping_add(9u64.wrapping_mul(0x9e37_79b9));
        cfg
    })
    .unwrap();
    assert_eq!(r.comb_tests.len(), c.tests.len());
    assert_eq!(r.num_comb_tests, c.tests.len());
}

#[test]
fn pipeline_with_random_t0_reaches_complete_coverage_on_s27() {
    let nl = s27();
    let r = Pipeline::new(&nl)
        .t0_source(T0Source::Random { len: 200 })
        .seed(4)
        .run()
        .unwrap();
    assert_eq!(r.final_detected, 32);
    assert_eq!(r.t0_len, 200);
    // The paper's Table 5 shape: random T0 detects fewer faults than the
    // scan-based tau_seq built from it.
    assert!(r.t0_detected <= r.tau_seq_detected);
}

/// Gates of 17 to 256 inputs run through the whole pipeline: PODEM's pin
/// scratch was 16 wide and indexed past its end on them.
#[test]
fn pipeline_runs_on_gates_up_to_the_fanin_cap() {
    use atspeed::circuit::{GateKind, NetlistBuilder, MAX_FANIN};
    use atspeed::sim::V3;
    let names: Vec<String> = (0..MAX_FANIN).map(|i| format!("i{i}")).collect();
    let mut b = NetlistBuilder::new("wide");
    for n in &names {
        b.input(n);
    }
    b.dff("q", "d");
    let pins: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut pins17 = pins[..16].to_vec();
    pins17.push("q");
    b.gate(GateKind::And, "w17", &pins17);
    b.gate(GateKind::And, "w256", &pins);
    b.gate(GateKind::Xor, "d", &["w17", "i0"]);
    b.output("w256");
    b.output("d");
    let nl = b.finish().unwrap();
    let r = Pipeline::new(&nl)
        .t0_source(T0Source::Random { len: 16 })
        .seed(5)
        .run()
        .unwrap();
    assert!(r.final_detected > 0);
    // Only a test with every input at 1 detects w256 stuck-at-0, and no
    // random fill finds one, so PODEM must have made it.
    assert!(
        r.comb_tests
            .iter()
            .any(|t| t.inputs.iter().all(|&v| v == V3::One)),
        "no test sets all 256 inputs"
    );
}
