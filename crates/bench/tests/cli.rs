//! Command-line surface of the bench binaries.

/// `--engine` was retired with the evaluation-kernel knob: `stress`
/// refuses it as an unknown argument before doing any work.
#[test]
fn stress_rejects_retired_engine_flag() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_stress"))
        .args(["--engine", "scalar"])
        .output()
        .expect("spawn stress");
    assert!(!out.status.success(), "stress accepted --engine");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--engine`"), "{stderr}");
}
