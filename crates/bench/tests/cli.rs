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

/// A size flag above its bound is refused with exit code 1 before any
/// work: an unbounded `--t0-len` reached `random_t0`, which aborted the
/// process on a failed allocation of every vector up front.
#[test]
fn stress_rejects_oversized_size_flags() {
    for (flag, value) in [
        ("--t0-len", "1000000000000"),
        ("--gates", "1000000000000"),
        ("--ffs", "1000000000000"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_stress"))
            .args([
                "--gates", "500", "--ffs", "10", "--faults", "8", flag, value,
            ])
            .output()
            .expect("spawn stress");
        assert_eq!(out.status.code(), Some(1), "{flag}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{stderr}");
    }
}
