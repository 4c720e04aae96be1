//! Reproducible failure bundles.
//!
//! A diverging [`Case`] dumps to a directory holding everything needed to
//! replay it without this crate's generator in the loop:
//!
//! - `circuit.bench` — the generated circuit in `.bench` format;
//! - `vectors.txt` — the stimuli: line 1 is the initial flip-flop state
//!   (one `0`/`1`/`x` per flip-flop, scan-chain order), every following
//!   line one primary-input vector per functional clock cycle;
//! - `case.txt` — the generator parameters, seeds, and the divergence,
//!   as `key = value` lines.
//!
//! [`load_repro`] parses the bundle back (rejecting malformed vector files
//! through [`try_parse_values`]) and [`replay`] re-runs the serial-vs-
//! parallel differentials on the loaded artifacts.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use atspeed_atpg::compact::{check_omission_differential, OmissionConfig};
use atspeed_circuit::{bench_fmt, synth::generate, Netlist};
use atspeed_sim::fault::{FaultId, FaultUniverse};
use atspeed_sim::{try_parse_values, ParseError, Sequence, State};

use crate::fuzz::{
    case_stimuli, check_atpg, check_incremental, check_resume, check_score, check_seq_detect, Case,
    Divergence,
};

/// Why a bundle failed to dump or load.
#[derive(Debug)]
pub enum ReproError {
    /// Filesystem trouble.
    Io(io::Error),
    /// The `.bench` text did not parse (or the case's spec did not generate).
    Circuit(String),
    /// A vector line held a character outside `0`, `1`, `x`, `X`.
    Vectors(ParseError),
    /// The files parse individually but disagree with each other (missing
    /// lines, vector width not matching the circuit interface).
    Layout(String),
}

impl std::fmt::Display for ReproError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReproError::Io(e) => write!(f, "repro bundle i/o error: {e}"),
            ReproError::Circuit(e) => write!(f, "repro bundle circuit error: {e}"),
            ReproError::Vectors(e) => write!(f, "repro bundle vector error: {e}"),
            ReproError::Layout(e) => write!(f, "repro bundle layout error: {e}"),
        }
    }
}

impl std::error::Error for ReproError {}

impl From<io::Error> for ReproError {
    fn from(e: io::Error) -> Self {
        ReproError::Io(e)
    }
}

/// A loaded reproduction bundle.
#[derive(Debug, Clone)]
pub struct ReproBundle {
    /// The circuit under test.
    pub netlist: Netlist,
    /// Initial flip-flop state.
    pub init: State,
    /// At-speed input sequence.
    pub seq: Sequence,
}

fn values_line(values: &[atspeed_sim::V3]) -> String {
    values.iter().map(|v| v.to_string()).collect()
}

/// Encodes stimuli in the bundle's `vectors.txt` wire format: line 1 is
/// the initial flip-flop state (one `0`/`1`/`x` per flip-flop), every
/// following line one primary-input vector per functional clock cycle.
///
/// The output is canonical — [`decode_stimuli`] followed by
/// `encode_stimuli` is the identity on well-formed text — which is what
/// lets a result cache compare serialized responses byte-for-byte.
pub fn encode_stimuli(init: &State, seq: &Sequence) -> String {
    let mut text = values_line(init);
    text.push('\n');
    for t in 0..seq.len() {
        text.push_str(&values_line(seq.vector(t)));
        text.push('\n');
    }
    text
}

/// Decodes the `vectors.txt` wire format against a circuit interface of
/// `num_ffs` flip-flops and `num_pis` primary inputs.
///
/// # Errors
///
/// Every malformed input is a distinct [`ReproError`], never a panic: a
/// bad logic character is [`ReproError::Vectors`] (with the offending
/// character and position), a missing line or width mismatch is
/// [`ReproError::Layout`]. Blank lines between vectors are tolerated.
pub fn decode_stimuli(
    text: &str,
    num_ffs: usize,
    num_pis: usize,
) -> Result<(State, Sequence), ReproError> {
    let mut lines = text.lines();
    let init_line = lines
        .next()
        .ok_or_else(|| ReproError::Layout("vectors.txt is empty".into()))?;
    let init = try_parse_values(init_line).map_err(ReproError::Vectors)?;
    if init.len() != num_ffs {
        return Err(ReproError::Layout(format!(
            "initial state has {} values but the circuit has {} flip-flops",
            init.len(),
            num_ffs
        )));
    }
    let mut seq = Sequence::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = try_parse_values(line).map_err(ReproError::Vectors)?;
        if v.len() != num_pis {
            return Err(ReproError::Layout(format!(
                "vector on line {} has {} values but the circuit has {} inputs",
                lineno + 2,
                v.len(),
                num_pis
            )));
        }
        seq.push(v);
    }
    Ok((init, seq))
}

/// Writes the reproduction bundle for `case` under `root` and returns the
/// bundle directory (`root/case-<circuit seed>-<data seed>/`).
///
/// # Errors
///
/// [`ReproError::Circuit`] if the case's spec no longer generates,
/// [`ReproError::Io`] on filesystem trouble.
pub fn dump_repro(
    root: &Path,
    case: &Case,
    divergence: &Divergence,
) -> Result<PathBuf, ReproError> {
    let nl = generate(&case.spec).map_err(|e| ReproError::Circuit(e.to_string()))?;
    let (init, seq) = case_stimuli(case, &nl);
    let dir = root.join(format!(
        "case-{:016x}-{:016x}",
        case.spec.seed, case.data_seed
    ));
    fs::create_dir_all(&dir)?;

    fs::write(dir.join("circuit.bench"), bench_fmt::write(&nl))?;

    fs::write(dir.join("vectors.txt"), encode_stimuli(&init, &seq))?;

    let case_txt = format!(
        "check = {}\ndetail = {}\nname = {}\nnum_pis = {}\nnum_pos = {}\nnum_ffs = {}\n\
         num_gates = {}\nlayers = {}\nfanout_hubs = {}\ncircuit_seed = {}\ndata_seed = {}\n\
         seq_len = {}\nfault_cap = {}\nreplay = verifier --replay {}\n",
        divergence.check,
        divergence.detail,
        case.spec.name,
        case.spec.num_pis,
        case.spec.num_pos,
        case.spec.num_ffs,
        case.spec.num_gates,
        case.spec.layers,
        case.spec.fanout_hubs,
        case.spec.seed,
        case.data_seed,
        case.seq_len,
        case.fault_cap,
        dir.display(),
    );
    fs::write(dir.join("case.txt"), case_txt)?;
    Ok(dir)
}

/// Loads a bundle written by [`dump_repro`] (or assembled by hand — any
/// `.bench` circuit plus a vector file works).
///
/// # Errors
///
/// Every malformed input is a distinct [`ReproError`]; in particular a bad
/// logic character in `vectors.txt` surfaces as [`ReproError::Vectors`]
/// with the offending character and position, not a panic.
pub fn load_repro(dir: &Path) -> Result<ReproBundle, ReproError> {
    let name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("repro")
        .to_owned();
    let bench = fs::read_to_string(dir.join("circuit.bench"))?;
    let netlist =
        bench_fmt::parse(&name, &bench).map_err(|e| ReproError::Circuit(e.to_string()))?;

    let text = fs::read_to_string(dir.join("vectors.txt"))?;
    let (init, seq) = decode_stimuli(&text, netlist.num_ffs(), netlist.num_pis())?;
    Ok(ReproBundle { netlist, init, seq })
}

/// The seed of the scan-in states [`replay`] scores (a bundle records no
/// draw of its own).
const REPLAY_SCORE_SEED: u64 = 0x5c0e;

/// What [`replay`] exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Collapsed faults simulated.
    pub faults: usize,
    /// Faults the sequence detects (serial reference).
    pub detected: usize,
    /// Whether the omission differential ran (it needs ≥ 2 vectors and at
    /// least one detected fault).
    pub omission_checked: bool,
}

/// Re-runs the serial-vs-parallel differentials on a loaded bundle: the
/// sequential detection comparison at each thread count, the resume check
/// at every split of the sequence (the bundle does not record the split a
/// fuzz case drew), the incremental-simulator check, the vector omission
/// differential on the detected faults, the PODEM check, then the
/// candidate-scoring check on random scan-in states drawn from a fixed
/// seed.
///
/// # Errors
///
/// Returns the [`Divergence`] if the engines still disagree on the bundle.
pub fn replay(bundle: &ReproBundle, threads: &[usize]) -> Result<ReplayReport, Divergence> {
    let nl = &bundle.netlist;
    let u = FaultUniverse::full(nl);
    let faults: Vec<FaultId> = u.representatives().to_vec();
    let serial = check_seq_detect(nl, &u, &bundle.init, &bundle.seq, &faults, threads)?;
    for split in 0..=bundle.seq.len() {
        check_resume(
            nl,
            &u,
            &bundle.init,
            &bundle.seq,
            &faults,
            &serial,
            split,
            threads,
        )?;
    }
    check_incremental(nl, &u, &bundle.init, &bundle.seq, &faults)?;
    let targets: Vec<FaultId> = faults
        .iter()
        .zip(&serial)
        .filter_map(|(&f, &d)| d.then_some(f))
        .collect();
    let omission_checked = bundle.seq.len() > 1 && !targets.is_empty();
    if omission_checked {
        check_omission_differential(
            nl,
            &u,
            &bundle.init,
            &bundle.seq,
            &targets,
            true,
            OmissionConfig::default(),
            threads,
        )
        .map_err(|d| Divergence {
            check: "omission",
            detail: d.to_string(),
        })?;
    }
    check_atpg(nl, &u, &faults)?;
    check_score(nl, &u, &bundle.seq, &faults, REPLAY_SCORE_SEED)?;
    Ok(ReplayReport {
        faults: faults.len(),
        detected: targets.len(),
        omission_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_circuit::synth::SynthSpec;

    fn scratch_dir(test: &str) -> PathBuf {
        std::env::temp_dir().join(format!("atspeed-verify-{}-{test}", std::process::id()))
    }

    fn small_case() -> Case {
        Case {
            spec: SynthSpec::new("fuzz", 3, 2, 2, 12, 42),
            data_seed: 7,
            seq_len: 5,
            fault_cap: 10,
        }
    }

    fn divergence() -> Divergence {
        Divergence {
            check: "seq-detect",
            detail: "synthetic bundle for tests".into(),
        }
    }

    #[test]
    fn dump_then_load_round_trips() {
        let root = scratch_dir("roundtrip");
        let case = small_case();
        let dir = dump_repro(&root, &case, &divergence()).unwrap();
        let bundle = load_repro(&dir).unwrap();

        let nl = generate(&case.spec).unwrap();
        assert_eq!(bundle.netlist.num_pis(), nl.num_pis());
        assert_eq!(bundle.netlist.num_ffs(), nl.num_ffs());
        assert_eq!(bundle.netlist.num_gates(), nl.num_gates());
        let (init, seq) = case_stimuli(&case, &nl);
        assert_eq!(bundle.init, init);
        assert_eq!(bundle.seq, seq);

        let case_txt = fs::read_to_string(dir.join("case.txt")).unwrap();
        assert!(case_txt.contains("check = seq-detect"));
        assert!(case_txt.contains("circuit_seed = 42"));

        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_passes_on_a_healthy_bundle() {
        let root = scratch_dir("replay");
        let dir = dump_repro(&root, &small_case(), &divergence()).unwrap();
        let bundle = load_repro(&dir).unwrap();
        let rep = replay(&bundle, &[2]).expect("healthy engines agree on replay");
        assert!(rep.faults > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stimuli_codec_round_trips_canonically() {
        let case = small_case();
        let nl = generate(&case.spec).unwrap();
        let (init, seq) = case_stimuli(&case, &nl);
        let text = encode_stimuli(&init, &seq);
        let (init2, seq2) = decode_stimuli(&text, nl.num_ffs(), nl.num_pis()).unwrap();
        assert_eq!(init, init2);
        assert_eq!(seq, seq2);
        // Canonical: re-encoding the decoded stimuli is byte-identical.
        assert_eq!(encode_stimuli(&init2, &seq2), text);
    }

    #[test]
    fn bad_logic_character_is_a_vector_error_not_a_panic() {
        let root = scratch_dir("badchar");
        let dir = dump_repro(&root, &small_case(), &divergence()).unwrap();
        // Corrupt one vector: `q` is not a logic value.
        fs::write(dir.join("vectors.txt"), "00\n01q\n").unwrap();
        match load_repro(&dir) {
            Err(ReproError::Vectors(e)) => {
                assert_eq!(e.character, 'q');
                assert_eq!(e.position, 2);
            }
            other => panic!("expected a vector error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_vector_width_is_a_layout_error() {
        let root = scratch_dir("width");
        let dir = dump_repro(&root, &small_case(), &divergence()).unwrap();
        // Initial state is fine (2 FFs) but the vector is too narrow (3 PIs).
        fs::write(dir.join("vectors.txt"), "00\n01\n").unwrap();
        match load_repro(&dir) {
            Err(ReproError::Layout(msg)) => assert!(msg.contains("3 inputs"), "{msg}"),
            other => panic!("expected a layout error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }
}
