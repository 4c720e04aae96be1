//! Differential verification for the test-compaction workspace.
//!
//! Every engine in this workspace can be run two independent ways: the
//! legacy pointer-walking evaluator against the compiled CSR kernel, the
//! serial fault simulators against the multi-threaded
//! [`ParallelFsim`](atspeed_sim::ParallelFsim) front end, and the
//! vector-omission sweep at one thread against the same sweep with its
//! profiles fault-sharded across several. That redundancy is this crate's
//! raw material. It provides:
//!
//! - [`fuzz`] — a differential fuzzer that drives
//!   [`synth::generate`](atspeed_circuit::synth::generate) through
//!   randomized (circuit, sequence, fault-set, thread-count) cases and
//!   asserts that every engine pair agrees bit-for-bit;
//! - [`shrink`] — a minimizer that walks failing cases down through
//!   generator-parameter space
//!   ([`SynthSpec::shrink_candidates`](atspeed_circuit::synth::SynthSpec::shrink_candidates)),
//!   sequence truncation, and fault subsetting until no smaller case still
//!   fails;
//! - [`repro`] — reproducible failure bundles: a `.bench` circuit, a
//!   vector file, and the case parameters, dumped to disk and loadable for
//!   replay;
//! - a re-export of the end-to-end coverage oracle that lives in
//!   [`atspeed_core::oracle`] (it must sit in `core` so the pipeline can
//!   call it behind [`Pipeline::verify`](atspeed_core::Pipeline::verify)).
//!
//! The `verifier` binary in the bench crate is the command-line front end.
//!
//! # Example
//!
//! ```
//! use atspeed_verify::fuzz::{run_fuzz, FuzzConfig};
//!
//! let outcome = run_fuzz(&FuzzConfig {
//!     seed: 0,
//!     iters: 3,
//!     ..FuzzConfig::default()
//! });
//! assert_eq!(outcome.cases_run, 3);
//! assert!(outcome.failures.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod repro;
pub mod shrink;

pub use atspeed_core::oracle::{verify_test_set, ClaimedCoverage, OracleReport};
pub use fuzz::{
    run_case, run_fuzz, run_malformed_fuzz, Case, CaseReport, Divergence, FuzzConfig, FuzzFailure,
    FuzzOutcome, MalformedOutcome,
};
pub use repro::{
    decode_stimuli, dump_repro, encode_stimuli, load_repro, replay, ReplayReport, ReproBundle,
    ReproError,
};
pub use shrink::{minimize, minimize_with};
