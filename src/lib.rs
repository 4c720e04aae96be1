//! # atspeed
//!
//! A reproduction of **I. Pomeranz and S. M. Reddy, "An Approach to Test
//! Compaction for Scan Circuits that Enhances At-Speed Testing" (DAC 2001)**,
//! together with every substrate the paper depends on, implemented from
//! scratch in Rust:
//!
//! - [`circuit`] — gate-level netlists, the ISCAS-89 `.bench` format, and a
//!   deterministic synthetic benchmark catalog;
//! - [`sim`] — bit-parallel 3-valued logic simulation and stuck-at fault
//!   simulation (combinational PPSFP and sequential parallel-fault);
//! - [`atpg`] — combinational ATPG (PODEM) and sequential test-sequence
//!   generators standing in for STRATEGATE and PROPTEST;
//! - [`core`] — the paper's four-phase compaction procedure, the static
//!   test-combining compaction of \[4\], a dynamic-compaction baseline in the
//!   spirit of \[2,3\], and the clock-cycle cost model;
//! - [`trace`] — workspace telemetry: hierarchical spans with Chrome
//!   trace-event export, a counter/gauge/histogram registry, and leveled
//!   structured JSONL logs.
//!
//! This facade crate re-exports the five member crates under stable names.
//! See the workspace `README.md` for a tour and `DESIGN.md` for the
//! paper-to-module map.
//!
//! # Quickstart
//!
//! ```
//! use atspeed::circuit::bench_fmt::s27;
//! use atspeed::core::{Pipeline, T0Source};
//!
//! let netlist = s27();
//! let result = Pipeline::new(&netlist)
//!     .t0_source(T0Source::Directed { max_len: 64 })
//!     .seed(7)
//!     .run()
//!     .expect("pipeline runs on s27");
//! assert!(result.final_detected >= result.tau_seq_detected);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use atspeed_atpg as atpg;
pub use atspeed_circuit as circuit;
pub use atspeed_core as core;
pub use atspeed_sim as sim;
pub use atspeed_trace as trace;
