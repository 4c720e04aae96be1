//! Bit-parallel 3-valued logic simulation and stuck-at fault simulation.
//!
//! This crate is the simulation substrate of the reproduction of
//! Pomeranz & Reddy (DAC 2001). It provides:
//!
//! - [`logic`] — a 3-valued (0/1/X) logic system packed 64 slots per word,
//!   so one gate evaluation advances 64 independent machines;
//! - [`vectors`] — primary-input sequences and state vectors;
//! - [`kernel`] — the compiled full-pass kernel over a circuit's evaluation
//!   program, and the per-op [`Overrides`] overlay that injects faults;
//! - [`comb`] — the reference walker over the pointer-based netlist, with
//!   its own fault injection;
//! - [`fault`] — the single stuck-at fault universe with structural
//!   equivalence collapsing;
//! - [`fsim_comb`] — parallel-pattern single-fault (PPSFP) combinational
//!   fault simulation over the full-scan view, with an event-driven
//!   propagation core;
//! - [`fsim_seq`] — parallel-fault sequential fault simulation (good machine
//!   in slot 0, up to 63 faulty machines per word) producing the *detection
//!   profiles* (earliest primary-output detection time, per-cycle state
//!   difference sets) that Phase 1 of the paper consumes, the
//!   [`EndStates`] records that let Phase 4 check `T_i T_j` by simulating
//!   `T_j` alone, the [`SweepRecord`] that lets vector omission check an
//!   omission by simulating only the vectors after it, and the
//!   [`IncrementalSim`] that extends a sequence one vector at a time;
//! - [`lanes`] — Phase 1's candidate scoring: every scan-in state of a call
//!   against one sequence in a single lane-packed simulation
//!   ([`score_scan_ins`]);
//! - [`parallel`] — [`ParallelFsim`], a multi-threaded front end that
//!   shards faults (or tests, with cross-partition fault dropping through
//!   a shared atomic bitmap) across scoped workers behind a [`SimConfig`],
//!   and [`parallel::claim_map`], the one claim loop every worker pool in
//!   the workspace runs on; `threads = 1` reproduces the serial engines
//!   bit-for-bit;
//! - [`stats`] — per-phase instrumentation counters (gate evaluations,
//!   fault-sim invocations, faults dropped, wall time per partition)
//!   snapshotted into a [`SimReport`].
//!
//! # Example
//!
//! ```
//! use atspeed_circuit::bench_fmt::s27;
//! use atspeed_sim::fault::FaultUniverse;
//!
//! let nl = s27();
//! let faults = FaultUniverse::full(&nl);
//! // s27's classic fault statistics: 52 uncollapsed, 32 collapsed.
//! assert_eq!(faults.num_faults(), 52);
//! assert_eq!(faults.num_collapsed(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comb;
pub mod fault;
pub mod fsim_comb;
pub mod fsim_seq;
pub mod kernel;
pub mod lanes;
pub mod logic;
pub mod parallel;
pub mod stats;
pub mod transition;
pub mod vectors;

pub use comb::CombSim;
pub use fault::{Fault, FaultId, FaultSite, FaultUniverse};
pub use fsim_comb::{CombFaultSim, CombTest};
pub use fsim_seq::{
    DetectionProfile, EndStates, FinalObserve, IncrementalSim, SeqFaultSim, SeqSim, SweepRecord,
};
pub use kernel::{CompiledSim, Overrides};
pub use lanes::score_scan_ins;
pub use logic::{V3, W3};
pub use parallel::{MatrixMismatch, ParallelFsim, SimConfig};
pub use stats::{PhaseStats, SimReport};
pub use transition::{TransitionFault, TransitionFaultSim};
pub use vectors::{try_parse_values, ParseError, Sequence, State};
