//! Gate-level sequential netlists for the `atspeed` workspace.
//!
//! This crate is the structural substrate of the reproduction of
//! Pomeranz & Reddy, *"An Approach to Test Compaction for Scan Circuits that
//! Enhances At-Speed Testing"* (DAC 2001). It provides:
//!
//! - a compact, validated, immutable [`Netlist`] representation of a
//!   synchronous sequential circuit (gates + D flip-flops), built through
//!   [`NetlistBuilder`];
//! - levelization of the combinational core with cycle detection, plus fanout
//!   tables, both computed once at build time;
//! - an ISCAS-89 `.bench` [parser and writer](bench_fmt) so real benchmark
//!   netlists can be used when available;
//! - a deterministic [synthetic circuit generator](synth) and a
//!   [catalog] describing the nineteen benchmark circuits used in
//!   the paper's evaluation (their real netlists are distribution-restricted,
//!   so the catalog instantiates interface-faithful synthetic stand-ins);
//! - per-circuit [statistics](stats).
//!
//! # Example
//!
//! ```
//! use atspeed_circuit::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), atspeed_circuit::CircuitError> {
//! let mut b = NetlistBuilder::new("toy");
//! b.input("a");
//! b.input("b");
//! b.dff("q", "d");
//! b.gate(GateKind::And, "d", &["a", "q"]);
//! b.gate(GateKind::Xor, "y", &["b", "q"]);
//! b.output("y");
//! let netlist = b.finish()?;
//! assert_eq!(netlist.num_ffs(), 1);
//! assert_eq!(netlist.num_gates(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_fmt;
pub mod catalog;
mod compiled;
mod error;
mod gate;
mod id;
mod netlist;
pub mod stats;
pub mod synth;

pub use compiled::{CompiledCircuit, Run};
pub use error::CircuitError;
pub use gate::{GateKind, MAX_FANIN};
pub use id::{FfId, GateId, NetId, PoId, Slot};
pub use netlist::{Driver, Ff, Gate, Netlist, NetlistBuilder, Sink};
