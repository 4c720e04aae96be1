//! Benchmark harness for the atspeed workspace.
//!
//! Regenerates the five tables of Pomeranz & Reddy (DAC 2001) from the
//! synthetic benchmark catalog:
//!
//! ```text
//! cargo run -p atspeed-bench --release --bin tables            # all tables
//! cargo run -p atspeed-bench --release --bin tables -- --table 3
//! cargo run -p atspeed-bench --release --bin tables -- --circuits s298,b06 --quick
//! ```
//!
//! The Criterion bench `benches/kernels.rs` compares the simulation
//! kernels and times vector omission for local use; the benchmark in
//! `perfbench/` times the work behind the tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod paper;
pub mod report;
pub mod runner;
pub mod tables;
pub mod telemetry;
