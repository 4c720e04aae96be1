//! Test generation substrates: combinational ATPG (PODEM) and sequential
//! test-sequence generation.
//!
//! The paper consumes two external artifacts that this crate re-creates from
//! scratch:
//!
//! - a compact, complete **combinational test set `C`** (the paper cites
//!   \[9\]) — produced here by random-pattern seeding, a [PODEM](podem)
//!   implementation for the random-resistant residue, and reverse-order
//!   fault-simulation compaction ([`comb_tset`]);
//! - a **sequential test sequence `T_0`** generated without scan (the paper
//!   uses STRATEGATE \[10\] and PROPTEST \[12\]) — stood in for by the
//!   simulation-based generators in [`seq_tgen`], plus the plain random
//!   sequences used in the paper's Table 5.
//!
//! The [`compact`] module carries sequence compaction by vector omission
//! (the paper's Phase 2 cites \[8\]), shared with the core pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comb_tset;
pub mod compact;
mod error;
pub mod podem;
pub mod sat;
pub mod sat_atpg;
pub mod scoap;
pub mod seq_tgen;

pub use comb_tset::{CombTestSet, CombTsetConfig};
pub use error::AtpgError;
pub use podem::{Podem, PodemConfig, PodemOutcome};
pub use sat::{SatResult, Solver};
pub use sat_atpg::{SatAtpg, SatAtpgConfig, SatAtpgOutcome};
pub use scoap::Scoap;
pub use seq_tgen::{
    directed_t0, property_t0, random_t0, DirectedConfig, PropertyConfig, MAX_T0_LEN,
};
