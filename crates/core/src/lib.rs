//! The test-compaction procedure of Pomeranz & Reddy (DAC 2001), with its
//! baselines.
//!
//! The paper's observation: for a full-scan circuit, a test set's
//! application time is `N_cyc = (k+1)·N_SV + Σ L(T_j)` clock cycles — `k+1`
//! scan operations for `k` tests plus one functional cycle per primary-input
//! vector. Static compaction by *combining* tests reduces `k` while the
//! total vector count stays put, so the cheapest test sets have **few tests
//! with long primary-input sequences** — and those long sequences run on
//! the functional clock, i.e. at speed, which helps catch delay defects.
//!
//! Instead of compacting its way there from a combinational test set, the
//! proposed procedure *generates* such a set directly:
//!
//! 1. **Phase 1** ([`phase1`]) turns a scan-less test sequence `T_0` into a
//!    scan-based test: choose the scan-in state `SI` (from the states of a
//!    combinational test set `C`) that maximizes detection, then the
//!    earliest scan-out time that loses no detected fault;
//! 2. **Phase 2** ([`phase2`]) shortens the sequence by vector omission;
//!    Phases 1–2 repeat ([`iterate`]) until a scan-in state repeats;
//! 3. **Phase 3** ([`phase3`]) adds single-vector scan tests from `C` for
//!    the faults `τ_seq` misses;
//! 4. **Phase 4** ([`phase4`]) statically compacts the result by test
//!    combining (the procedure of the paper's reference \[4\], also used
//!    standalone as the main baseline).
//!
//! [`dynamic`] provides a dynamic-compaction baseline in the spirit of the
//! paper's references \[2,3\], and [`pipeline`] drives everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod dynamic;
mod error;
pub mod iterate;
pub mod oracle;
pub mod partial;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod phase4;
pub mod pipeline;
pub mod test;

pub use atspeed_atpg::MAX_T0_LEN;
pub use delay::{transition_coverage, DelayCoverage};
pub use error::CoreError;
pub use iterate::{build_tau_seq, IterateConfig, TauSeqResult};
pub use oracle::{verify_test_set, ClaimedCoverage, OracleReport};
pub use partial::PartialScan;
pub use phase1::{select_scan_test, Phase1Config, Phase1Result, ScanOutRule};
pub use phase3::{top_up, Phase3Result};
pub use phase4::{
    baseline4, combine_tests, combine_tests_cfg, Baseline4Result, CombineConfig,
    StaticCompactionStats, TransferConfig,
};
pub use pipeline::{MemoryBudget, Pipeline, PipelineConfig, PipelineResult, T0Source};
pub use test::{AtSpeedStats, ScanTest, TestSet};
