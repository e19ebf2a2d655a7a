//! # insitu-experiments
//!
//! The reproduction harness: one module per table/figure of the
//! paper's evaluation, each returning structured rows plus an aligned
//! text table, so the `repro` binary regenerates the entire evaluation
//! section.
//!
//! | module | reproduces |
//! |---|---|
//! | [`table1`] | Table I — static models on ideal vs in-situ data |
//! | [`fig5`] | Fig. 5 — training-method accuracy comparison |
//! | [`fig6`] | Fig. 6 — CONV-i locking: accuracy & time |
//! | [`fig7`] | Fig. 7 — incremental training on valuable data |
//! | [`fig11`] | Fig. 11 — latency & perf/W vs batch size |
//! | [`fig12`] | Fig. 12 — CONV/FCN runtime breakdown |
//! | [`fig14`] | Fig. 14 — batching and perf/W per layer class |
//! | [`fig15`] | Fig. 15 — GPU vs FPGA resource utilization |
//! | [`fig16`] | Fig. 16 — co-running interference |
//! | [`fig21`] | Fig. 21 — time-model batch selection speedups |
//! | [`fig22`] | Fig. 22 — NWS/WS/WSS co-running CONV runtime |
//! | [`fig23`] | Fig. 23 — end-to-end design throughput |
//! | [`endtoend`] | Table II + Fig. 25 — the Cloud comparison |
//! | [`ablations`] | design-space ablations |

#![warn(missing_docs)]

pub mod ablations;
pub mod endtoend;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod report;
pub mod scale;
pub mod table1;

pub use report::Table;
pub use scale::Scale;

/// Boxed error used across the harness (experiments aggregate errors
/// from every crate in the workspace).
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
