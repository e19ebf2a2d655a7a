//! # insitu-core
//!
//! The In-situ AI framework — the paper's primary contribution. An
//! [`InsituNode`] runs the inference task and the **autonomous data
//! diagnosis** task at the edge, uploads only the valuable
//! (unrecognized) samples, and installs incremental model updates from
//! the Cloud. The [`planner`](crate::plan) turns the paper's
//! analytical models into deployment decisions: Single-running on the
//! mobile GPU or Co-running on the WSS-NWS FPGA pipeline, with batch
//! sizes chosen by the time and resource models.
//!
//! ## Example
//!
//! ```
//! use insitu_core::{plan, Availability, CostSource, PlanRequest};
//! use insitu_devices::NetworkShapes;
//!
//! # fn main() -> Result<(), insitu_core::CoreError> {
//! let inference = NetworkShapes::alexnet();
//! let diagnosis = NetworkShapes::diagnosis_of(&inference, 9);
//! let request = PlanRequest {
//!     availability: Availability::AlwaysOn, // 24/7 → Co-running FPGA
//!     t_user: 0.2,
//!     max_batch: 128,
//! };
//! let costs = CostSource::Analytical { diagnosis: &diagnosis };
//! let plan = plan(&request, &inference, costs, None)?;
//! assert!(plan.predicted_latency_s <= 0.2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod diagnosis;
mod error;
mod metrics;
mod modes;
mod node;
mod planner;
pub mod recorder;
mod runtime;
mod update;

pub use diagnosis::{diagnose, diagnose_with_logits, valuable_indices, DiagnosisPolicy, Verdict};
pub use error::CoreError;
pub use metrics::{DataMovementMeter, IMAGE_BYTES};
pub use modes::{select_mode, Availability, Platform, WorkingMode};
pub use node::{InferencePrecision, InsituNode, ReplanConfig, StageOutcome};
pub use planner::{
    plan, precision_label, CostSource, MeasuredProfile, NodePlan, PlanRequest, QuantProfile,
};
pub use runtime::{
    run_ingested_session, DegradeConfig, IngestPolicy, IngestSessionConfig, IngestSummary,
    SessionConfig, SessionStats,
};
pub use update::{CloudEndpoint, ModelUpdate};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
