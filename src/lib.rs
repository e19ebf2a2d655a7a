//! # insitu
//!
//! Umbrella crate for the **In-situ AI** reproduction (Song et al.,
//! HPCA 2018): autonomous and incremental deep learning for IoT
//! systems, rebuilt as a pure-Rust workspace.
//!
//! The member crates, re-exported here as modules:
//!
//! * [`tensor`] — dense `f32` tensors, GEMM, im2col convolution, RNG.
//! * [`nn`] — the from-scratch NN framework: layers, SGD, freezing,
//!   the weight-shared jigsaw siamese net, transfer learning.
//! * [`data`] — synthetic IoT imagery with environment drift, jigsaw
//!   permutations, staged acquisition campaigns.
//! * [`devices`] — analytical GPU/FPGA/Cloud time & energy models
//!   (the paper's Eqs. 1–14).
//! * [`fpga`] — the NWS/WS/WSS architecture simulator and the
//!   WSS-NWS pipeline.
//! * [`core`] — the In-situ AI framework: node, diagnosis task,
//!   working modes, configuration planner, update protocol.
//! * [`cloud`] — unsupervised pre-training, transfer, incremental
//!   updates, and the four IoT system organizations.
//! * [`telemetry`] — structured tracing: spans, per-kernel counters,
//!   hierarchical summaries and Chrome-trace export.
//!
//! ## Quick start
//!
//! ```
//! use insitu::core::{plan, Availability, CostSource, PlanRequest};
//! use insitu::devices::NetworkShapes;
//!
//! # fn main() -> Result<(), insitu::core::CoreError> {
//! let inference = NetworkShapes::alexnet();
//! let diagnosis = NetworkShapes::diagnosis_of(&inference, 9);
//! let request = PlanRequest {
//!     availability: Availability::Scheduled,
//!     t_user: 0.1,
//!     max_batch: 128,
//! };
//! let costs = CostSource::Analytical { diagnosis: &diagnosis };
//! let plan = plan(&request, &inference, costs, None)?;
//! println!("deploy: {:?} at batch {}", plan.platform, plan.inference_batch);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios and the
//! `insitu-experiments` crate for the full evaluation reproduction.

#![warn(missing_docs)]

pub use insitu_cloud as cloud;
pub use insitu_core as core;
pub use insitu_data as data;
pub use insitu_devices as devices;
pub use insitu_fpga as fpga;
pub use insitu_nn as nn;
pub use insitu_telemetry as telemetry;
pub use insitu_tensor as tensor;
