//! # insitu-cloud
//!
//! The Cloud side of In-situ AI: unsupervised jigsaw pre-training on
//! big raw IoT data, transfer learning that builds the inference
//! network from the shared trunk, incremental fine-tuning on uploaded
//! valuable data, and the four end-to-end IoT system organizations of
//! the paper's Fig. 24 — simulated on identical streams so that data
//! movement, update time and energy can be compared head-to-head
//! (Table II / Fig. 25).
//!
//! ## Example
//!
//! ```no_run
//! use insitu_cloud::{run_campaign, SystemConfig, SystemKind};
//! use insitu_data::Campaign;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let campaign = Campaign::paper_schedule(1, 6, 42)?;
//! let ours = run_campaign(SystemKind::InsituAi, &campaign, SystemConfig::default())?;
//! let base = run_campaign(SystemKind::Traditional, &campaign, SystemConfig::default())?;
//! assert!(ours[4].uploaded_bytes < base[4].uploaded_bytes);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
mod deploy;
mod endpoint;
mod error;
mod incremental;
mod pretrain;
mod systems;

pub use cache::CacheStats;
pub use deploy::{build_from_scratch, build_inference, DeployConfig};
pub use endpoint::Cloud;
pub use error::CloudError;
pub use incremental::{fine_tune, IncrementalConfig};
pub use pretrain::{pretrain, Pretrained, PretrainConfig};
pub use systems::{run_campaign, IotSystem, StageReport, SystemConfig, SystemKind};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CloudError>;
