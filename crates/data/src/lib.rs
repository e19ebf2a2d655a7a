//! # insitu-data
//!
//! Synthetic IoT imagery for the In-situ AI reproduction: procedural
//! "species" classes, an environment-drift model reproducing the
//! paper's camera-trap failure modes (partial bodies, poses, poor
//! illumination, weather), jigsaw patch/permutation preparation for the
//! unsupervised diagnosis task, and the staged acquisition campaign
//! behind the end-to-end experiments.
//!
//! ## Example
//!
//! ```
//! use insitu_data::{Condition, Dataset};
//! use insitu_tensor::Rng;
//!
//! # fn main() -> Result<(), insitu_data::DataError> {
//! let mut rng = Rng::seed_from(1);
//! let curated = Dataset::generate(16, 4, &Condition::ideal(), &mut rng)?;
//! let in_situ = Dataset::generate(16, 4, &Condition::in_situ(), &mut rng)?;
//! assert_eq!(curated.len(), in_situ.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod concepts;
mod dataset;
mod drift;
mod error;
pub mod export;
pub mod ingest;
pub mod jigsaw;
mod stream;

pub use concepts::{Concept, PatternKind, CHANNELS, IMAGE_SIZE};
pub use dataset::{Dataset, SAMPLE_LEN};
pub use drift::Condition;
pub use ingest::{
    DriftSchedule, Frame, FrameArena, FrameBuf, IngestConfig, IngestPipeline, IngestQueue,
    ProducerReport, QueueFullPolicy, ReplaySource, StreamSource, SyntheticDriftSource,
};
pub use export::{contact_sheet, save_ppm, to_ppm};
pub use error::DataError;
pub use jigsaw::{
    assemble, canonical_tiles, jigsaw_batch, normalize_tiles, patchify, permute_tiles, PermutationSet,
    GRID, PATCHES, PATCH_SIZE,
};
pub use stream::{Campaign, Stage};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
