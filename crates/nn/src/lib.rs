//! # insitu-nn
//!
//! A minimal, from-scratch neural-network framework powering the
//! In-situ AI reproduction: layers with exact gradients, SGD training,
//! layer freezing (the paper's `CONV-i` locking), a weight-shared
//! jigsaw siamese network for the unsupervised diagnosis task, and
//! transfer-learning utilities that copy conv prefixes between the
//! unsupervised and inference networks.
//!
//! ## Example: build, transfer, freeze
//!
//! ```
//! use insitu_nn::models::{jigsaw_network, mini_alexnet};
//! use insitu_nn::transfer::transfer_and_freeze;
//! use insitu_tensor::Rng;
//!
//! # fn main() -> Result<(), insitu_nn::NnError> {
//! let mut rng = Rng::seed_from(7);
//! let jigsaw = jigsaw_network(24, &mut rng)?;
//! let mut inference = mini_alexnet(8, &mut rng)?;
//! // Deploy recipe: share conv1..conv3, freeze them.
//! transfer_and_freeze(jigsaw.trunk(), &mut inference, 3, 3)?;
//! assert!(inference.frozen_count() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod describe;
mod error;
pub mod jigsaw;
mod layer;
pub mod layers;
mod loss;
pub mod models;
mod net;
mod optim;
pub mod quant;
pub mod serialize;
mod train;
pub mod transfer;

pub use describe::{LayerDesc, NetworkDesc};
pub use error::NnError;
pub use jigsaw::JigsawNet;
pub use layer::{Layer, LayerKind, Mode};
pub use loss::{accuracy, confidence, predictions, softmax, softmax_cross_entropy};
pub use net::{Network, Sequential};
pub use optim::Sgd;
pub use quant::{LayerCalibration, QuantizedNet};
pub use train::{
    evaluate, gather_samples, train, train_from_activations, EpochStats, LabeledBatch,
    TrainConfig, TrainReport,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
