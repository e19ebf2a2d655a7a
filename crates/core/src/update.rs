//! The incremental-update protocol between node and Cloud.

use crate::Result;
use insitu_data::Dataset;
use insitu_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A model refresh produced by the Cloud after incremental training on
/// uploaded valuable data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// Monotonically increasing model version.
    pub version: u32,
    /// Full state dict of the inference network.
    pub inference_params: Vec<Tensor>,
    /// Updated diagnosis (jigsaw) state dict, when the unsupervised
    /// network was also refreshed.
    pub jigsaw_params: Option<Vec<Tensor>>,
    /// Multiply-accumulate operations the Cloud spent producing this
    /// update (drives the energy/time accounting).
    pub training_ops: u64,
    /// Accuracy on the Cloud's held-out split after this update, when a
    /// holdout is configured (`IncrementalConfig::holdout`).
    pub eval_accuracy: Option<f32>,
}

impl ModelUpdate {
    /// Bytes the update moves on the downlink: 4 B per f32 element of
    /// every tensor in both state dicts.
    pub fn downlink_bytes(&self) -> u64 {
        let tensors = self.inference_params.iter().chain(self.jigsaw_params.iter().flatten());
        tensors.map(|t| 4 * t.len() as u64).sum()
    }
}

/// The node's view of the Cloud: something that accepts valuable data
/// and returns a refreshed model. Implemented by
/// `insitu_cloud::Cloud`; test doubles implement it directly.
pub trait CloudEndpoint {
    /// Incrementally trains on `uploaded` and returns the new model.
    ///
    /// # Errors
    ///
    /// Returns an error if training fails (shape disagreements).
    fn incremental_update(&mut self, uploaded: &Dataset) -> Result<ModelUpdate>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_is_cloneable_and_comparable() {
        let u = ModelUpdate {
            version: 1,
            inference_params: vec![Tensor::zeros([2, 2])],
            jigsaw_params: None,
            training_ops: 42,
            eval_accuracy: None,
        };
        assert_eq!(u.clone(), u);
        assert_eq!(u.downlink_bytes(), 16);
        let both = ModelUpdate { jigsaw_params: Some(vec![Tensor::zeros([3])]), ..u };
        assert_eq!(both.downlink_bytes(), 28);
    }
}
