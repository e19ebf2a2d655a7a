//! Analytical layer descriptions consumed by the device models.
//!
//! The paper's time/energy models (Eqs. 1–14) operate on layer *shapes*
//! only — `M, N, K, R, C` for CONV and `(in, out)` for FCN. [`LayerDesc`]
//! captures exactly that, decoupled from the trainable layers so the
//! `insitu-devices` crate can also describe full-size published networks
//! (AlexNet, VGG-16) it never trains.

use serde::{Deserialize, Serialize};

/// Shape description of one compute-relevant layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerDesc {
    /// Convolutional layer in the paper's notation.
    Conv {
        /// Output feature maps (filters), the paper's `M`.
        m: usize,
        /// Input feature maps (channels), the paper's `N`.
        n: usize,
        /// Square kernel edge, the paper's `K`.
        k: usize,
        /// Output feature-map height, the paper's `R`.
        r: usize,
        /// Output feature-map width, the paper's `C`.
        c: usize,
    },
    /// Fully connected layer.
    Fc {
        /// Input features.
        input: usize,
        /// Output features.
        output: usize,
    },
}

impl LayerDesc {
    /// Multiply-accumulate operation count for one sample.
    ///
    /// CONV follows the paper's Eq. (1): `2·M·N·K²·R·C`. FCN is the
    /// degenerate case `K = R = C = 1`: `2·out·in`.
    pub fn ops(&self) -> u64 {
        match *self {
            LayerDesc::Conv { m, n, k, r, c } => {
                2 * m as u64 * n as u64 * (k * k) as u64 * r as u64 * c as u64
            }
            LayerDesc::Fc { input, output } => 2 * input as u64 * output as u64,
        }
    }

    /// Trainable parameter count (weights + biases).
    pub fn params(&self) -> u64 {
        match *self {
            LayerDesc::Conv { m, n, k, .. } => m as u64 * n as u64 * (k * k) as u64 + m as u64,
            LayerDesc::Fc { input, output } => input as u64 * output as u64 + output as u64,
        }
    }

    /// Whether this is a convolutional layer.
    pub fn is_conv(&self) -> bool {
        matches!(self, LayerDesc::Conv { .. })
    }

    /// Whether this is a fully connected layer.
    pub fn is_fc(&self) -> bool {
        matches!(self, LayerDesc::Fc { .. })
    }
}

/// Shape description of a whole network: the ordered list of its
/// compute-relevant layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkDesc {
    /// Network name, e.g. `"alexnet"`.
    pub name: String,
    /// Compute-relevant layers in execution order.
    pub layers: Vec<LayerDesc>,
}

impl NetworkDesc {
    /// Creates a description from a name and layer list.
    pub fn new(name: impl Into<String>, layers: Vec<LayerDesc>) -> Self {
        NetworkDesc { name: name.into(), layers }
    }

    /// Total per-sample operation count.
    pub fn total_ops(&self) -> u64 {
        self.layers.iter().map(LayerDesc::ops).sum()
    }

    /// The convolutional layers, in order.
    pub fn conv_layers(&self) -> Vec<LayerDesc> {
        self.layers.iter().copied().filter(LayerDesc::is_conv).collect()
    }

    /// The fully connected layers, in order.
    pub fn fc_layers(&self) -> Vec<LayerDesc> {
        self.layers.iter().copied().filter(LayerDesc::is_fc).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_ops_matches_paper_eq1() {
        // AlexNet conv1: M=96, N=3, K=11, R=C=55.
        let l = LayerDesc::Conv { m: 96, n: 3, k: 11, r: 55, c: 55 };
        assert_eq!(l.ops(), 2 * 96 * 3 * 121 * 55 * 55);
    }

    #[test]
    fn fc_ops_and_params() {
        let l = LayerDesc::Fc { input: 4096, output: 1000 };
        assert_eq!(l.ops(), 2 * 4096 * 1000);
        assert_eq!(l.params(), 4096 * 1000 + 1000);
    }

    #[test]
    fn network_aggregates() {
        let net = NetworkDesc::new(
            "toy",
            vec![
                LayerDesc::Conv { m: 4, n: 3, k: 3, r: 8, c: 8 },
                LayerDesc::Fc { input: 256, output: 10 },
            ],
        );
        assert_eq!(net.total_ops(), net.layers[0].ops() + net.layers[1].ops());
        assert_eq!(net.conv_layers().len(), 1);
        assert_eq!(net.fc_layers().len(), 1);
        assert!(net.layers[0].is_conv() && !net.layers[0].is_fc());
    }
}
