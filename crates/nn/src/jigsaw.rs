//! The unsupervised context-prediction ("jigsaw") network.
//!
//! The paper's diagnosis task (its Fig. 3) splits an image into a 3×3
//! grid, shuffles the nine tiles with a permutation drawn from a fixed
//! set, and asks a network to predict *which* permutation was applied.
//! The nine patches run through **one shared convolutional trunk** — the
//! first level of weight sharing the WSS architecture exploits — and the
//! concatenated features feed a small fully connected head that
//! classifies the permutation index.
//!
//! Implementation note: the patch dimension is folded into the batch
//! dimension (`(B, P, C, h, w)` → `(B·P, C, h, w)`), which makes the
//! trunk weight sharing exact by construction and reuses the ordinary
//! [`Sequential`] machinery for both passes.
//!
//! Diagnosis takes a faster route through the same weights: one trunk
//! pass over the canonical tiles of a whole chunk of images
//! ([`JigsawNet::tile_features`]), then one head pass over every probe
//! permutation of every image in it, each a row gather of cached tile
//! features ([`JigsawNet::predict_from_features`]). Both are bitwise the
//! folded forward's rows, at any batch position.

use crate::error::NnError;
use crate::layer::Mode;
use crate::net::{Network, Sequential};
use crate::Result;
use insitu_telemetry as telemetry;
use insitu_tensor::Tensor;

/// A siamese network: one shared trunk applied to `patches` inputs,
/// plus a classification head over the concatenated features.
#[derive(Debug, Clone)]
pub struct JigsawNet {
    trunk: Sequential,
    head: Sequential,
    patches: usize,
    /// Feature length produced by the trunk for one patch.
    feature_len: usize,
    /// Batch size of the latest training-mode forward.
    last_batch: usize,
    /// Reusable `(rows, patches · feature_len)` head-input buffer for
    /// the tile-embedding fast path, one row per gathered permutation.
    /// Its storage only grows, so a deployment's largest chunk of
    /// probes allocates once.
    gather: Tensor,
}

impl JigsawNet {
    /// Assembles a jigsaw network.
    ///
    /// `feature_len` must equal the trunk's output width for a single
    /// patch; the head must accept `patches * feature_len` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::IncompatibleTransfer`] if the head's first
    /// fully connected layer width disagrees with
    /// `patches * feature_len`.
    pub fn new(
        trunk: Sequential,
        head: Sequential,
        patches: usize,
        feature_len: usize,
    ) -> Result<Self> {
        // Validate the head against the concatenated feature width.
        let head_in = head.describe().fc_layers().first().map(|l| match *l {
            crate::describe::LayerDesc::Fc { input, .. } => input,
            _ => 0,
        });
        if let Some(input) = head_in {
            if input != patches * feature_len {
                return Err(NnError::IncompatibleTransfer {
                    reason: format!(
                        "head expects {input} features but trunk produces {} x {} = {}",
                        patches,
                        feature_len,
                        patches * feature_len
                    ),
                });
            }
        }
        Ok(JigsawNet {
            trunk,
            head,
            patches,
            feature_len,
            last_batch: 0,
            gather: Tensor::zeros([0, patches * feature_len]),
        })
    }

    /// The shared convolutional trunk.
    pub fn trunk(&self) -> &Sequential {
        &self.trunk
    }

    /// Mutable access to the shared trunk (for transfer learning).
    pub fn trunk_mut(&mut self) -> &mut Sequential {
        &mut self.trunk
    }

    /// The classification head.
    pub fn head(&self) -> &Sequential {
        &self.head
    }

    /// Number of patches per sample (9 for a 3×3 grid).
    pub fn patches(&self) -> usize {
        self.patches
    }

    /// Convenience: evaluation-mode forward.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn predict(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward(input, Mode::Eval)
    }

    /// Trunk features for the tiles of `n` images in one pass: input
    /// `(n·P, C, h, w)` — each image's `patches` tiles in a fixed order,
    /// image after image — output `(n·P, F)`.
    ///
    /// The trunk processes every tile independently, so row `r` of the
    /// result is bitwise the feature vector the folded
    /// [`forward`](Network::forward) pass would produce for that tile at
    /// *any* batch position: permuting tiles only permutes rows, and
    /// the batch size changes no bit. That equivariance is what lets
    /// [`predict_from_features`](JigsawNet::predict_from_features)
    /// evaluate any number of permutations of each image from one trunk
    /// pass. Counts `n` `jigsaw.trunk_passes`, one per image.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not `(n·patches, C, h, w)` for
    /// some `n ≥ 1`, or if the trunk output width disagrees with the
    /// configured feature length.
    pub fn tile_features(&mut self, tiles: &Tensor) -> Result<Tensor> {
        let d = tiles.dims();
        if d.len() != 4 || d[0] == 0 || !d[0].is_multiple_of(self.patches) {
            return Err(NnError::BadInputShape {
                layer: "jigsaw tile_features".into(),
                expected: vec![self.patches, 0, 0, 0],
                actual: d.to_vec(),
            });
        }
        let feats = self.trunk.forward(tiles, Mode::Eval)?;
        let fd = feats.dims();
        if fd.len() != 2 || fd[1] != self.feature_len {
            return Err(NnError::BadInputShape {
                layer: "jigsaw trunk output".into(),
                expected: vec![d[0], self.feature_len],
                actual: fd.to_vec(),
            });
        }
        telemetry::counter_add("jigsaw.trunk_passes", "", (d[0] / self.patches) as u64);
        Ok(feats)
    }

    /// Head logits for the cached tile features of `n` images under `k`
    /// permutations each, in one head pass: `feats` is the `(n·P, F)`
    /// output of [`tile_features`](JigsawNet::tile_features) and `perms`
    /// holds `n·k` permutations, image-major (image `i`'s at `i·k..`).
    /// Row `j` of the returned `(n·k, classes)` tensor is the logits for
    /// `perms[j]` applied to image `⌊j/k⌋`, whose feature rows are
    /// gathered into the reusable head-input buffer.
    ///
    /// Row `j` is bitwise identical to [`predict`](JigsawNet::predict)
    /// on that image's tiles permuted by `perms[j]` (`(1, P, C, h, w)`
    /// input), at the cost of a row gather instead of a trunk pass. All
    /// `n·k` gathered rows feed the head in **one** GEMM per layer — the
    /// same amortization `tile_features` applies to the trunk. Exact
    /// because the head (Linear/ReLU) is per-sample row-equivariant
    /// under the packed GEMM: each output element is one ascending-k
    /// accumulation chain independent of its batch position.
    ///
    /// # Errors
    ///
    /// Returns an error if `feats` is not `(n·patches, feature_len)`
    /// for some `n ≥ 1`, if `perms` is empty or not a multiple of `n`
    /// long, or if any permutation is not a length-`patches` list of
    /// in-range tile indices.
    pub fn predict_from_features(&mut self, feats: &Tensor, perms: &[&[u8]]) -> Result<Tensor> {
        let fd = feats.dims();
        let p = self.patches;
        if fd.len() != 2 || fd[0] == 0 || !fd[0].is_multiple_of(p) || fd[1] != self.feature_len {
            return Err(NnError::BadInputShape {
                layer: "jigsaw predict_from_features".into(),
                expected: vec![p, self.feature_len],
                actual: fd.to_vec(),
            });
        }
        let images = fd[0] / p;
        if perms.is_empty() || !perms.len().is_multiple_of(images) {
            return Err(NnError::BadInputShape {
                layer: "jigsaw permutation batch".into(),
                expected: vec![images],
                actual: vec![perms.len()],
            });
        }
        for perm in perms {
            if perm.len() != self.patches
                || perm.iter().any(|&s| usize::from(s) >= self.patches)
            {
                return Err(NnError::BadInputShape {
                    layer: "jigsaw permutation".into(),
                    expected: vec![self.patches],
                    actual: vec![perm.len()],
                });
            }
        }
        let k = perms.len() / images;
        let f = self.feature_len;
        let width = p * f;
        // Reshape the buffer in place: `resize` reallocates only past
        // the largest capacity seen.
        let mut buf = std::mem::replace(&mut self.gather, Tensor::zeros([0])).into_vec();
        buf.resize(perms.len() * width, 0.0);
        self.gather = Tensor::from_vec([perms.len(), width], buf)?;
        let rows = self.gather.as_mut_slice().chunks_exact_mut(width);
        for (j, (row, perm)) in rows.zip(perms).enumerate() {
            let tiles = &feats.as_slice()[j / k * width..][..width];
            for (dest, &source) in row.chunks_exact_mut(f).zip(perm.iter()) {
                dest.copy_from_slice(&tiles[usize::from(source) * f..][..f]);
            }
        }
        self.head.forward(&self.gather, Mode::Eval)
    }

    fn fold_patches(&self, input: &Tensor) -> Result<(Tensor, usize)> {
        let d = input.dims();
        if d.len() != 5 || d[1] != self.patches {
            return Err(NnError::BadInputShape {
                layer: "jigsaw".into(),
                expected: vec![0, self.patches, 0, 0, 0],
                actual: d.to_vec(),
            });
        }
        let b = d[0];
        let folded = input.reshape([b * self.patches, d[2], d[3], d[4]])?;
        Ok((folded, b))
    }
}

impl Network for JigsawNet {
    /// Input shape: `(B, P, C, h, w)`; output: `(B, classes)`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (folded, b) = self.fold_patches(input)?;
        // One "trunk pass" per image: the unit the diagnosis fast path
        // saves (`tile_features` counts 1 where this counts `b`).
        telemetry::counter_add("jigsaw.trunk_passes", "", b as u64);
        let feats = self.trunk.forward(&folded, mode)?; // (B*P, F)
        let fd = feats.dims();
        if fd.len() != 2 || fd[1] != self.feature_len {
            return Err(NnError::BadInputShape {
                layer: "jigsaw trunk output".into(),
                expected: vec![b * self.patches, self.feature_len],
                actual: fd.to_vec(),
            });
        }
        let concat = feats.reshape([b, self.patches * self.feature_len])?;
        if mode == Mode::Train {
            self.last_batch = b;
        }
        self.head.forward(&concat, mode)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor> {
        let b = self.last_batch;
        let dconcat = self.head.backward(dout)?; // (B, P*F)
        let dfeats = dconcat.reshape([b * self.patches, self.feature_len])?;
        // Trunk backward accumulates gradients across all patches: the
        // second level of weight sharing happens here for free.
        let dfolded = self.trunk.backward(&dfeats)?;
        let fd = dfolded.dims().to_vec();
        Ok(dfolded.reshape([b, self.patches, fd[1], fd[2], fd[3]])?)
    }

    fn zero_grads(&mut self) {
        self.trunk.zero_grads();
        self.head.zero_grads();
    }

    fn visit_trainable(&mut self, visitor: &mut dyn FnMut(u64, &mut Tensor, &mut Tensor)) {
        // Namespace trunk and head keys so they never collide.
        self.trunk.visit_trainable(&mut |k, p, g| visitor(k, p, g));
        self.head.visit_trainable(&mut |k, p, g| visitor(k | (1 << 63), p, g));
    }

    fn visit_all(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        self.trunk.visit_all(visitor);
        self.head.visit_all(visitor);
    }

    fn param_count(&self) -> usize {
        self.trunk.param_count() + self.head.param_count()
    }

    fn training_ops_per_sample(&self) -> u64 {
        self.patches as u64 * self.trunk.training_ops_per_sample()
            + self.head.training_ops_per_sample()
    }

    fn inference_ops_per_sample(&self) -> u64 {
        self.patches as u64 * self.trunk.inference_ops_per_sample()
            + self.head.inference_ops_per_sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use insitu_tensor::Rng;

    fn tiny_jigsaw(rng: &mut Rng) -> JigsawNet {
        let mut trunk = Sequential::new("trunk");
        trunk.push(Conv2d::new("conv1", 1, 6, 6, 4, 3, 1, 1, rng).unwrap());
        trunk.push(Relu::new("r1"));
        trunk.push(MaxPool2d::new("p1", 4, 6, 6, 2, 2).unwrap());
        trunk.push(Flatten::new("flat"));
        // Feature length: 4 * 3 * 3 = 36.
        let mut head = Sequential::new("head");
        head.push(Linear::new("fc1", 4 * 36, 16, rng));
        head.push(Relu::new("hr"));
        head.push(Linear::new("fc2", 16, 5, rng));
        JigsawNet::new(trunk, head, 4, 36).unwrap()
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from(1);
        let mut net = tiny_jigsaw(&mut rng);
        let x = Tensor::randn([2, 4, 1, 6, 6], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 5]);
    }

    #[test]
    fn rejects_wrong_patch_count() {
        let mut rng = Rng::seed_from(2);
        let mut net = tiny_jigsaw(&mut rng);
        let x = Tensor::zeros([2, 3, 1, 6, 6]);
        assert!(net.forward(&x, Mode::Eval).is_err());
        let x4d = Tensor::zeros([2, 1, 6, 6]);
        assert!(net.forward(&x4d, Mode::Eval).is_err());
    }

    #[test]
    fn head_width_validation() {
        let mut rng = Rng::seed_from(3);
        let trunk = Sequential::new("t");
        let mut head = Sequential::new("h");
        head.push(Linear::new("fc", 10, 2, &mut rng));
        assert!(matches!(
            JigsawNet::new(trunk, head, 4, 36),
            Err(NnError::IncompatibleTransfer { .. })
        ));
    }

    #[test]
    fn backward_roundtrip_and_shared_grads() {
        let mut rng = Rng::seed_from(4);
        let mut net = tiny_jigsaw(&mut rng);
        let x = Tensor::randn([3, 4, 1, 6, 6], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train).unwrap();
        let dx = net.backward(&Tensor::filled(y.shape().clone(), 0.1)).unwrap();
        assert_eq!(dx.dims(), x.dims());
        // Trunk conv received gradient contributions (shared across patches).
        let mut saw_nonzero = false;
        net.visit_trainable(&mut |_, _, g| {
            if g.norm_sq() > 0.0 {
                saw_nonzero = true;
            }
        });
        assert!(saw_nonzero);
    }

    #[test]
    fn trunk_sharing_is_exact() {
        // Permuting the patch order of a sample only permutes which head
        // inputs see which features: trunk outputs per patch are identical.
        let mut rng = Rng::seed_from(5);
        let mut net = tiny_jigsaw(&mut rng);
        let patch = Tensor::randn([1, 1, 1, 6, 6], 0.0, 1.0, &mut rng);
        // Duplicate the same patch 4 times: all features equal.
        let mut data = Vec::new();
        for _ in 0..4 {
            data.extend_from_slice(patch.as_slice());
        }
        let x = Tensor::from_vec([1, 4, 1, 6, 6], data).unwrap();
        let folded = x.reshape([4, 1, 6, 6]).unwrap();
        let feats = net.trunk_mut().forward(&folded, Mode::Eval).unwrap();
        let f0 = feats.row(0).unwrap();
        for p in 1..4 {
            assert_eq!(feats.row(p).unwrap(), f0);
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn predict_from_features_matches_full_forward_bitwise() {
        // Gathering cached trunk features into the head must reproduce
        // the folded forward on the permuted tiles exactly (the
        // co-running fast path's correctness contract), for every row
        // of a k-permutation head pass — one permutation, several, and
        // a duplicate — whatever k the buffer was sized for before.
        let mut rng = Rng::seed_from(8);
        let mut net = tiny_jigsaw(&mut rng);
        let tiles = Tensor::randn([4, 1, 6, 6], 0.0, 1.0, &mut rng);
        let feats = net.tile_features(&tiles).unwrap();
        assert_eq!(feats.dims(), &[4, 36]);
        let perms: [[u8; 4]; 5] =
            [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2], [2, 0, 3, 1], [3, 2, 1, 0]];
        let tile_len = 6 * 6; // one 1-channel 6x6 tile
        let tv = tiles.as_slice();
        for k in [1usize, 3, 5] {
            let refs: Vec<&[u8]> = perms.iter().take(k).map(|p| p.as_slice()).collect();
            let fast = net.predict_from_features(&feats, &refs).unwrap();
            assert_eq!(fast.dims(), &[k, 5]);
            for (j, perm) in refs.iter().enumerate() {
                // Reference: permute the raw tiles, run the full network.
                let mut permuted = Vec::with_capacity(tv.len());
                for &src in *perm {
                    let s = src as usize * tile_len;
                    permuted.extend_from_slice(&tv[s..s + tile_len]);
                }
                let x = Tensor::from_vec([1, 4, 1, 6, 6], permuted).unwrap();
                let full = net.predict(&x).unwrap();
                assert_eq!(
                    bits(&fast.row(j).unwrap()),
                    bits(&full),
                    "perm {perm:?} (row {j} of {k}) diverged"
                );
            }
        }
    }

    #[test]
    fn batched_probe_head_rejects_bad_inputs() {
        let mut rng = Rng::seed_from(11);
        let mut net = tiny_jigsaw(&mut rng);
        let feats = net.tile_features(&Tensor::zeros([4, 1, 6, 6])).unwrap();
        // No permutation at all, and one bad permutation among good ones.
        assert!(net.predict_from_features(&feats, &[]).is_err());
        let oob: &[u8] = &[0, 1, 2, 4];
        let ok: &[u8] = &[0, 1, 2, 3];
        assert!(net.predict_from_features(&feats, &[ok, oob]).is_err());
    }

    #[test]
    fn fast_path_rejects_bad_shapes() {
        let mut rng = Rng::seed_from(9);
        let mut net = tiny_jigsaw(&mut rng);
        // Wrong tile count.
        assert!(net.tile_features(&Tensor::zeros([3, 1, 6, 6])).is_err());
        // Wrong feature shape.
        let bad = Tensor::zeros([4, 35]);
        let identity: &[u8] = &[0, 1, 2, 3];
        assert!(net.predict_from_features(&bad, &[identity]).is_err());
        let feats = net.tile_features(&Tensor::zeros([4, 1, 6, 6])).unwrap();
        // Wrong permutation length and out-of-range tile index.
        let (short, oob): (&[u8], &[u8]) = (&[0, 1, 2], &[0, 1, 2, 4]);
        assert!(net.predict_from_features(&feats, &[short]).is_err());
        assert!(net.predict_from_features(&feats, &[oob]).is_err());
        // A chunk: no tiles, or a tile count that is not whole images.
        assert!(net.tile_features(&Tensor::zeros([0, 1, 6, 6])).is_err());
        assert!(net.tile_features(&Tensor::zeros([6, 1, 6, 6])).is_err());
        assert!(net.predict_from_features(&Tensor::zeros([0, 36]), &[identity]).is_err());
        assert!(net.predict_from_features(&Tensor::zeros([6, 36]), &[identity]).is_err());
        // Two images' features take a whole number of probes per image.
        let two = net.tile_features(&Tensor::zeros([8, 1, 6, 6])).unwrap();
        assert!(net.predict_from_features(&two, &[identity; 3]).is_err());
        assert_eq!(net.predict_from_features(&two, &[identity; 4]).unwrap().dims(), &[4, 5]);
    }

    #[test]
    fn a_chunk_of_images_matches_per_image_calls_bitwise() {
        // One trunk pass over n images' tiles, then one head pass over
        // their n·k probes, must give the per-image calls' rows bit for
        // bit. The deployed trunk runs conv3-5 on 3×3 planes, so this
        // crosses the dense lowering at 9 and at n·9 tiles.
        let mut rng = Rng::seed_from(12);
        let mut net = crate::models::jigsaw_network(8, &mut rng).unwrap();
        let (n, k, tile_len) = (5, 3, 3 * 12 * 12);
        let tiles = Tensor::randn([n * 9, 3, 12, 12], 0.0, 1.0, &mut rng);
        let perms: Vec<[u8; 9]> = (0..n * k)
            .map(|_| {
                let mut p = [0, 1, 2, 3, 4, 5, 6, 7, 8];
                rng.shuffle(&mut p);
                p
            })
            .collect();
        let refs: Vec<&[u8]> = perms.iter().map(|p| p.as_slice()).collect();
        let feats = net.tile_features(&tiles).unwrap();
        let logits = net.predict_from_features(&feats, &refs).unwrap();
        assert_eq!((feats.dims(), logits.dims()), (&[n * 9, 24][..], &[n * k, 8][..]));
        let classes = 8;
        for i in 0..n {
            let one = tiles.as_slice()[i * 9 * tile_len..][..9 * tile_len].to_vec();
            let f1 = net.tile_features(&Tensor::from_vec([9, 3, 12, 12], one).unwrap()).unwrap();
            assert_eq!(bits(&f1), bits(&feats)[i * 9 * 24..][..9 * 24], "features of image {i}");
            let l1 = net.predict_from_features(&f1, &refs[i * k..][..k]).unwrap();
            let want = &bits(&logits)[i * k * classes..][..k * classes];
            assert_eq!(bits(&l1), want, "logits of image {i}");
        }
    }

    #[test]
    fn jigsaw_learns_to_identify_permutations() {
        // Synthetic task: patches carry a constant intensity that encodes
        // a permutation of [0..4); the net must classify which of 5
        // fixed permutations was applied.
        let mut rng = Rng::seed_from(6);
        let mut net = tiny_jigsaw(&mut rng);
        let perms: [[usize; 4]; 5] =
            [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0], [0, 2, 1, 3]];
        let n = 200;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let cls = rng.below(5);
            labels.push(cls);
            for &pos in &perms[cls] {
                let base = pos as f32 / 4.0;
                for _ in 0..36 {
                    data.push(base + rng.uniform(-0.05, 0.05));
                }
            }
        }
        let x = Tensor::from_vec([n, 4, 1, 6, 6], data).unwrap();
        let cfg = crate::train::TrainConfig {
            epochs: 25,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        };
        let report = crate::train::train(
            &mut net,
            crate::train::LabeledBatch::new(&x, &labels).unwrap(),
            None,
            &cfg,
            &mut rng,
        )
        .unwrap();
        let final_acc = report.history.last().unwrap().train_accuracy;
        assert!(final_acc > 0.9, "jigsaw accuracy {final_acc}");
    }

    #[test]
    fn ops_account_for_patch_count() {
        let mut rng = Rng::seed_from(7);
        let net = tiny_jigsaw(&mut rng);
        let trunk_ops = net.trunk().inference_ops_per_sample();
        let head_ops = net.head().inference_ops_per_sample();
        assert_eq!(net.inference_ops_per_sample(), 4 * trunk_ops + head_ops);
    }
}
