//! Labelled image datasets.

use crate::concepts::{Concept, CHANNELS, IMAGE_SIZE};
use crate::drift::Condition;
use crate::error::DataError;
use crate::Result;
use insitu_tensor::{Rng, Tensor};

/// Length of one flattened `(3, 36, 36)` sample, in floats: the shape
/// the generator renders.
pub const SAMPLE_LEN: usize = CHANNELS * IMAGE_SIZE * IMAGE_SIZE;

/// The dims of a batch of `n` samples of shape `sample`.
pub(crate) fn batch_dims(n: usize, sample: &[usize]) -> Vec<usize> {
    std::iter::once(n).chain(sample.iter().copied()).collect()
}

/// A labelled set of images, stored as one batched tensor `(N, ..)`
/// plus per-sample class labels. Generated sets are `(N, 3, 36, 36)`;
/// a set built [`from_parts`](Dataset::from_parts) keeps the per-sample
/// shape of its image tensor, and every method works in that shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Generates `n` images with uniformly random classes under the
    /// given environment condition.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `num_classes == 0`.
    pub fn generate(
        n: usize,
        num_classes: usize,
        condition: &Condition,
        rng: &mut Rng,
    ) -> Result<Dataset> {
        if num_classes == 0 {
            return Err(DataError::BadConfig { reason: "num_classes must be > 0".into() });
        }
        let concepts: Vec<Concept> = (0..num_classes)
            .map(|c| Concept::for_class(c, num_classes))
            .collect::<Result<_>>()?;
        let mut data = Vec::with_capacity(n * SAMPLE_LEN);
        let mut labels = Vec::with_capacity(n);
        Dataset::generate_into(&concepts, condition, rng, n, &mut data, &mut labels)?;
        Ok(Dataset {
            images: Tensor::from_vec([n, CHANNELS, IMAGE_SIZE, IMAGE_SIZE], data)?,
            labels,
            num_classes,
        })
    }

    /// Synthesizes `n` samples into caller-provided buffers: classes
    /// drawn uniformly from `concepts`, rendered and corrupted fully
    /// in place.
    ///
    /// This is the allocation-free spelling of
    /// [`generate`](Dataset::generate) the streaming producer drives
    /// with recycled arena buffers — the vectors are cleared and
    /// refilled, so a warm buffer absorbs a frame without touching the
    /// heap. Given concepts built by `Concept::for_class(c, k)` for
    /// `c in 0..k`, the RNG stream and the produced bytes are identical
    /// to `generate(n, k, ..)`'s.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `concepts` is empty.
    pub fn generate_into(
        concepts: &[Concept],
        condition: &Condition,
        rng: &mut Rng,
        n: usize,
        images: &mut Vec<f32>,
        labels: &mut Vec<usize>,
    ) -> Result<()> {
        if concepts.is_empty() {
            return Err(DataError::BadConfig { reason: "concepts must not be empty".into() });
        }
        images.clear();
        labels.clear();
        images.reserve(n * SAMPLE_LEN);
        labels.reserve(n);
        let mut scratch = [0f32; SAMPLE_LEN];
        for _ in 0..n {
            let cls = rng.below(concepts.len());
            let start = images.len();
            images.resize(start + SAMPLE_LEN, 0.0);
            let slot = &mut images[start..start + SAMPLE_LEN];
            concepts[cls].render_into(rng, slot);
            condition.apply_in_place(slot, &mut scratch, rng)?;
            labels.push(concepts[cls].class);
        }
        Ok(())
    }

    /// Builds a dataset from existing parts. The first axis of `images`
    /// indexes the samples; the rest is the per-sample shape.
    ///
    /// # Errors
    ///
    /// Returns an error if `images` has no sample axis, the image count
    /// and label count disagree, or a label is out of range.
    pub fn from_parts(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Result<Dataset> {
        let Some(&n) = images.dims().first() else {
            return Err(DataError::BadConfig { reason: "images have no sample axis".into() });
        };
        if n != labels.len() {
            return Err(DataError::BadConfig {
                reason: format!("{n} images but {} labels", labels.len()),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::BadConfig {
                reason: format!("label {bad} out of range 0..{num_classes}"),
            });
        }
        Ok(Dataset { images, labels, num_classes })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The batched image tensor `(N, ..)`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The per-sample shape: the image tensor's dims after the first.
    fn sample_dims(&self) -> &[usize] {
        &self.images.dims()[1..]
    }

    /// Floats per sample.
    fn sample_len(&self) -> usize {
        self.sample_dims().iter().product()
    }

    /// Per-sample labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The image at index `i`, in the per-sample shape.
    ///
    /// # Errors
    ///
    /// Returns an error if `i` is out of range.
    pub fn image(&self, i: usize) -> Result<Tensor> {
        if i >= self.len() {
            return Err(DataError::BadConfig {
                reason: format!("index {i} out of {}", self.len()),
            });
        }
        let sample_len = self.sample_len();
        Ok(Tensor::from_vec(
            self.sample_dims(),
            self.images.as_slice()[i * sample_len..(i + 1) * sample_len].to_vec(),
        )?)
    }

    /// Copies the samples at `indices` into a new dataset.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        let sample_len = self.sample_len();
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(DataError::BadConfig {
                    reason: format!("index {i} out of {}", self.len()),
                });
            }
            data.extend_from_slice(&self.images.as_slice()[i * sample_len..(i + 1) * sample_len]);
            labels.push(self.labels[i]);
        }
        Ok(Dataset {
            images: Tensor::from_vec(batch_dims(indices.len(), self.sample_dims()), data)?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Copies the contiguous sample range `range` into a new dataset.
    ///
    /// The allocation-light sibling of [`subset`](Dataset::subset) for
    /// batch loops that walk a dataset front to back: one bulk copy,
    /// no index vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the range reaches past the end.
    pub fn subset_range(&self, range: std::ops::Range<usize>) -> Result<Dataset> {
        if range.start > range.end || range.end > self.len() {
            return Err(DataError::BadConfig {
                reason: format!("range {range:?} out of {}", self.len()),
            });
        }
        let sample_len = self.sample_len();
        let data =
            self.images.as_slice()[range.start * sample_len..range.end * sample_len].to_vec();
        Ok(Dataset {
            images: Tensor::from_vec(batch_dims(range.len(), self.sample_dims()), data)?,
            labels: self.labels[range].to_vec(),
            num_classes: self.num_classes,
        })
    }

    /// Decomposes the dataset into its owned image tensor and label
    /// vector — the inverse of [`from_parts`](Dataset::from_parts).
    /// The streaming arena uses this to reclaim a consumed frame's
    /// storage without copying.
    pub fn into_parts(self) -> (Tensor, Vec<usize>) {
        (self.images, self.labels)
    }

    /// Concatenates two datasets with the same class space and
    /// per-sample shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the class counts or the per-sample shapes
    /// differ.
    pub fn concat(&self, other: &Dataset) -> Result<Dataset> {
        if self.num_classes != other.num_classes {
            return Err(DataError::BadConfig {
                reason: format!(
                    "class spaces differ: {} vs {}",
                    self.num_classes, other.num_classes
                ),
            });
        }
        if self.sample_dims() != other.sample_dims() {
            return Err(DataError::BadConfig {
                reason: format!(
                    "sample shapes differ: {:?} vs {:?}",
                    self.sample_dims(),
                    other.sample_dims()
                ),
            });
        }
        let mut data = self.images.as_slice().to_vec();
        data.extend_from_slice(other.images.as_slice());
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        let n = self.len() + other.len();
        Ok(Dataset {
            images: Tensor::from_vec(batch_dims(n, self.sample_dims()), data)?,
            labels,
            num_classes: self.num_classes,
        })
    }

    /// Splits into `(first k, rest)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k > len`.
    pub fn split_at(&self, k: usize) -> Result<(Dataset, Dataset)> {
        Ok((self.subset_range(0..k)?, self.subset_range(k..self.len())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(rng: &mut Rng) -> Dataset {
        Dataset::generate(20, 4, &Condition::ideal(), rng).unwrap()
    }

    #[test]
    fn generate_shapes() {
        let mut rng = Rng::seed_from(1);
        let d = small(&mut rng);
        assert_eq!(d.len(), 20);
        assert_eq!(d.images().dims(), &[20, 3, 36, 36]);
        assert_eq!(d.num_classes(), 4);
        assert!(d.labels().iter().all(|&l| l < 4));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Dataset::generate(8, 3, &Condition::ideal(), &mut Rng::seed_from(5)).unwrap();
        let b = Dataset::generate(8, 3, &Condition::ideal(), &mut Rng::seed_from(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn subset_range_matches_subset() {
        let mut rng = Rng::seed_from(7);
        let d = small(&mut rng);
        let indices: Vec<usize> = (4..13).collect();
        assert_eq!(d.subset_range(4..13).unwrap(), d.subset(&indices).unwrap());
        assert_eq!(d.subset_range(5..5).unwrap().len(), 0);
        assert!(d.subset_range(4..21).is_err());
    }

    #[test]
    fn subset_and_image_access() {
        let mut rng = Rng::seed_from(2);
        let d = small(&mut rng);
        let s = d.subset(&[3, 7, 1]).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.labels()[0], d.labels()[3]);
        assert_eq!(s.image(0).unwrap(), d.image(3).unwrap());
        assert!(d.subset(&[99]).is_err());
        assert!(d.image(99).is_err());
    }

    #[test]
    fn concat_and_split() {
        let mut rng = Rng::seed_from(3);
        let a = small(&mut rng);
        let b = small(&mut rng);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 40);
        let (head, tail) = c.split_at(20).unwrap();
        assert_eq!(head, a);
        assert_eq!(tail.len(), 20);
        assert!(c.split_at(41).is_err());
        let other = Dataset::generate(4, 2, &Condition::ideal(), &mut rng).unwrap();
        assert!(a.concat(&other).is_err());
    }

    #[test]
    fn a_set_of_another_shape_keeps_it() {
        let mut rng = Rng::seed_from(17);
        let images = Tensor::rand_uniform([4, 3, 32, 32], 0.0, 1.0, &mut rng);
        let d = Dataset::from_parts(images.clone(), vec![0, 1, 2, 1], 3).unwrap();
        let len = 3 * 32 * 32;
        let rows = |idx: &[usize]| -> Vec<f32> {
            idx.iter().flat_map(|&i| images.as_slice()[i * len..(i + 1) * len].to_vec()).collect()
        };
        let s = d.subset(&[3, 0]).unwrap();
        assert_eq!(s.images().dims(), &[2, 3, 32, 32]);
        assert_eq!(s.images().as_slice(), &rows(&[3, 0])[..]);
        assert_eq!(s.labels(), &[1, 0]);
        let r = d.subset_range(1..3).unwrap();
        assert_eq!(r.images().dims(), &[2, 3, 32, 32]);
        assert_eq!(r.images().as_slice(), &rows(&[1, 2])[..]);
        let (head, tail) = d.split_at(1).unwrap();
        assert_eq!(head.images().as_slice(), &rows(&[0])[..]);
        assert_eq!(tail.images().dims(), &[3, 3, 32, 32]);
        let image = d.image(2).unwrap();
        assert_eq!(image.dims(), &[3, 32, 32]);
        assert_eq!(image.as_slice(), &rows(&[2])[..]);
        let c = head.concat(&tail).unwrap();
        assert_eq!(c, d);
        assert!(d.subset(&[4]).is_err());
        let generated = Dataset::generate(2, 3, &Condition::ideal(), &mut rng).unwrap();
        assert!(d.concat(&generated).is_err());
        assert!(generated.concat(&d).is_err());
        assert!(Dataset::from_parts(Tensor::from_vec(Vec::new(), vec![0.0]).unwrap(), vec![], 1)
            .is_err());
    }

    #[test]
    fn generate_into_matches_generate_bitwise() {
        let concepts: Vec<Concept> =
            (0..4).map(|c| Concept::for_class(c, 4).unwrap()).collect();
        let cond = Condition::in_situ();
        let mut rng_a = Rng::seed_from(31);
        let mut rng_b = Rng::seed_from(31);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..3 {
            let owned = Dataset::generate(6, 4, &cond, &mut rng_a).unwrap();
            Dataset::generate_into(&concepts, &cond, &mut rng_b, 6, &mut images, &mut labels)
                .unwrap();
            assert_eq!(owned.images().as_slice(), &images[..]);
            assert_eq!(owned.labels(), &labels[..]);
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        assert!(Dataset::generate_into(
            &[],
            &cond,
            &mut rng_b,
            2,
            &mut images,
            &mut labels
        )
        .is_err());
    }

    #[test]
    fn into_parts_round_trips() {
        let mut rng = Rng::seed_from(13);
        let d = small(&mut rng);
        let copy = d.clone();
        let (images, labels) = d.into_parts();
        assert_eq!(Dataset::from_parts(images, labels, 4).unwrap(), copy);
    }

    #[test]
    fn from_parts_validates() {
        let imgs = Tensor::zeros([2, 3, 36, 36]);
        assert!(Dataset::from_parts(imgs.clone(), vec![0], 2).is_err());
        assert!(Dataset::from_parts(imgs.clone(), vec![0, 5], 2).is_err());
        assert!(Dataset::from_parts(imgs, vec![0, 1], 2).is_ok());
    }

    #[test]
    fn zero_classes_rejected() {
        let mut rng = Rng::seed_from(4);
        assert!(Dataset::generate(5, 0, &Condition::ideal(), &mut rng).is_err());
    }
}
