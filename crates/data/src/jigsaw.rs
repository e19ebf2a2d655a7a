//! Jigsaw preparation: 3×3 patch grids and the permutation set.
//!
//! The paper (its Fig. 3) shuffles the nine tiles of an image with a
//! permutation drawn from a *predefined set* (their set has 100
//! entries) and trains the unsupervised network to predict the chosen
//! index. Following Noroozi & Favaro, the set is chosen greedily to
//! maximize pairwise Hamming distance so that no two permutations are
//! confusably similar.

use crate::concepts::{CHANNELS, IMAGE_SIZE};
use crate::dataset::Dataset;
use crate::error::DataError;
use crate::Result;
use insitu_tensor::{Rng, Tensor};

/// Tiles per image (3×3 grid).
pub const GRID: usize = 3;
/// Number of patches.
pub const PATCHES: usize = GRID * GRID;
/// Patch edge length.
pub const PATCH_SIZE: usize = IMAGE_SIZE / GRID;

/// A fixed, maximally-spread set of patch permutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationSet {
    perms: Vec<[u8; PATCHES]>,
}

impl PermutationSet {
    /// Greedily selects `count` permutations of `0..9` that maximize
    /// the minimum pairwise Hamming distance, starting from the
    /// identity's reversal (a far point) and sampling candidates from
    /// `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `count` is zero or larger
    /// than 9! (more than the number of distinct permutations).
    pub fn generate(count: usize, rng: &mut Rng) -> Result<PermutationSet> {
        const FACT9: usize = 362_880;
        if count == 0 || count > FACT9 {
            return Err(DataError::BadConfig {
                reason: format!("permutation count {count} outside 1..={FACT9}"),
            });
        }
        let mut perms: Vec<[u8; PATCHES]> = Vec::with_capacity(count);
        perms.push([8, 7, 6, 5, 4, 3, 2, 1, 0]);
        const CANDIDATES: usize = 64;
        while perms.len() < count {
            // Sample candidates, keep the one farthest from the set.
            let mut best: Option<([u8; PATCHES], usize)> = None;
            for _ in 0..CANDIDATES {
                let mut p: [u8; PATCHES] = [0, 1, 2, 3, 4, 5, 6, 7, 8];
                rng.shuffle(&mut p);
                if perms.contains(&p) {
                    continue;
                }
                let dist = perms.iter().map(|q| hamming(q, &p)).min().unwrap_or(PATCHES);
                if best.is_none_or(|(_, d)| dist > d) {
                    best = Some((p, dist));
                }
            }
            if let Some((p, _)) = best {
                perms.push(p);
            }
        }
        Ok(PermutationSet { perms })
    }

    /// Number of permutations (the number of diagnosis classes).
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// Whether the set is empty (never true for a generated set).
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// Permutation at index `i`: `perm[destination] = source tile`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn permutation(&self, i: usize) -> &[u8; PATCHES] {
        &self.perms[i]
    }

    /// Minimum pairwise Hamming distance of the set (quality measure).
    pub fn min_pairwise_hamming(&self) -> usize {
        let mut min = PATCHES;
        for i in 0..self.perms.len() {
            for j in i + 1..self.perms.len() {
                min = min.min(hamming(&self.perms[i], &self.perms[j]));
            }
        }
        min
    }
}

fn hamming(a: &[u8; PATCHES], b: &[u8; PATCHES]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Cuts an image `(3, 36, 36)` into its 9 tiles, returning
/// `(9, 3, 12, 12)` in row-major tile order.
///
/// # Errors
///
/// Returns [`DataError::BadImage`] if the image is not `(3, 36, 36)`.
pub fn patchify(image: &Tensor) -> Result<Tensor> {
    let expected = [CHANNELS, IMAGE_SIZE, IMAGE_SIZE];
    if image.dims() != expected {
        return Err(DataError::BadImage {
            expected: expected.to_vec(),
            actual: image.dims().to_vec(),
        });
    }
    let p = PATCH_SIZE;
    let mut out = vec![0f32; PATCHES * CHANNELS * p * p];
    patchify_into(image.as_slice(), &mut out);
    Ok(Tensor::from_vec([PATCHES, CHANNELS, p, p], out)?)
}

/// [`patchify`] of one flattened `(3, 36, 36)` image into `out`, the
/// flattened `(9, 3, 12, 12)` tiles.
fn patchify_into(src: &[f32], out: &mut [f32]) {
    let p = PATCH_SIZE;
    for tile in 0..PATCHES {
        let (ty, tx) = (tile / GRID, tile % GRID);
        for c in 0..CHANNELS {
            for y in 0..p {
                for x in 0..p {
                    out[((tile * CHANNELS + c) * p + y) * p + x] =
                        src[(c * IMAGE_SIZE + ty * p + y) * IMAGE_SIZE + tx * p + x];
                }
            }
        }
    }
}

/// Normalizes one flattened tile in place to zero mean and unit
/// variance (see [`normalize_tiles`]).
fn normalize_tile(tile: &mut [f32]) {
    let len = tile.len() as f32;
    let mean: f32 = tile.iter().sum::<f32>() / len;
    let var: f32 = tile.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / len;
    let std = var.sqrt().max(1e-4);
    for v in tile.iter_mut() {
        *v = (*v - mean) / std;
    }
}

/// Normalizes each tile to zero mean and unit variance (per tile,
/// across channels and pixels).
///
/// This is the standard anti-shortcut step of the jigsaw literature:
/// without it the network can identify a tile's grid position from its
/// absolute brightness (scene illumination gradients survive every
/// drift corruption), learning position features with no object
/// content — which transfer poorly. Normalized tiles force the context
/// predictor to use structure instead.
///
/// # Errors
///
/// Returns [`DataError::BadImage`] if the tiles are not
/// `(9, 3, 12, 12)`.
pub fn normalize_tiles(tiles: &Tensor) -> Result<Tensor> {
    let p = PATCH_SIZE;
    let expected = [PATCHES, CHANNELS, p, p];
    if tiles.dims() != expected {
        return Err(DataError::BadImage {
            expected: expected.to_vec(),
            actual: tiles.dims().to_vec(),
        });
    }
    let mut out = tiles.as_slice().to_vec();
    out.chunks_mut(CHANNELS * p * p).for_each(normalize_tile);
    Ok(Tensor::from_vec([PATCHES, CHANNELS, p, p], out)?)
}

/// Reassembles tiles `(9, 3, 12, 12)` into an image `(3, 36, 36)`;
/// the inverse of [`patchify`].
///
/// # Errors
///
/// Returns [`DataError::BadImage`] if the tiles are not
/// `(9, 3, 12, 12)`.
pub fn assemble(tiles: &Tensor) -> Result<Tensor> {
    let p = PATCH_SIZE;
    let expected = [PATCHES, CHANNELS, p, p];
    if tiles.dims() != expected {
        return Err(DataError::BadImage {
            expected: expected.to_vec(),
            actual: tiles.dims().to_vec(),
        });
    }
    let src = tiles.as_slice();
    let mut out = vec![0f32; CHANNELS * IMAGE_SIZE * IMAGE_SIZE];
    for tile in 0..PATCHES {
        let (ty, tx) = (tile / GRID, tile % GRID);
        for c in 0..CHANNELS {
            for y in 0..p {
                for x in 0..p {
                    out[(c * IMAGE_SIZE + ty * p + y) * IMAGE_SIZE + tx * p + x] =
                        src[((tile * CHANNELS + c) * p + y) * p + x];
                }
            }
        }
    }
    Ok(Tensor::from_vec([CHANNELS, IMAGE_SIZE, IMAGE_SIZE], out)?)
}

/// Applies permutation `perm` to tiles `(9, 3, 12, 12)`:
/// `out[dest] = tiles[perm[dest]]`.
///
/// # Errors
///
/// Returns [`DataError::BadImage`] on a shape mismatch.
pub fn permute_tiles(tiles: &Tensor, perm: &[u8; PATCHES]) -> Result<Tensor> {
    let p = PATCH_SIZE;
    let expected = [PATCHES, CHANNELS, p, p];
    if tiles.dims() != expected {
        return Err(DataError::BadImage {
            expected: expected.to_vec(),
            actual: tiles.dims().to_vec(),
        });
    }
    let tile_len = CHANNELS * p * p;
    let src = tiles.as_slice();
    let mut out = vec![0f32; src.len()];
    for (dest, &source) in perm.iter().enumerate() {
        let s = source as usize * tile_len;
        out[dest * tile_len..(dest + 1) * tile_len].copy_from_slice(&src[s..s + tile_len]);
    }
    Ok(Tensor::from_vec([PATCHES, CHANNELS, p, p], out)?)
}

/// Builds a jigsaw training batch from a dataset: for every image a
/// random permutation from `set` is applied and its index becomes the
/// label. Returns `((N, 9, 3, 12, 12), labels)`.
///
/// # Errors
///
/// Returns an error if any image has an unexpected shape.
pub fn jigsaw_batch(
    data: &Dataset,
    set: &PermutationSet,
    rng: &mut Rng,
) -> Result<(Tensor, Vec<usize>)> {
    let n = data.len();
    let p = PATCH_SIZE;
    let sample_len = PATCHES * CHANNELS * p * p;
    let mut out = Vec::with_capacity(n * sample_len);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let tiles = normalize_tiles(&patchify(&data.image(i)?)?)?;
        let cls = rng.below(set.len());
        let shuffled = permute_tiles(&tiles, set.permutation(cls))?;
        out.extend_from_slice(shuffled.as_slice());
        labels.push(cls);
    }
    Ok((Tensor::from_vec([n, PATCHES, CHANNELS, p, p], out)?, labels))
}

/// The canonical-order normalized tiles of images `range` of `data`,
/// the input of the diagnosis trunk: `(n·9, 3, 12, 12)` for `n` images,
/// image `range.start + i` at rows `9i..9i + 9`, each bitwise
/// `normalize_tiles(&patchify(image))`. Every image is cut and
/// normalized in place in the one returned tensor.
///
/// # Errors
///
/// Returns [`DataError::BadConfig`] if `range` reaches past the
/// dataset, and [`DataError::BadImage`] if its images are not
/// `(3, 36, 36)`.
pub fn canonical_tiles(data: &Dataset, range: std::ops::Range<usize>) -> Result<Tensor> {
    let expected = [CHANNELS, IMAGE_SIZE, IMAGE_SIZE];
    let images = data.images();
    if images.dims()[1..] != expected {
        return Err(DataError::BadImage {
            expected: expected.to_vec(),
            actual: images.dims()[1..].to_vec(),
        });
    }
    if range.start > range.end || range.end > data.len() {
        return Err(DataError::BadConfig {
            reason: format!("images {range:?} out of {}", data.len()),
        });
    }
    let p = PATCH_SIZE;
    let (image_len, tile_len) = (CHANNELS * IMAGE_SIZE * IMAGE_SIZE, CHANNELS * p * p);
    let mut out = Tensor::zeros([range.len() * PATCHES, CHANNELS, p, p]);
    let src = &images.as_slice()[range.start * image_len..range.end * image_len];
    let dst = out.as_mut_slice().chunks_exact_mut(PATCHES * tile_len);
    for (image, tiles) in src.chunks_exact(image_len).zip(dst) {
        patchify_into(image, tiles);
        tiles.chunks_exact_mut(tile_len).for_each(normalize_tile);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::Condition;

    #[test]
    fn permutation_set_valid() {
        let mut rng = Rng::seed_from(1);
        let set = PermutationSet::generate(24, &mut rng).unwrap();
        assert_eq!(set.len(), 24);
        for i in 0..24 {
            let mut sorted = *set.permutation(i);
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2, 3, 4, 5, 6, 7, 8]);
        }
        // All distinct.
        for i in 0..24 {
            for j in i + 1..24 {
                assert_ne!(set.permutation(i), set.permutation(j));
            }
        }
        // Greedy max-Hamming keeps the set well separated.
        assert!(set.min_pairwise_hamming() >= 5, "min {}", set.min_pairwise_hamming());
    }

    #[test]
    fn permutation_set_bounds() {
        let mut rng = Rng::seed_from(2);
        assert!(PermutationSet::generate(0, &mut rng).is_err());
        assert!(PermutationSet::generate(1, &mut rng).is_ok());
    }

    #[test]
    fn patchify_assemble_roundtrip() {
        let mut rng = Rng::seed_from(3);
        let img = Tensor::rand_uniform([3, 36, 36], 0.0, 1.0, &mut rng);
        let tiles = patchify(&img).unwrap();
        assert_eq!(tiles.dims(), &[9, 3, 12, 12]);
        assert_eq!(assemble(&tiles).unwrap(), img);
        assert!(patchify(&Tensor::zeros([3, 12, 12])).is_err());
    }

    #[test]
    fn identity_permutation_is_noop() {
        let mut rng = Rng::seed_from(4);
        let img = Tensor::rand_uniform([3, 36, 36], 0.0, 1.0, &mut rng);
        let tiles = patchify(&img).unwrap();
        let id: [u8; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(permute_tiles(&tiles, &id).unwrap(), tiles);
    }

    #[test]
    fn permutation_moves_tiles() {
        let mut rng = Rng::seed_from(5);
        let img = Tensor::rand_uniform([3, 36, 36], 0.0, 1.0, &mut rng);
        let tiles = patchify(&img).unwrap();
        let rev: [u8; 9] = [8, 7, 6, 5, 4, 3, 2, 1, 0];
        let shuffled = permute_tiles(&tiles, &rev).unwrap();
        // Tile 0 of the shuffled grid is tile 8 of the original.
        let tile_len = 3 * 12 * 12;
        assert_eq!(
            &shuffled.as_slice()[..tile_len],
            &tiles.as_slice()[8 * tile_len..9 * tile_len]
        );
        // Applying the reversal twice restores the original.
        assert_eq!(permute_tiles(&shuffled, &rev).unwrap(), tiles);
    }

    #[test]
    fn jigsaw_batch_shapes() {
        let mut rng = Rng::seed_from(6);
        let data = Dataset::generate(6, 3, &Condition::ideal(), &mut rng).unwrap();
        let set = PermutationSet::generate(10, &mut rng).unwrap();
        let (x, labels) = jigsaw_batch(&data, &set, &mut rng).unwrap();
        assert_eq!(x.dims(), &[6, 9, 3, 12, 12]);
        assert_eq!(labels.len(), 6);
        assert!(labels.iter().all(|&l| l < 10));
    }

    #[test]
    fn canonical_tiles_are_each_images_normalized_tiles() {
        let mut rng = Rng::seed_from(7);
        let data = Dataset::generate(6, 3, &Condition::in_situ(), &mut rng).unwrap();
        let tiles = canonical_tiles(&data, 1..5).unwrap();
        assert_eq!(tiles.dims(), &[36, 3, 12, 12]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (i, got) in (1..5).zip(tiles.as_slice().chunks_exact(9 * 3 * 12 * 12)) {
            let want = normalize_tiles(&patchify(&data.image(i).unwrap()).unwrap()).unwrap();
            assert_eq!(bits(got), bits(want.as_slice()), "image {i}");
        }
        assert_eq!(canonical_tiles(&data, 6..6).unwrap().dims(), &[0, 3, 12, 12]);
        assert!(canonical_tiles(&data, 4..7).is_err());
    }
}
