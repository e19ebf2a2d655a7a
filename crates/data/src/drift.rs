//! The environment-drift model.
//!
//! The paper motivates In-situ AI with the gap between curated training
//! imagery and real camera-trap data (its Fig. 2): partial bodies
//! (animal too close), odd poses, poor illumination and weather. This
//! module models those failure modes as a parametric
//! [`Condition`] applied to rendered images: illumination gain/bias,
//! additive sensor noise, occluding blocks, translation ("pose") and a
//! box blur ("weather"). The [`ideal`](Condition::ideal) condition is
//! the identity — the Cloud's curated dataset; increasing
//! [`severity`](Condition::with_severity) interpolates toward the harsh
//! in-situ distribution.

use crate::concepts::{CHANNELS, IMAGE_SIZE};
use crate::error::DataError;
use crate::Result;
use insitu_tensor::{Rng, Tensor};

/// A distribution over image corruptions, representing one environment
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// Multiplicative illumination range (sampled per image).
    pub gain: (f32, f32),
    /// Additive illumination offset range.
    pub bias: (f32, f32),
    /// Standard deviation of additive Gaussian sensor noise.
    pub noise_std: f32,
    /// Probability that an occluding block is pasted over the image.
    pub occlusion_prob: f32,
    /// Edge of the occluding block, as a fraction of the image edge.
    pub occlusion_frac: f32,
    /// Maximum translation in pixels (random pose shift).
    pub max_shift: usize,
    /// Probability that a 3×3 box blur is applied (weather).
    pub blur_prob: f32,
}

impl Condition {
    /// The identity condition: curated, ideal imagery.
    pub fn ideal() -> Condition {
        Condition {
            gain: (1.0, 1.0),
            bias: (0.0, 0.0),
            noise_std: 0.0,
            occlusion_prob: 0.0,
            occlusion_frac: 0.0,
            max_shift: 0,
            blur_prob: 0.0,
        }
    }

    /// A condition whose corruption strength scales with
    /// `severity ∈ [0, 1]`: 0 is [`ideal`](Condition::ideal), 1 is the
    /// harshest in-situ environment (night-time, heavy rain, animals
    /// against the lens).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `severity` is outside
    /// `[0, 1]`.
    pub fn with_severity(severity: f32) -> Result<Condition> {
        if !(0.0..=1.0).contains(&severity) {
            return Err(DataError::BadConfig {
                reason: format!("severity {severity} outside [0, 1]"),
            });
        }
        let s = severity;
        Ok(Condition {
            gain: (1.0 - 0.75 * s, 1.0 + 0.3 * s),
            bias: (-0.35 * s, 0.15 * s),
            noise_std: 0.22 * s,
            occlusion_prob: 0.65 * s,
            occlusion_frac: 0.6 * s,
            max_shift: (8.0 * s) as usize,
            blur_prob: 0.7 * s,
        })
    }

    /// The canonical in-situ environment used by the experiments
    /// (severity 0.75).
    pub fn in_situ() -> Condition {
        Condition::with_severity(0.75).expect("0.75 is a valid severity")
    }

    /// Applies one sampled corruption to an image `(3, H, W)`, returning
    /// the corrupted copy.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadImage`] if the image is not
    /// `(3, 36, 36)`.
    pub fn apply(&self, image: &Tensor, rng: &mut Rng) -> Result<Tensor> {
        let expected = [CHANNELS, IMAGE_SIZE, IMAGE_SIZE];
        if image.dims() != expected {
            return Err(DataError::BadImage {
                expected: expected.to_vec(),
                actual: image.dims().to_vec(),
            });
        }
        let mut out = image.clone();
        let mut scratch = vec![0f32; out.len()];
        self.apply_in_place(out.as_mut_slice(), &mut scratch, rng)?;
        Ok(out)
    }

    /// Applies one sampled corruption to a flattened `(3, 36, 36)`
    /// sample in place — the allocation-free spelling of
    /// [`apply`](Condition::apply) used by the streaming producer,
    /// which corrupts samples directly inside recycled arena buffers.
    /// `scratch` provides the source copy for the shift/blur stencils
    /// and must hold at least as many elements as `image`. The RNG draw
    /// order is identical to `apply`'s, so the two are bitwise
    /// interchangeable.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `image` is not exactly one
    /// sample long or `scratch` is shorter than `image`.
    pub fn apply_in_place(
        &self,
        image: &mut [f32],
        scratch: &mut [f32],
        rng: &mut Rng,
    ) -> Result<()> {
        let len = CHANNELS * IMAGE_SIZE * IMAGE_SIZE;
        if image.len() != len {
            return Err(DataError::BadConfig {
                reason: format!("sample slice holds {} floats, expected {len}", image.len()),
            });
        }
        if scratch.len() < len {
            return Err(DataError::BadConfig {
                reason: format!("scratch holds {} floats, need {len}", scratch.len()),
            });
        }
        let n = IMAGE_SIZE;

        // Pose: random translation with edge replication.
        if self.max_shift > 0 {
            let dx = rng.below(2 * self.max_shift + 1) as isize - self.max_shift as isize;
            let dy = rng.below(2 * self.max_shift + 1) as isize - self.max_shift as isize;
            if dx != 0 || dy != 0 {
                scratch[..len].copy_from_slice(image);
                let s = &scratch[..len];
                let d = &mut *image;
                for c in 0..CHANNELS {
                    for y in 0..n {
                        let sy = (y as isize - dy).clamp(0, n as isize - 1) as usize;
                        for x in 0..n {
                            let sx = (x as isize - dx).clamp(0, n as isize - 1) as usize;
                            d[(c * n + y) * n + x] = s[(c * n + sy) * n + sx];
                        }
                    }
                }
            }
        }

        // Weather: 3x3 box blur.
        if rng.chance(self.blur_prob) {
            scratch[..len].copy_from_slice(image);
            let s = &scratch[..len];
            let d = &mut *image;
            for c in 0..CHANNELS {
                for y in 0..n {
                    for x in 0..n {
                        let mut acc = 0.0;
                        let mut cnt = 0.0;
                        for wy in -1isize..=1 {
                            let yy = y as isize + wy;
                            if yy < 0 || yy >= n as isize {
                                continue;
                            }
                            for wx in -1isize..=1 {
                                let xx = x as isize + wx;
                                if xx < 0 || xx >= n as isize {
                                    continue;
                                }
                                acc += s[(c * n + yy as usize) * n + xx as usize];
                                cnt += 1.0;
                            }
                        }
                        d[(c * n + y) * n + x] = acc / cnt;
                    }
                }
            }
        }

        // Occlusion: a flat block, e.g. an animal flank filling the frame.
        if rng.chance(self.occlusion_prob) && self.occlusion_frac > 0.0 {
            let edge = ((n as f32 * self.occlusion_frac) as usize).clamp(1, n);
            let ox = rng.below(n - edge + 1);
            let oy = rng.below(n - edge + 1);
            let shade = rng.uniform(0.05, 0.35);
            for c in 0..CHANNELS {
                for y in oy..oy + edge {
                    for x in ox..ox + edge {
                        image[(c * n + y) * n + x] = shade;
                    }
                }
            }
        }

        // Illumination + sensor noise.
        let gain = rng.uniform(self.gain.0, self.gain.1);
        let bias = rng.uniform(self.bias.0, self.bias.1);
        let noise = self.noise_std;
        let mut noise_rng = rng.fork();
        for v in image.iter_mut() {
            *v = *v * gain + bias;
        }
        if noise > 0.0 {
            for v in image.iter_mut() {
                *v += noise_rng.normal_with(0.0, noise);
            }
        }
        for v in image.iter_mut() {
            *v = v.clamp(0.0, 1.0);
        }
        Ok(())
    }

    /// Expected severity of this condition on a 0–1 scale (rough scalar
    /// summary used for logging).
    pub fn severity_estimate(&self) -> f32 {
        let gain_spread = (self.gain.1 - self.gain.0) / 0.85;
        (gain_spread
            + self.noise_std / 0.14
            + self.occlusion_prob / 0.5
            + self.blur_prob / 0.5
            + self.max_shift as f32 / 6.0)
            / 5.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::Concept;

    #[test]
    fn ideal_is_identity() {
        let mut rng = Rng::seed_from(1);
        let img = Concept::for_class(0, 4).unwrap().render(&mut rng);
        let out = Condition::ideal().apply(&img, &mut rng).unwrap();
        assert_eq!(out, img);
    }

    #[test]
    fn severity_bounds_checked() {
        assert!(Condition::with_severity(-0.1).is_err());
        assert!(Condition::with_severity(1.1).is_err());
        assert!(Condition::with_severity(0.0).is_ok());
        assert!(Condition::with_severity(1.0).is_ok());
    }

    #[test]
    fn zero_severity_equals_ideal() {
        let c = Condition::with_severity(0.0).unwrap();
        assert_eq!(c, Condition::ideal());
    }

    #[test]
    fn corruption_perturbs_images() {
        let mut rng = Rng::seed_from(2);
        let img = Concept::for_class(1, 4).unwrap().render(&mut rng);
        let harsh = Condition::with_severity(1.0).unwrap();
        let out = harsh.apply(&img, &mut rng).unwrap();
        assert!(out.max_abs_diff(&img).unwrap() > 0.1);
        assert!(out.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn corruption_grows_with_severity() {
        let mut rng = Rng::seed_from(3);
        let img = Concept::for_class(2, 4).unwrap().render(&mut rng);
        let mut distortion = Vec::new();
        for &s in &[0.2f32, 0.6, 1.0] {
            let cond = Condition::with_severity(s).unwrap();
            // Average over several draws to smooth stochastic effects.
            let mut acc = 0.0;
            for _ in 0..24 {
                let out = cond.apply(&img, &mut rng).unwrap();
                acc += out.sub(&img).unwrap().norm_sq();
            }
            distortion.push(acc / 24.0);
        }
        assert!(distortion[0] < distortion[1]);
        assert!(distortion[1] < distortion[2]);
    }

    #[test]
    fn apply_in_place_matches_apply_bitwise() {
        // The arena path must be a drop-in replacement across the whole
        // severity range: same pixels, same RNG stream advancement.
        let img = Concept::for_class(3, 4).unwrap().render(&mut Rng::seed_from(6));
        let mut scratch = vec![0f32; img.len()];
        for &s in &[0.0f32, 0.4, 1.0] {
            let cond = Condition::with_severity(s).unwrap();
            let mut rng_a = Rng::seed_from(100 + s.to_bits() as u64);
            let mut rng_b = rng_a.clone();
            for _ in 0..8 {
                let owned = cond.apply(&img, &mut rng_a).unwrap();
                let mut buf = img.as_slice().to_vec();
                cond.apply_in_place(&mut buf, &mut scratch, &mut rng_b).unwrap();
                assert_eq!(owned.as_slice(), &buf[..]);
                assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            }
        }
        // Slice-length validation.
        let cond = Condition::in_situ();
        let mut rng = Rng::seed_from(7);
        let mut short = vec![0f32; 8];
        assert!(cond.apply_in_place(&mut short, &mut scratch, &mut rng).is_err());
        let mut buf = img.as_slice().to_vec();
        assert!(cond.apply_in_place(&mut buf, &mut short, &mut rng).is_err());
    }

    #[test]
    fn rejects_wrong_shape() {
        let mut rng = Rng::seed_from(4);
        let bad = Tensor::zeros([3, 8, 8]);
        assert!(Condition::in_situ().apply(&bad, &mut rng).is_err());
    }

    #[test]
    fn severity_estimate_is_monotone() {
        let lo = Condition::with_severity(0.2).unwrap().severity_estimate();
        let hi = Condition::with_severity(0.9).unwrap().severity_estimate();
        assert!(lo < hi);
    }
}
