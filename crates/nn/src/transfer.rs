//! Transfer learning: copying and locking convolutional layers.
//!
//! The paper's Cloud trains the unsupervised jigsaw network first, then
//! builds the supervised inference network by copying its first *n*
//! convolutional layers (its Fig. 4). The copied prefix can additionally
//! be frozen — the paper's `CONV-i` configurations (its Fig. 6) — which
//! both preserves the shared features and shortens every subsequent
//! incremental update (the source of the 1.7× update speedup the paper
//! reports, and the property the WSS hardware exploits).

use crate::error::NnError;
use crate::layers::Conv2d;
use crate::net::Sequential;
use crate::Result;

/// Copies the weights of the first `n_convs` convolutional layers of
/// `src` into the corresponding convolutional layers of `dst`.
///
/// Only convolutional layers are matched (by order, not by name); both
/// networks may freely differ elsewhere. Returns the number of layers
/// copied.
///
/// # Errors
///
/// Returns [`NnError::IncompatibleTransfer`] if either network has
/// fewer than `n_convs` convolutional layers or a matched pair has
/// different weight shapes.
pub fn copy_conv_prefix(src: &Sequential, dst: &mut Sequential, n_convs: usize) -> Result<usize> {
    let src_convs = src.conv_indices();
    let dst_convs = dst.conv_indices();
    if src_convs.len() < n_convs || dst_convs.len() < n_convs {
        return Err(NnError::IncompatibleTransfer {
            reason: format!(
                "requested {n_convs} conv layers but source has {} and destination has {}",
                src_convs.len(),
                dst_convs.len()
            ),
        });
    }
    for i in 0..n_convs {
        let (weight, bias) = {
            let layer = src.layer(src_convs[i])?;
            let conv = layer.as_any().downcast_ref::<Conv2d>().ok_or_else(|| {
                NnError::IncompatibleTransfer {
                    reason: format!("source layer {} is not Conv2d", src_convs[i]),
                }
            })?;
            (conv.weight().clone(), conv.bias().clone())
        };
        let layer = dst.layer_mut(dst_convs[i])?;
        let conv = layer.as_any_mut().downcast_mut::<Conv2d>().ok_or_else(|| {
            NnError::IncompatibleTransfer {
                reason: format!("destination layer {} is not Conv2d", dst_convs[i]),
            }
        })?;
        if conv.weight().shape() != weight.shape() {
            return Err(NnError::IncompatibleTransfer {
                reason: format!(
                    "conv #{i}: source weights {} vs destination {}",
                    weight.shape(),
                    conv.weight().shape()
                ),
            });
        }
        conv.load(&weight, &bias)?;
    }
    Ok(n_convs)
}

/// Builds an inference network from an unsupervised trunk, in one call:
/// copies the first `n_convs` conv layers and freezes the first
/// `n_frozen` of them (`n_frozen <= n_convs`).
///
/// This is the paper's deployment recipe: `CONV-3` corresponds to
/// `n_convs = 3, n_frozen = 3` on a 5-conv inference net.
///
/// # Errors
///
/// Returns an error if the copy fails (see [`copy_conv_prefix`]) or if
/// `n_frozen > n_convs`.
pub fn transfer_and_freeze(
    src: &Sequential,
    dst: &mut Sequential,
    n_convs: usize,
    n_frozen: usize,
) -> Result<()> {
    if n_frozen > n_convs {
        return Err(NnError::IncompatibleTransfer {
            reason: format!("cannot freeze {n_frozen} of {n_convs} transferred layers"),
        });
    }
    copy_conv_prefix(src, dst, n_convs)?;
    dst.freeze_first_convs(n_frozen)?;
    Ok(())
}

/// Returns true when the first `n_convs` convolution layers of the two
/// networks hold bitwise-identical weights — the invariant the shared
/// weight buffers of the WSS architecture rely on. Bits are compared,
/// not values ([`Tensor::same_bits`](insitu_tensor::Tensor::same_bits)):
/// a zero whose sign differs breaks the invariant.
///
/// # Errors
///
/// Returns an error if either network has fewer than `n_convs`
/// convolutional layers.
pub fn conv_prefix_identical(a: &Sequential, b: &Sequential, n_convs: usize) -> Result<bool> {
    let a_convs = a.conv_indices();
    let b_convs = b.conv_indices();
    if a_convs.len() < n_convs || b_convs.len() < n_convs {
        return Err(NnError::IncompatibleTransfer {
            reason: format!(
                "prefix of {n_convs} conv layers requested, nets have {} and {}",
                a_convs.len(),
                b_convs.len()
            ),
        });
    }
    for i in 0..n_convs {
        let la = a.layer(a_convs[i])?;
        let lb = b.layer(b_convs[i])?;
        let ca = la.as_any().downcast_ref::<Conv2d>();
        let cb = lb.as_any().downcast_ref::<Conv2d>();
        match (ca, cb) {
            (Some(ca), Some(cb)) => {
                if !ca.weight().same_bits(cb.weight()) || !ca.bias().same_bits(cb.bias()) {
                    return Ok(false);
                }
            }
            _ => return Ok(false),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};
    use insitu_tensor::Rng;

    fn net_with_convs(rng: &mut Rng, widths: &[usize]) -> Sequential {
        let mut net = Sequential::new("n");
        let mut in_ch = 1;
        for (i, &w) in widths.iter().enumerate() {
            net.push(Conv2d::new(format!("conv{}", i + 1), in_ch, 8, 8, w, 3, 1, 1, rng).unwrap());
            net.push(Relu::new(format!("relu{}", i + 1)));
            in_ch = w;
        }
        net.push(Flatten::new("flat"));
        net.push(Linear::new("fc", in_ch * 64, 4, rng));
        net
    }

    #[test]
    fn copy_transfers_exact_weights() {
        let mut rng = Rng::seed_from(1);
        let src = net_with_convs(&mut rng, &[4, 6, 8]);
        let mut dst = net_with_convs(&mut rng, &[4, 6, 8]);
        assert!(!conv_prefix_identical(&src, &dst, 3).unwrap());
        let copied = copy_conv_prefix(&src, &mut dst, 2).unwrap();
        assert_eq!(copied, 2);
        assert!(conv_prefix_identical(&src, &dst, 2).unwrap());
        assert!(!conv_prefix_identical(&src, &dst, 3).unwrap()); // 3rd untouched
    }

    #[test]
    fn a_zero_of_the_other_sign_breaks_the_prefix() {
        let mut rng = Rng::seed_from(6);
        let src = net_with_convs(&mut rng, &[4, 6]);
        let mut dst = net_with_convs(&mut rng, &[4, 6]);
        copy_conv_prefix(&src, &mut dst, 2).unwrap();
        assert!(conv_prefix_identical(&src, &dst, 2).unwrap());
        // Conv biases start at +0.0; flip one to -0.0, which f32 `==`
        // still calls equal.
        dst.layer_mut(2).unwrap().visit_params(&mut |p, _| {
            if p.dims().len() == 1 {
                p.as_mut_slice()[0] = -0.0;
            }
        });
        assert!(!conv_prefix_identical(&src, &dst, 2).unwrap());
        assert!(conv_prefix_identical(&src, &dst, 1).unwrap());
    }

    #[test]
    fn copy_rejects_shape_mismatch() {
        let mut rng = Rng::seed_from(2);
        let src = net_with_convs(&mut rng, &[4, 6]);
        let mut dst = net_with_convs(&mut rng, &[4, 7]);
        assert!(copy_conv_prefix(&src, &mut dst, 2).is_err());
        assert!(copy_conv_prefix(&src, &mut dst, 1).is_ok()); // first layer matches
    }

    #[test]
    fn copy_rejects_too_many_layers() {
        let mut rng = Rng::seed_from(3);
        let src = net_with_convs(&mut rng, &[4]);
        let mut dst = net_with_convs(&mut rng, &[4, 6]);
        assert!(copy_conv_prefix(&src, &mut dst, 2).is_err());
    }

    #[test]
    fn transfer_and_freeze_full_recipe() {
        let mut rng = Rng::seed_from(4);
        let src = net_with_convs(&mut rng, &[4, 6, 8]);
        let mut dst = net_with_convs(&mut rng, &[4, 6, 8]);
        transfer_and_freeze(&src, &mut dst, 3, 2).unwrap();
        assert!(conv_prefix_identical(&src, &dst, 3).unwrap());
        // First 2 convs (indices 0 and 2) frozen, third conv active.
        assert!(dst.is_frozen(0));
        assert!(dst.is_frozen(2));
        assert!(!dst.is_frozen(4));
        assert!(transfer_and_freeze(&src, &mut dst, 1, 2).is_err());
    }

    #[test]
    fn different_spatial_dims_still_transfer() {
        // Conv weights are (M, N, K, K): spatial input size is irrelevant,
        // which is exactly why the 12x12-patch trunk transfers to the
        // 36x36 inference network.
        let mut rng = Rng::seed_from(5);
        let mut small = Sequential::new("s");
        small.push(Conv2d::new("c1", 1, 4, 4, 4, 3, 1, 1, &mut rng).unwrap());
        let mut big = Sequential::new("b");
        big.push(Conv2d::new("c1", 1, 16, 16, 4, 3, 1, 1, &mut rng).unwrap());
        assert_eq!(copy_conv_prefix(&small, &mut big, 1).unwrap(), 1);
        assert!(conv_prefix_identical(&small, &big, 1).unwrap());
    }
}
