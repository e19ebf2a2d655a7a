//! Weight snapshots: in-memory state dicts — what a model update
//! carries and what an install checks and loads.

use crate::error::NnError;
use crate::net::Network;
use crate::Result;
use insitu_tensor::Tensor;

/// Clones every parameter tensor of a network, frozen or not.
pub fn state_dict(net: &mut dyn Network) -> Vec<Tensor> {
    let mut params = Vec::new();
    net.visit_all(&mut |p| params.push(p.clone()));
    params
}

/// Checks that a state dict fits a network — same tensor count, same
/// shape at every position — without writing anything. This is the
/// dims-only pass [`load_state_dict`] runs before its first write, so a
/// caller installing several dicts can check them all before touching
/// any network.
///
/// # Errors
///
/// Returns [`NnError::SnapshotMismatch`] if the parameter count or any
/// shape differs.
pub fn check_state_dict(net: &mut dyn Network, params: &[Tensor]) -> Result<()> {
    let mut idx = 0usize;
    let mut failure: Option<NnError> = None;
    net.visit_all(&mut |p| {
        if failure.is_some() {
            return;
        }
        match params.get(idx) {
            None => {
                failure = Some(NnError::SnapshotMismatch {
                    reason: format!("snapshot has only {} tensors", params.len()),
                });
            }
            Some(src) if src.shape() != p.shape() => {
                failure = Some(NnError::SnapshotMismatch {
                    reason: format!(
                        "tensor {idx}: network {} vs snapshot {}",
                        p.shape(),
                        src.shape()
                    ),
                });
            }
            Some(_) => {}
        }
        idx += 1;
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if idx != params.len() {
        return Err(NnError::SnapshotMismatch {
            reason: format!("network has {idx} tensors, snapshot has {}", params.len()),
        });
    }
    Ok(())
}

/// Whether the first `n` tensors of `params` are bitwise equal
/// ([`Tensor::same_bits`]) to the network's first `n` parameters,
/// shapes included. False when either side holds fewer than `n`.
/// Reads only; this is how an install tells whether a dict keeps a
/// network's frozen or shared prefix.
pub fn leading_bits_equal(net: &mut dyn Network, params: &[Tensor], n: usize) -> bool {
    if params.len() < n {
        return false;
    }
    let (mut idx, mut equal) = (0usize, true);
    net.visit_all(&mut |p| {
        if idx < n {
            equal &= p.same_bits(&params[idx]);
        }
        idx += 1;
    });
    equal && idx >= n
}

/// Writes a state dict back into a network, all or nothing: the dict
/// passes [`check_state_dict`] before the first tensor is written, so
/// a rejected dict leaves the network unchanged.
///
/// # Errors
///
/// Returns [`NnError::SnapshotMismatch`] if the parameter count or any
/// shape differs.
pub fn load_state_dict(net: &mut dyn Network, params: &[Tensor]) -> Result<()> {
    load_state_dict_from(net, params, 0)
}

/// [`load_state_dict`] for a caller that has just shown the first
/// `first` tensors equal to the network's (see
/// [`leading_bits_equal`]): the whole dict is checked, then only
/// `params[first..]` is written.
///
/// # Errors
///
/// Returns [`NnError::SnapshotMismatch`] if the parameter count or any
/// shape differs; nothing is written then.
pub fn load_state_dict_from(net: &mut dyn Network, params: &[Tensor], first: usize) -> Result<()> {
    check_state_dict(net, params)?;
    let mut idx = 0usize;
    net.visit_all(&mut |p| {
        if idx >= first {
            p.copy_from(&params[idx]).expect("count and shapes checked above");
        }
        idx += 1;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear};
    use crate::net::Sequential;
    use insitu_tensor::Rng;

    fn net(rng: &mut Rng) -> Sequential {
        let mut n = Sequential::new("n");
        n.push(Conv2d::new("c", 1, 4, 4, 2, 3, 1, 1, rng).unwrap());
        n.push(Linear::new("fc", 32, 3, rng));
        n
    }

    #[test]
    fn state_dict_roundtrip_in_memory() {
        let mut rng = Rng::seed_from(1);
        let mut a = net(&mut rng);
        let mut b = net(&mut rng);
        let dict = state_dict(&mut a);
        assert_eq!(dict.len(), 4); // 2 layers x (weight, bias)
        load_state_dict(&mut b, &dict).unwrap();
        assert_eq!(state_dict(&mut b), dict);
    }

    #[test]
    fn mismatched_dict_rejected() {
        let mut rng = Rng::seed_from(2);
        let mut a = net(&mut rng);
        let dict = state_dict(&mut a);
        assert!(load_state_dict(&mut a, &dict[..3]).is_err());
        let mut long = dict.clone();
        long.push(Tensor::zeros([1]));
        assert!(load_state_dict(&mut a, &long).is_err());
        let mut wrong_shape = dict;
        wrong_shape[0] = Tensor::zeros([9, 9]);
        assert!(load_state_dict(&mut a, &wrong_shape).is_err());
    }

    #[test]
    fn leading_bits_and_partial_load() {
        let mut rng = Rng::seed_from(7);
        let mut a = net(&mut rng);
        let mut dict = state_dict(&mut a);
        assert!(leading_bits_equal(&mut a, &dict, 4));
        let mut long = dict.clone();
        long.push(Tensor::zeros([1]));
        assert!(!leading_bits_equal(&mut a, &long, 5), "the net holds only 4");
        assert!(!leading_bits_equal(&mut a, &dict[..1], 2), "the dict holds only 1");
        // The conv bias starts at +0.0; -0.0 differs in bits only.
        dict[1].as_mut_slice()[0] = -0.0;
        assert!(leading_bits_equal(&mut a, &dict, 1));
        assert!(!leading_bits_equal(&mut a, &dict, 2));
        // A load from index 2 leaves the first two tensors as they were.
        dict[3].as_mut_slice()[0] = 42.0;
        load_state_dict_from(&mut a, &dict, 2).unwrap();
        let after = state_dict(&mut a);
        assert_eq!(after[1].as_slice()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(after[3].as_slice()[0], 42.0);
    }

    #[test]
    fn rejected_dict_leaves_the_network_unchanged() {
        let mut rng = Rng::seed_from(5);
        let mut a = net(&mut rng);
        let mut b = net(&mut rng);
        let bits = |dict: Vec<Tensor>| -> Vec<Vec<u32>> {
            dict.iter().map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect()).collect()
        };
        let before = bits(state_dict(&mut a));
        let mut wrong_shape = state_dict(&mut b);
        wrong_shape[2] = Tensor::zeros([9, 9]);
        assert!(load_state_dict(&mut a, &wrong_shape).is_err());
        assert_eq!(bits(state_dict(&mut a)), before);
        let mut long = state_dict(&mut b);
        long.push(Tensor::zeros([1]));
        assert!(load_state_dict(&mut a, &long).is_err());
        assert_eq!(bits(state_dict(&mut a)), before);
    }
}
