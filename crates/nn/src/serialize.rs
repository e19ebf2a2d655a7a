//! Weight snapshots: in-memory state dicts, and the model-update
//! format. An update is the dict from the freeze cut on: the Cloud ships
//! [`trained_dict`] and a node writes it with [`load_trained`], so no
//! caller counts prefix tensors.

use crate::error::NnError;
use crate::net::{Network, Sequential};
use crate::Result;
use insitu_tensor::Tensor;

/// Clones every parameter tensor of a network, frozen or not.
pub fn state_dict(net: &mut dyn Network) -> Vec<Tensor> {
    let mut params = Vec::new();
    net.visit_all(&mut |p| params.push(p.clone()));
    params
}

/// Clones the trained part of a network's state dict: every tensor from
/// the freeze cut ([`Sequential::first_unfrozen`]) on, or the whole dict
/// when nothing is frozen. The frozen prefix belongs to the deployment;
/// it is not cloned.
pub fn trained_dict(net: &mut Sequential) -> Vec<Tensor> {
    let mut skip = net.tensors_before(net.first_unfrozen());
    let mut params = Vec::new();
    net.visit_all(&mut |p| if skip == 0 { params.push(p.clone()) } else { skip -= 1 });
    params
}

/// Writes a [`trained_dict`] into a network, all or nothing: the
/// tensor count and every shape are checked against the network's
/// tensors from its freeze cut on before the first write. The frozen
/// prefix is neither read nor written, and a dict that still carries it
/// is rejected.
///
/// # Errors
///
/// Returns [`NnError::SnapshotMismatch`] if the tensor count or any
/// shape differs; nothing is written then.
pub fn load_trained(net: &mut Sequential, dict: &[Tensor]) -> Result<()> {
    let first = net.tensors_before(net.first_unfrozen());
    load_state_dict_from(net, dict, first)
}

/// Whether the first `n` tensors of `params` are bitwise equal
/// ([`Tensor::same_bits`]) to the network's first `n` parameters,
/// shapes included. False when either side holds fewer than `n`.
/// Reads only; this is how a caller that keeps activations of a
/// network's frozen prefix tells whether they still hold.
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

/// Writes a whole state dict back into a network, all or nothing: the
/// tensor count and every shape are checked before the first write.
///
/// # Errors
///
/// Returns [`NnError::SnapshotMismatch`] if the tensor count or any
/// shape differs; nothing is written then.
pub fn load_state_dict(net: &mut dyn Network, params: &[Tensor]) -> Result<()> {
    load_state_dict_from(net, params, 0)
}

/// Writes `params`, the tail of a state dict that starts at the
/// network's tensor `first`, into the network's tensors from `first`
/// on, all or nothing: the tail must hold exactly those tensors, each of
/// the same shape, and is checked before the first write. The tensors
/// before `first` are neither read nor written.
fn load_state_dict_from(net: &mut dyn Network, params: &[Tensor], first: usize) -> Result<()> {
    let mut idx = 0usize;
    let mut failure: Option<String> = None;
    net.visit_all(&mut |p| {
        if idx >= first && failure.is_none() {
            failure = match params.get(idx - first) {
                None => Some(format!("snapshot has only {} tensors from {first}", params.len())),
                Some(src) if src.shape() != p.shape() => Some(format!(
                    "tensor {idx}: network {} vs snapshot {}",
                    p.shape(),
                    src.shape()
                )),
                Some(_) => None,
            };
        }
        idx += 1;
    });
    if failure.is_none() && idx.checked_sub(first) != Some(params.len()) {
        failure = Some(format!(
            "network has {idx} tensors, snapshot has {} from {first}",
            params.len()
        ));
    }
    if let Some(reason) = failure {
        return Err(NnError::SnapshotMismatch { reason });
    }
    let mut idx = 0usize;
    net.visit_all(&mut |p| {
        if idx >= first {
            p.copy_from(&params[idx - first]).expect("count and shapes checked above");
        }
        idx += 1;
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear};
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

    /// The test net with its conv frozen: the cut is the Linear, whose
    /// weight and bias are the trained dict.
    fn frozen_net(rng: &mut Rng) -> Sequential {
        let mut n = net(rng);
        n.freeze_first_convs(1).unwrap();
        n
    }

    fn bits(dict: &[Tensor]) -> Vec<Vec<u32>> {
        dict.iter().map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect()).collect()
    }

    #[test]
    fn leading_bits_and_partial_load() {
        let mut rng = Rng::seed_from(7);
        let mut a = frozen_net(&mut rng);
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
        // A load of the trained tail leaves the frozen conv as it was.
        dict[3].as_mut_slice()[0] = 42.0;
        load_trained(&mut a, &dict[2..]).unwrap();
        let after = state_dict(&mut a);
        assert_eq!(after[1].as_slice()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(after[3].as_slice()[0], 42.0);
    }

    #[test]
    fn trained_dict_is_the_dict_after_the_freeze_cut() {
        let mut rng = Rng::seed_from(8);
        let mut a = frozen_net(&mut rng);
        // The oracle: the one place the format is written out by hand.
        let first = a.tensors_before(a.first_unfrozen());
        assert_eq!(first, 2);
        let whole = state_dict(&mut a);
        assert_eq!(bits(&trained_dict(&mut a)), bits(&whole[first..]));
        // Nothing frozen: the whole dict.
        a.freeze_first_convs(0).unwrap();
        assert_eq!(bits(&trained_dict(&mut a)), bits(&whole));
    }

    #[test]
    fn load_trained_rejects_a_dict_that_does_not_fit() {
        let mut rng = Rng::seed_from(9);
        let mut a = frozen_net(&mut rng);
        let before = bits(&state_dict(&mut a));
        let moved: Vec<Tensor> = trained_dict(&mut a).iter().map(|t| t.map(|v| v + 1.0)).collect();
        let mut whole = state_dict(&mut a);
        whole.truncate(whole.len() - moved.len());
        whole.extend(moved.iter().cloned());
        let mut long = moved.clone();
        long.push(Tensor::zeros([1]));
        let mut wrong_shape = moved.clone();
        wrong_shape[1] = Tensor::zeros([9]);
        let cases: [(&str, &[Tensor]); 4] = [
            ("whole dict", &whole),
            ("one short", &moved[..1]),
            ("one long", &long),
            ("wrong shape", &wrong_shape),
        ];
        for (what, bad) in cases {
            assert!(load_trained(&mut a, bad).is_err(), "{what}");
            assert_eq!(bits(&state_dict(&mut a)), before, "{what}");
        }
        load_trained(&mut a, &moved).unwrap();
        assert_eq!(bits(&trained_dict(&mut a)), bits(&moved));
    }

    #[test]
    fn rejected_dict_leaves_the_network_unchanged() {
        let mut rng = Rng::seed_from(5);
        let mut a = net(&mut rng);
        let mut b = net(&mut rng);
        let before = bits(&state_dict(&mut a));
        let mut wrong_shape = state_dict(&mut b);
        wrong_shape[2] = Tensor::zeros([9, 9]);
        assert!(load_state_dict(&mut a, &wrong_shape).is_err());
        assert_eq!(bits(&state_dict(&mut a)), before);
        let mut long = state_dict(&mut b);
        long.push(Tensor::zeros([1]));
        assert!(load_state_dict(&mut a, &long).is_err());
        assert_eq!(bits(&state_dict(&mut a)), before);
    }
}
