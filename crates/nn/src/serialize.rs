//! Weight snapshots: in-memory state dicts and a tiny self-contained
//! binary file format (no external codec dependency).

use crate::error::NnError;
use crate::net::Network;
use crate::Result;
use insitu_tensor::Tensor;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes identifying a snapshot file.
const MAGIC: &[u8; 8] = b"INSITU01";

/// Clones every parameter tensor of a network, frozen or not.
pub fn state_dict(net: &mut dyn Network) -> Vec<Tensor> {
    let mut params = Vec::new();
    net.visit_all(&mut |p| params.push(p.clone()));
    params
}

/// Writes a state dict back into a network, all or nothing: the count
/// and every shape are checked before the first tensor is written, so
/// a rejected dict leaves the network unchanged.
///
/// # Errors
///
/// Returns [`NnError::SnapshotMismatch`] if the parameter count or any
/// shape differs.
pub fn load_state_dict(net: &mut dyn Network, params: &[Tensor]) -> Result<()> {
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
    let mut sources = params.iter();
    net.visit_all(&mut |p| {
        if let Some(src) = sources.next() {
            p.copy_from(src).expect("count and shapes checked above");
        }
    });
    Ok(())
}

/// Serializes a state dict to a writer in the `INSITU01` binary format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_snapshot<W: Write>(mut w: W, params: &[Tensor]) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    for t in params {
        let dims = t.dims();
        w.write_all(&(dims.len() as u32).to_le_bytes())?;
        for &d in dims {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        for &x in t.as_slice() {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserializes a state dict from a reader.
///
/// # Errors
///
/// Returns an I/O error with kind `InvalidData` on a malformed stream.
pub fn read_snapshot<R: Read>(mut r: R) -> std::io::Result<Vec<Tensor>> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an INSITU01 snapshot"));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let count = u64::from_le_bytes(buf8) as usize;
    if count > 1 << 20 {
        return Err(bad("unreasonable tensor count"));
    }
    let mut params = Vec::with_capacity(count);
    for _ in 0..count {
        let mut buf4 = [0u8; 4];
        r.read_exact(&mut buf4)?;
        let ndim = u32::from_le_bytes(buf4) as usize;
        if ndim > 16 {
            return Err(bad("unreasonable rank"));
        }
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            r.read_exact(&mut buf8)?;
            dims.push(u64::from_le_bytes(buf8) as usize);
        }
        let len = dims
            .iter()
            .try_fold(1usize, |len, &d| len.checked_mul(d))
            .filter(|&len| len <= 1 << 28)
            .ok_or_else(|| bad("unreasonable tensor size"))?;
        let mut data = vec![0f32; len];
        for x in &mut data {
            r.read_exact(&mut buf4)?;
            *x = f32::from_le_bytes(buf4);
        }
        params.push(
            Tensor::from_vec(dims.as_slice(), data).map_err(|e| bad(&e.to_string()))?,
        );
    }
    Ok(params)
}

/// Saves a network's parameters to a file.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_to_file(net: &mut dyn Network, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_snapshot(std::io::BufWriter::new(file), &state_dict(net))
}

/// Loads a network's parameters from a file written by [`save_to_file`].
///
/// # Errors
///
/// Returns an error on I/O failure or if the snapshot does not match
/// the network.
pub fn load_from_file(net: &mut dyn Network, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::open(path).map_err(|e| NnError::SnapshotMismatch {
        reason: format!("cannot open snapshot: {e}"),
    })?;
    let params = read_snapshot(std::io::BufReader::new(file)).map_err(|e| {
        NnError::SnapshotMismatch { reason: format!("cannot read snapshot: {e}") }
    })?;
    load_state_dict(net, &params)
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

    #[test]
    fn binary_roundtrip() {
        let mut rng = Rng::seed_from(3);
        let mut a = net(&mut rng);
        let dict = state_dict(&mut a);
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &dict).unwrap();
        let restored = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(restored, dict);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_snapshot(&b"garbage!"[..]).is_err());
        assert!(read_snapshot(&b"INSITU01"[..]).is_err()); // truncated
    }

    #[test]
    fn overflowing_dims_are_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            buf.extend_from_slice(&(1u64 << 33).to_le_bytes());
        }
        let err = read_snapshot(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = Rng::seed_from(4);
        let mut a = net(&mut rng);
        let mut b = net(&mut rng);
        let path = std::env::temp_dir().join("insitu_nn_snapshot_test.bin");
        save_to_file(&mut a, &path).unwrap();
        load_from_file(&mut b, &path).unwrap();
        assert_eq!(state_dict(&mut a), state_dict(&mut b));
        let _ = std::fs::remove_file(&path);
    }
}
