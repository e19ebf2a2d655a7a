//! What the Cloud's activation store reports, and the content ids its
//! archive is deduplicated by.
//!
//! The store itself lives with the archive it shadows, in
//! [`Cloud`](crate::Cloud): one frozen-prefix activation per archived
//! sample, appended in archive order and recomputed only when the prefix
//! changes. These are its lifetime counts.
//!
//! Telemetry: `cloud.cache.request` / `cloud.cache.hit` /
//! `cloud.cache.miss` counters (per sample; hits + misses always equals
//! requests), `cloud.cache.bytes` (cumulative bytes of activations
//! computed), and a `cloud.prefix_forward` span — auto-fed into the
//! latency histogram — around each batched prefix forward.

use insitu_data::Dataset;

/// Lifetime statistics of the Cloud's frozen-prefix activation store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Stored activations reused by an update.
    pub hits: u64,
    /// Activations an update had to compute with the frozen prefix.
    pub misses: u64,
    /// Bytes of activations currently stored.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// Hit rate over the store's lifetime (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Content id of one sample: a 64-bit FNV-1a over the exact image bits
/// plus the label. Identical re-uploads map to identical ids, which
/// lets the endpoint deduplicate its archive.
pub(crate) fn sample_ids(data: &Dataset) -> Vec<u64> {
    let dims = data.images().dims();
    let sample_len: usize = dims.iter().skip(1).product();
    let src = data.images().as_slice();
    let labels = data.labels();
    (0..data.len())
        .map(|i| {
            let mut h = Fnv::new();
            for &x in &src[i * sample_len..(i + 1) * sample_len] {
                h.u32(x.to_bits());
            }
            h.u64(labels[i] as u64);
            h.finish()
        })
        .collect()
}

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_data::Condition;
    use insitu_tensor::Rng;

    fn data(n: usize, seed: u64) -> Dataset {
        Dataset::generate(n, 4, &Condition::in_situ(), &mut Rng::seed_from(seed)).unwrap()
    }

    #[test]
    fn sample_ids_are_content_hashes() {
        let a = data(4, 81);
        let ids = sample_ids(&a);
        assert_eq!(ids, sample_ids(&a.clone()));
        // Identical content re-uploaded gets identical ids.
        let twice = a.concat(&a).unwrap();
        let tids = sample_ids(&twice);
        assert_eq!(&tids[..4], &tids[4..]);
        // Different content gets different ids.
        let b = data(4, 82);
        assert_ne!(ids, sample_ids(&b));
    }
}
