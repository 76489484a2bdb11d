//! A fixed-seed multiply-rotate hasher for the detector's hot maps.
//!
//! Algorithm 1 probes `ObjState::active` once per conflicting class of
//! every touched point, and every action looks its object up in the
//! shard. The keys are small (an object id, a class plus an integer slot
//! value), so std's SipHash with a per-map random seed costs more than
//! the probe it serves. This is the FxHash scheme: fold each word in with
//! a rotate, xor and multiply. It has no seed, so a key hashes to the
//! same value in every process and every run.
//!
//! The maps it keys belong to one detector, and a daemon session owns its
//! own detector, so keys crafted to collide slow only the session that
//! sends them; no map is shared between tenants.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const K: u64 = 0x517c_c1b7_2722_0a95;

/// The FxHash state: one word.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its entropy in the high bits; the table picks
    /// buckets from the low ones, so rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::{AccessPoint, ClassId};
    use crace_model::{ObjId, Value};
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(t)
    }

    /// No seed: these values are the same in every process and on every
    /// 64-bit target, so a restarted detector sees the same table layout.
    #[test]
    fn hashes_are_the_same_in_every_process() {
        assert_eq!(hash(&ObjId(7)), 596_649_058_390_091_056);
        let int_point = AccessPoint {
            class: ClassId(1),
            value: Some(Value::Int(42)),
        };
        assert_eq!(hash(&int_point), 5_552_056_039_525_982_742);
        let str_point = AccessPoint {
            class: ClassId(0),
            value: Some(Value::str("a.com")),
        };
        assert_eq!(hash(&str_point), 12_473_306_092_692_900_830);
        let ds_point = AccessPoint {
            class: ClassId(2),
            value: None,
        };
        assert_eq!(hash(&ds_point), 8_232_190_924_204_682_063);
    }

    /// The table indexes buckets by the low bits: dense small keys (four
    /// classes × 64 integer slots, the replay workloads' shape) must not
    /// pile into a few of them.
    #[test]
    fn dense_keys_spread_over_the_low_bits() {
        let mut buckets = std::collections::HashSet::new();
        for class in 0..4 {
            for k in 0..64 {
                let pt = AccessPoint {
                    class: ClassId(class),
                    value: Some(Value::Int(k)),
                };
                buckets.insert(hash(&pt) & 511);
            }
        }
        // Uniform hashing fills ≈ 201 of 512 buckets with 256 keys.
        assert!(buckets.len() > 180, "{} of 512 buckets used", buckets.len());
    }
}
