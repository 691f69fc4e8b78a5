//! A hasher for maps keyed by small integers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher of maps whose keys are integers this program hands out itself
/// — inode numbers, port numbers, destination addresses, flow hashes.
/// One multiply (and a fold, because a table's keys often share their
/// low bits) replaces SipHash-1-3 on a per-packet or per-component
/// lookup. It offers no protection against keys chosen to collide, so
/// it is not for keys that arrive from outside the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntKeyHasher(u64);

/// A `HashMap` over `u16`, `u32` or `u64` keys hashed by
/// [`IntKeyHasher`]; built with `IntKeyMap::default()`.
pub type IntKeyMap<K, V> = HashMap<K, V, BuildHasherDefault<IntKeyHasher>>;

impl Hasher for IntKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("IntKeyHasher hashes u16, u32 and u64 keys only");
    }

    fn write_u16(&mut self, key: u16) {
        self.write_u64(u64::from(key));
    }

    fn write_u32(&mut self, key: u32) {
        self.write_u64(u64::from(key));
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn every_key_width_hashes_like_its_u64() {
        let b = BuildHasherDefault::<IntKeyHasher>::default();
        assert_eq!(b.hash_one(11_211u16), b.hash_one(11_211u64));
        assert_eq!(b.hash_one(0x0a00_0001u32), b.hash_one(0x0a00_0001u64));
    }

    #[test]
    fn keys_sharing_low_bits_spread_over_the_table() {
        // A shard of a 16-way sharded table holds ids that are all equal
        // mod 16, so the bare product leaves its low four bits constant
        // (at most 4 of these 64 patterns); the fold must spread them
        // over the low bits hashbrown indexes with.
        let b = BuildHasherDefault::<IntKeyHasher>::default();
        let mut low = std::collections::HashSet::new();
        for id in (0..64u64).map(|i| 3 + 16 * i) {
            low.insert(b.hash_one(id) & 0x3f);
        }
        assert!(low.len() > 16, "only {} of 64 low-bit patterns", low.len());
    }

    #[test]
    fn maps_of_each_key_width_round_trip() {
        let mut ports: IntKeyMap<u16, usize> = IntKeyMap::default();
        let mut addrs: IntKeyMap<u32, usize> = IntKeyMap::default();
        let mut flows: IntKeyMap<u64, usize> = IntKeyMap::default();
        for i in 0..1_000usize {
            ports.insert(i as u16, i);
            addrs.insert(0x0a00_0000 + i as u32, i);
            flows.insert((i as u64) << 20, i);
        }
        for i in 0..1_000usize {
            assert_eq!(ports[&(i as u16)], i);
            assert_eq!(addrs[&(0x0a00_0000 + i as u32)], i);
            assert_eq!(flows[&((i as u64) << 20)], i);
        }
    }
}
