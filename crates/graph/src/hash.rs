//! The fixed hasher of the record path, behind every table a record probes
//! between frame and policy: the edge table, node interning and
//! [`crate::builder::Inventory`] here, `segment`'s address map and rule set.
//!
//! `std`'s SipHash is keyed per process to resist crafted collisions, and
//! each probe would pay for it. The keys are one or a few machine words, so
//! a multiply-rotate mix (the FxHash recipe) plus one fold is several times
//! cheaper and hashes the same in every process. The trade is in DESIGN §5:
//! crafted collisions slow their tenant's analysis and its thread, corrupt nothing.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` of the maps that use [`FixedHasher`].
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// 2⁶⁴ / φ, odd: consecutive inputs land far apart after one multiply.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word-at-a-time multiply-rotate hasher with no per-process key.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    /// Up to eight bytes per mix; the integer writes arrive here as fixed
    /// arrays, so after inlining each is exactly one mix.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
        }
    }
    /// The multiply leaves the low bits weak and the table indexes by
    /// them: fold the high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use std::hash::BuildHasher;
    use std::net::Ipv4Addr;

    /// A silent change of the mix (or of how `NodeId` or `Ipv4Addr` feeds
    /// it) must fail here, not show up as a benchmark shift.
    #[test]
    fn hash_is_pinned_on_known_keys() {
        let ip = |d: u8| Ipv4Addr::new(10, 0, 0, d);
        let keys = [
            (NodeId::Ip(ip(1)), NodeId::Ip(ip(2))),
            (NodeId::IpPort(ip(1), 443), NodeId::Service(7)),
            (NodeId::Other, NodeId::Other),
        ];
        let got: Vec<u64> = keys.iter().map(|k| FixedState::default().hash_one(k)).collect();
        // (`std` feeds `Ipv4Addr` as a native-endian `u32`: little-endian values.)
        assert_eq!(got, [4460712884952285021, 9238174924180386646, 10287442495454908713]);
        // The inventory's and the segment map's key: one word, one mix.
        assert_eq!(FixedState::default().hash_one(ip(1)), 16693167870519202665);
    }

    #[test]
    fn byte_strings_hash_by_content() {
        let h = |s: &str| FixedState::default().hash_one(s);
        assert_eq!(h("sub-1"), h("sub-1"));
        assert_ne!(h("sub-1"), h("sub-2"));
        assert_ne!(h("a-long-subscription-id-0"), h("a-long-subscription-id-1"));
    }

    /// Sequential addresses — the common shape — must not pile into few
    /// low-bit buckets.
    #[test]
    fn sequential_ips_spread_over_low_bits() {
        let mut buckets = [0u32; 64];
        for i in 0..4096u32 {
            let k = (
                NodeId::Ip(Ipv4Addr::from(0x0A00_0000 + i)),
                NodeId::Ip(Ipv4Addr::from(0x0A01_0000)),
            );
            buckets[(FixedState::default().hash_one(k) & 63) as usize] += 1;
        }
        let max = buckets.iter().copied().max().unwrap_or(0);
        assert!(max <= 2 * 4096 / 64, "fullest of 64 buckets holds {max} of 4096 keys");

        // The inventory's and the segment map's shape: bare addresses of one
        // /20, by the low six bits (the bucket) and by the top seven (the
        // tag hashbrown compares before it compares keys).
        let (mut low, mut tag) = ([0u32; 64], [0u32; 128]);
        for i in 0..4096u32 {
            let h = FixedState::default().hash_one(Ipv4Addr::from(0x0A00_0000 + i));
            low[(h & 63) as usize] += 1;
            tag[(h >> 57) as usize] += 1;
        }
        let (low, tag) = (low.iter().max().copied(), tag.iter().max().copied());
        assert!(low <= Some(2 * 4096 / 64), "fullest of 64 buckets holds {low:?} of 4096");
        assert!(tag <= Some(2 * 4096 / 128), "fullest of 128 tags holds {tag:?} of 4096");
    }
}
