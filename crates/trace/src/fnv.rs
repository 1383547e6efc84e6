//! FNV-1a (64-bit), the workspace's one non-cryptographic hash.
//!
//! It serves two jobs:
//!
//! * [`fnv1a`] checksums and fingerprints bytes: the `~<hex>` token of
//!   every `.trace`/`.sched`/journal line, every shard frame, and the
//!   byte-identity fingerprints of reports, event streams and sweeps;
//! * [`FnvHasher`] keys the profilers' hash maps by tiny tuples such as
//!   `(RoutineId, ThreadId)` — at most 16 bytes of id material — hit on
//!   every routine return. `std`'s default SipHash is DoS-resistant but
//!   an order of magnitude slower than needed for keys the guest program
//!   cannot choose adversarially (ids are assigned densely by the VM).
//!   FNV-1a folds one byte per step with a multiply and xor, which the
//!   compiler unrolls to a handful of instructions for fixed-size keys.

use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// FNV-1a streaming hasher.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

/// `BuildHasher` plugging [`FnvHasher`] into `HashMap`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

impl Default for FnvHasher {
    #[inline]
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::Hash;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a test vectors (64-bit).
        for (input, want) in [
            (&b""[..], 0xcbf29ce484222325),
            (b"a", 0xaf63dc4c8601ec8c),
            (b"foobar", 0x85944171f73967e8),
        ] {
            assert_eq!(fnv1a(input), want);
            let mut h = FnvHasher::default();
            h.write(input);
            assert_eq!(h.finish(), want);
        }
    }

    #[test]
    fn usable_as_map_hasher() {
        let mut m: HashMap<(u32, u32), u64, FnvBuildHasher> = HashMap::default();
        for i in 0..100u32 {
            m.insert((i, i ^ 7), u64::from(i));
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&(42, 42 ^ 7)], 42);
        // Distinct tuples hash distinctly enough to be found again.
        let mut h1 = FnvHasher::default();
        (1u32, 2u32).hash(&mut h1);
        let mut h2 = FnvHasher::default();
        (2u32, 1u32).hash(&mut h2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
