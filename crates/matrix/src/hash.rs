//! The one deterministic-hash module of the workspace.
//!
//! MEMPHIS keys every reuse decision on a hash of the lineage DAG
//! (opcode, literal data, input hashes); this reproduction additionally
//! makes every simulated fault, arrival, placement and digest a pure
//! hash of a seed and run-stable coordinates, so gated counters are
//! exact run over run. Every such hash is built from the primitives
//! here:
//!
//! - [`mix`]: the SplitMix64 finalizer, a bijective avalanche mix;
//! - [`unit`]: the top 53 bits of a hash as a uniform `f64` in `[0, 1)`;
//! - [`fnv1a`]: byte-wise FNV-1a (start from [`FNV_OFFSET`]);
//! - [`fold`]: FNV-1a's step applied to a whole 64-bit word, the
//!   order-sensitive digest fold;
//! - [`seeded4`] and [`seeded`]: the two seeded decision hashes.
//!
//! **Bit-identity rule.** Lineage content hashes, matrix fingerprints,
//! fault schedules, HRW placement and every gated counter are functions
//! of these bits, and some of them persist on disk. A change to any
//! function here is a change to all of them; the known-answer tests
//! below pin published vectors and values captured before the copies
//! were merged into this module.

/// FNV-1a 64-bit offset basis: the start value of every FNV hash and
/// digest fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64's state increment (the golden-ratio constant).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: turns structured input (a seed xor
/// coordinates) into an i.i.d.-looking 64-bit value.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The top 53 bits of `h` as a uniform value in `[0, 1)`.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Continues the byte-wise FNV-1a hash `h` over `bytes`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds one 64-bit word into the digest `h` (FNV-1a's xor-multiply
/// step over a whole word): order-sensitive, start from [`FNV_OFFSET`].
#[inline]
pub fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Decision hash of a seed, a per-decision-kind salt and up to four
/// coordinates (unused ones 0): the simulated Spark fault plan and the
/// serving trace use it.
#[inline]
pub fn seeded4(seed: u64, salt: u64, coords: [u64; 4]) -> u64 {
    let mut h = mix(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
    for c in coords {
        h = mix(h ^ c);
    }
    h
}

/// Decision hash of a seed, a salt and one coordinate: the latency and
/// cluster harnesses use it.
#[inline]
pub fn seeded(seed: u64, salt: u64, coord: u64) -> u64 {
    mix(mix(seed ^ mix(salt)) ^ coord)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn splitmix64_matches_published_first_output() {
        // SplitMix64 seeded with 0 emits mix(0) first.
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fold_is_fnv1a_step_over_a_word() {
        // A word below 256 folds exactly like the one-byte FNV-1a step.
        assert_eq!(fold(FNV_OFFSET, b'a' as u64), fnv1a(FNV_OFFSET, b"a"));
        assert_ne!(fold(fold(FNV_OFFSET, 1), 2), fold(fold(FNV_OFFSET, 2), 1));
    }

    #[test]
    fn unit_spans_the_half_open_interval() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
        assert_eq!(unit(1 << 63), 0.5);
    }

    /// Values captured before the per-crate copies were merged here.
    #[test]
    fn pinned_values_are_unchanged() {
        let m = Matrix::from_vec(3, 2, vec![1.0, -2.5, 3.25, 0.0, 1e-3, 42.0]).unwrap();
        assert_eq!(m.fingerprint(), 0xd9bc_588f_f128_bca0);
        // The serving fault decision (salt 0x5e7e).
        assert_eq!(seeded4(42, 0x5e7e, [1, 2, 3, 4]), 0x8269_9d25_2250_41bb);
        assert_eq!(unit(seeded4(42, 0x5e7e, [1, 2, 3, 4])), 0.509424039426734);
        // The Spark task-fault decision (salt 1).
        assert_eq!(unit(seeded4(42, 1, [1, 2, 3, 4])), 0.34905136247182067);
        // The latency harness's fan-out decision (salt 0x1a7e_0001).
        assert_eq!(seeded(42, 0x1a7e_0001, 7), 0xa4f2_9e32_c82a_45af);
        assert_eq!(unit(seeded(42, 0x1a7e_0001, 7)), 0.6443270563105807);
    }
}
