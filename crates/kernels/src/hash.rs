//! A 64-bit mixing hash shared by the HLL kernel and its CPU baseline.
//!
//! HyperLogLog quality depends on a well-mixed hash. We use the
//! SplitMix64 finalizer — cheap enough for a line-rate hardware pipeline
//! (a few multipliers and shifts, cf. the robust hashes of Kara et
//! al. \[27\] cited in §6.4) and statistically strong enough for HLL's
//! uniformity assumption.

use crate::simd::U64x4;

/// Mixes a 64-bit value (SplitMix64 finalizer).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes an 8-byte little-endian item (the 8 B tuples of §6.4/§7.2).
#[inline]
pub fn hash_item(bytes: [u8; 8]) -> u64 {
    mix64(u64::from_le_bytes(bytes))
}

/// Four SplitMix64 finalizers in lock-step — the same constants and shift
/// schedule as [`mix64`], one value per lane.
#[inline(always)]
pub fn mix64_x4(x: U64x4) -> U64x4 {
    let x = x.wrapping_add(U64x4::splat(0x9E37_79B9_7F4A_7C15));
    let x = x
        .xor(x.shr(30))
        .wrapping_mul(U64x4::splat(0xBF58_476D_1CE4_E5B9));
    let x = x
        .xor(x.shr(27))
        .wrapping_mul(U64x4::splat(0x94D0_49BB_1331_11EB));
    x.xor(x.shr(31))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn zero_does_not_map_to_zero() {
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn avalanche_is_reasonable() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u32;
        let trials = 64 * 16;
        for i in 0..16u64 {
            let x = i.wrapping_mul(0x1234_5678_9abc_def1);
            let h = mix64(x);
            for bit in 0..64 {
                total += (h ^ mix64(x ^ (1 << bit))).count_ones();
            }
        }
        let avg = f64::from(total) / f64::from(trials);
        assert!((24.0..40.0).contains(&avg), "avalanche avg = {avg}");
    }

    #[test]
    fn leading_zero_distribution_is_geometric() {
        // P(leading_zeros >= k) ~ 2^-k: sanity for the HLL estimator.
        let n = 100_000u64;
        let ge8 = (0..n).filter(|&i| mix64(i).leading_zeros() >= 8).count();
        let expected = n as f64 / 256.0;
        assert!(
            (ge8 as f64) > expected * 0.7 && (ge8 as f64) < expected * 1.3,
            "ge8 = {ge8}, expected ~{expected}"
        );
    }

    #[test]
    fn hash_item_uses_little_endian() {
        assert_eq!(hash_item(1u64.to_le_bytes()), mix64(1));
    }

    #[test]
    fn x4_lanes_are_independent() {
        let h = mix64_x4(U64x4::load(&[0, 1, u64::MAX, 42]));
        assert_eq!(
            h.to_array(),
            [mix64(0), mix64(1), mix64(u64::MAX), mix64(42)]
        );
    }
}
