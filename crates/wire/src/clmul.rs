//! Carry-less-multiply CRC folding — the one PCLMULQDQ primitive under
//! both CRC engines ([`crate::icrc`] and `strom_kernels::crc64`).
//!
//! A CRC is the message polynomial reduced mod `P`, and reduction
//! distributes over XOR: a 128-bit register `R` that sits `D` bits ahead
//! of the next input block can be replaced by
//! `R.hi · (x^(D+64) mod P) ⊕ R.lo · (x^D mod P)` — two 64 × 64 carry-less
//! multiplies whose 127-bit products fit the register — without changing
//! the remainder. [`Fold::fold`] keeps four such registers over a 64-byte
//! stride (four independent dependency chains, so the multiplier's latency
//! is hidden), collapses them to one at a 16-byte stride, consumes the
//! remaining whole 16-byte blocks, and returns the register as a
//! **16-byte residue congruent to the consumed prefix mod `P`**. The
//! caller runs that residue through the slice-by-16 step it already has,
//! from register 0, and finishes the < 16-byte tail on its table path — so
//! there is no Barrett stage and only four constants per polynomial, each
//! a [`xn_mod_p`] evaluated at compile time.
//!
//! The table loops stay as the portable path, the short-input path
//! (< [`FOLD_MIN_LEN`]) and the differential reference. DESIGN.md §10
//! writes the kernel up as an Eä *reduction*.

/// Shortest input [`Fold::fold`] takes. One full four-lane block — and the
/// measured crossover: below it the fold has nothing to multiply, and from
/// it on it beats both slice-by-16 loops (EXPERIMENTS.md, "Bytes at
/// hardware speed", crossover sweep).
pub const FOLD_MIN_LEN: usize = 64;

/// `x^n mod P` over GF(2), for a degree-`width` polynomial whose low
/// `width` coefficients are `poly` (MSB-first, the `x^width` term
/// implicit).
pub const fn xn_mod_p(n: u32, poly: u64, width: u32) -> u64 {
    let top = 1u64 << (width - 1);
    let mask = (top << 1).wrapping_sub(1);
    let mut r = 1u64;
    let mut i = 0;
    while i < n {
        let carry = r & top != 0;
        r = (r << 1) & mask;
        if carry {
            r ^= poly;
        }
        i += 1;
    }
    r
}

/// The fold constants of one CRC polynomial, typed by its bit order:
/// MSB-first CRCs load their blocks big-endian, reflected ones
/// little-endian; either way the register then holds the block as one
/// 128-bit polynomial in the order the multiplier works in.
#[derive(Debug, Clone, Copy)]
pub struct Fold<const MSB_FIRST: bool> {
    /// `[lo, hi]` multipliers of the register's low and high 64-bit halves
    /// at the 64-byte stride.
    k64: [u64; 2],
    /// The same pair at the 16-byte stride.
    k16: [u64; 2],
}

impl Fold<false> {
    /// Constants for a reflected 32-bit CRC (`poly` in MSB-first form, e.g.
    /// `0x04C11DB7`). In the reflected domain the register's *low* half
    /// holds the higher-degree terms, a 64 × 64 product lands one bit
    /// short of the 128-bit register (hence `<< 1`), and a 32-bit constant
    /// reflected within 32 bits sits 32 degrees up in a 64-bit lane — so
    /// the low half's `x^(D+64)` is `reflect32(x^(D+32) mod P) << 1` and
    /// the high half's `x^D` is `reflect32(x^(D−32) mod P) << 1`.
    pub const fn reflected32(poly: u32) -> Self {
        const fn k(n: u32, poly: u32) -> u64 {
            ((xn_mod_p(n, poly as u64, 32) as u32).reverse_bits() as u64) << 1
        }
        Self {
            k64: [k(512 + 32, poly), k(512 - 32, poly)],
            k16: [k(128 + 32, poly), k(128 - 32, poly)],
        }
    }
}

impl Fold<true> {
    /// Constants for an MSB-first 64-bit CRC: the high half is multiplied
    /// by `x^(D+64) mod P`, the low half by `x^D mod P`.
    pub const fn msb_first64(poly: u64) -> Self {
        Self {
            k64: [xn_mod_p(512, poly, 64), xn_mod_p(512 + 64, poly, 64)],
            k16: [xn_mod_p(128, poly, 64), xn_mod_p(128 + 64, poly, 64)],
        }
    }
}

impl<const MSB_FIRST: bool> Fold<MSB_FIRST> {
    /// Folds every whole 16-byte block of `data` and returns the residue
    /// with the unconsumed tail (< 16 bytes). `init` is the caller's
    /// incoming CRC register, XORed into the first 4 or 8 message bytes as
    /// the table loop would.
    ///
    /// Feeding the residue through the caller's table loop from register 0
    /// gives the register the table loop would hold after the consumed
    /// prefix. `None` when `data` is shorter than [`FOLD_MIN_LEN`] or the
    /// host lacks PCLMULQDQ or SSSE3 (the big-endian loads' byte shuffle):
    /// the caller stays on its table path.
    #[allow(unsafe_code)]
    #[inline]
    pub fn fold<'a>(&self, init: u64, data: &'a [u8]) -> Option<([u8; 16], &'a [u8])> {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= FOLD_MIN_LEN
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            // SAFETY: the probes above confirmed PCLMULQDQ and SSSE3 (SSE2
            // is part of the x86-64 baseline), everything the
            // `#[target_feature]` functions enable; their bodies are safe
            // Rust.
            return Some(unsafe { x86::fold(*self, init, data) });
        }
        let _ = (init, data);
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Fold;
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// One 16-byte block as a 128-bit polynomial register.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn load<const MSB_FIRST: bool>(b: &[u8; 16]) -> __m128i {
        let (a, b) = (
            b[..8].try_into().expect("sized"),
            b[8..].try_into().expect("sized"),
        );
        if MSB_FIRST {
            _mm_set_epi64x(u64::from_be_bytes(a) as i64, u64::from_be_bytes(b) as i64)
        } else {
            _mm_set_epi64x(u64::from_le_bytes(b) as i64, u64::from_le_bytes(a) as i64)
        }
    }

    /// Moves `x` ahead by the stride `k` was built for and XORs in `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,ssse3")]
    fn step(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[target_feature(enable = "pclmulqdq,ssse3")]
    pub(super) fn fold<const MSB_FIRST: bool>(
        f: Fold<MSB_FIRST>,
        init: u64,
        data: &[u8],
    ) -> ([u8; 16], &[u8]) {
        let k64 = _mm_set_epi64x(f.k64[1] as i64, f.k64[0] as i64);
        let k16 = _mm_set_epi64x(f.k16[1] as i64, f.k16[0] as i64);
        let lanes = |block: &[u8; 64]| -> [__m128i; 4] {
            let (quads, _) = block.as_chunks::<16>();
            std::array::from_fn(|i| load::<MSB_FIRST>(&quads[i]))
        };

        let (blocks, rest) = data.as_chunks::<64>();
        let (first, blocks) = blocks
            .split_first()
            .expect("dispatch checked len >= FOLD_MIN_LEN");
        let mut x = lanes(first);
        // The incoming register covers the first message bytes: the high
        // half of an MSB-first register, the low half of a reflected one.
        let init = if MSB_FIRST {
            _mm_set_epi64x(init as i64, 0)
        } else {
            _mm_set_epi64x(0, init as i64)
        };
        x[0] = _mm_xor_si128(x[0], init);
        for block in blocks {
            let next = lanes(block);
            for i in 0..4 {
                x[i] = step(x[i], k64, next[i]);
            }
        }
        let mut r = step(x[0], k16, x[1]);
        r = step(r, k16, x[2]);
        r = step(r, k16, x[3]);
        let (singles, tail) = rest.as_chunks::<16>();
        for block in singles {
            r = step(r, k16, load::<MSB_FIRST>(block));
        }

        let lo = _mm_cvtsi128_si64(r) as u64;
        let hi = _mm_cvtsi128_si64(_mm_srli_si128::<8>(r)) as u64;
        let mut residue = [0u8; 16];
        if MSB_FIRST {
            residue[..8].copy_from_slice(&hi.to_be_bytes());
            residue[8..].copy_from_slice(&lo.to_be_bytes());
        } else {
            residue[..8].copy_from_slice(&lo.to_le_bytes());
            residue[8..].copy_from_slice(&hi.to_le_bytes());
        }
        (residue, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xn_mod_p_small_cases() {
        // Below the degree nothing is reduced; at the degree the implicit
        // top term leaves the polynomial's low coefficients.
        assert_eq!(xn_mod_p(0, 0x04C1_1DB7, 32), 1);
        assert_eq!(xn_mod_p(31, 0x04C1_1DB7, 32), 1 << 31);
        assert_eq!(xn_mod_p(32, 0x04C1_1DB7, 32), 0x04C1_1DB7);
        assert_eq!(xn_mod_p(63, 0x42F0_E1EB_A9EA_3693, 64), 1 << 63);
        assert_eq!(
            xn_mod_p(64, 0x42F0_E1EB_A9EA_3693, 64),
            0x42F0_E1EB_A9EA_3693
        );
    }

    #[test]
    fn crc32_constants_equal_the_published_values() {
        // The k1…k4 of Intel's "Fast CRC Computation for Generic
        // Polynomials Using PCLMULQDQ" as zlib and the Linux kernel carry
        // them for the reflected 0x04C11DB7.
        const F: Fold<false> = Fold::reflected32(0x04C1_1DB7);
        assert_eq!(F.k64, [0x1_5444_2bd4, 0x1_c6e4_1596]);
        assert_eq!(F.k16, [0x1_7519_97d0, 0x0_ccaa_009e]);
    }

    #[test]
    fn short_input_stays_on_the_table_path() {
        const F: Fold<false> = Fold::reflected32(0x04C1_1DB7);
        assert!(F.fold(0, &[0xa5; FOLD_MIN_LEN - 1]).is_none());
    }

    #[test]
    fn fold_consumes_whole_blocks_and_returns_the_tail() {
        const F: Fold<false> = Fold::reflected32(0x04C1_1DB7);
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7) as u8).collect();
        // `None` on a host without PCLMULQDQ: nothing to check there.
        if let Some((_, tail)) = F.fold(0, &data) {
            assert_eq!(tail, &data[192..]);
        }
    }
}
