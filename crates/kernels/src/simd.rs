//! A portable SIMD layer for the kernel hot loops.
//!
//! The FPGA kernels of the paper process one 64 B word per clock (II = 1,
//! §3.4). Two software counterparts of those inner loops run under
//! explicit runtime dispatch: [`bytes_equal`] (the KV driver's value
//! audit) and [`mask_cmp`] (the filter predicate scan). The pieces:
//!
//! - [`U8x32`]: a safe fixed-width lane type whose operations are plain
//!   per-lane array loops. Compiled with the AVX2 target feature they
//!   lower to 256-bit vector instructions; without it they remain correct
//!   scalar code.
//! - `simd_dispatch!`, a module-local macro: wraps a function body twice —
//!   once baseline, once `#[target_feature(enable = "avx2")]` — and
//!   selects at runtime via [`backend`]. This is the standard
//!   safe-dispatch pattern: the unsafe AVX2 entry point is only reached
//!   after `is_x86_feature_detected!` confirmed the ISA, and the body
//!   itself is ordinary safe Rust.
//!
//! **Differential-reference policy** (same as [`crate::crc64::crc64_reference`]):
//! every vectorized routine keeps its naive scalar implementation as a
//! separately-compiled reference, and unit tests assert bit-identical
//! outputs at every width, including the scalar fallback path. The lane
//! types never change results — only schedules. A lane variant that does
//! not measurably beat its reference is deleted, not kept at parity
//! (EXPERIMENTS.md records the HLL, Bloom and radix variants retired
//! that way).

use std::sync::OnceLock;

/// The vector backend selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// No usable vector ISA detected: every `simd_dispatch!` function runs
    /// its baseline compilation.
    Scalar,
    /// x86-64 AVX2: 256-bit lanes, 4 × u64 / 32 × u8 per operation.
    Avx2,
}

/// Detects the best available backend once and caches it.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Backend::Avx2;
        }
        Backend::Scalar
    })
}

/// Wraps a function body in runtime AVX2 dispatch.
///
/// The body is compiled twice: once at the crate's baseline target and
/// once under `#[target_feature(enable = "avx2")]`; [`backend`] picks the
/// entry point per call. Results are identical by construction — both
/// entry points share the one body.
macro_rules! simd_dispatch {
    (
        $(#[$meta:meta])*
        pub fn $name:ident($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    body($($arg),*)
                }
                if backend() == Backend::Avx2 {
                    // SAFETY: `backend()` returned Avx2 only after
                    // `is_x86_feature_detected!("avx2")` succeeded.
                    return unsafe { avx2($($arg),*) };
                }
            }
            body($($arg),*)
        }
    };
}

/// Thirty-two u8 lanes (one 256-bit register / half a 64 B datapath word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U8x32(pub [u8; 32]);

impl U8x32 {
    /// Lane count.
    pub const LANES: usize = 32;

    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: u8) -> Self {
        Self([v; 32])
    }

    /// Loads the first 32 bytes of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has fewer than 32 bytes.
    #[inline(always)]
    pub fn load(s: &[u8]) -> Self {
        let mut r = [0u8; 32];
        r.copy_from_slice(&s[..32]);
        Self(r)
    }

    /// A 32-bit mask: bit i set iff lane i equals `o`'s lane i (the
    /// classic compare + movemask idiom).
    #[inline(always)]
    pub fn eq_bitmask(self, o: Self) -> u32 {
        let mut m = 0u32;
        for i in 0..32 {
            m |= u32::from(self.0[i] == o.0[i]) << i;
        }
        m
    }
}

simd_dispatch! {
    /// Constant-shape byte-slice equality over 32-byte lanes — the
    /// vectorized compare the KV GET verification path runs per value.
    /// Reference: [`bytes_equal_reference`].
    pub fn bytes_equal(a: &[u8], b: &[u8]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut i = 0;
        while i + U8x32::LANES <= a.len() {
            if U8x32::load(&a[i..]).eq_bitmask(U8x32::load(&b[i..])) != u32::MAX {
                return false;
            }
            i += U8x32::LANES;
        }
        a[i..] == b[i..]
    }
}

/// Byte-at-a-time equality: the differential reference for
/// [`bytes_equal`].
pub fn bytes_equal_reference(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    for i in 0..a.len() {
        if a[i] != b[i] {
            return false;
        }
    }
    true
}

/// Comparison selector for [`mask_cmp`]: which unsigned relation each lane
/// is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Lane == pivot.
    Eq,
    /// Lane != pivot.
    Ne,
    /// Lane < pivot (unsigned).
    Lt,
    /// Lane > pivot (unsigned).
    Gt,
}

simd_dispatch! {
    /// Compares up to 64 `values` against `pivot`; bit i of the result is
    /// set iff `values[i] <cmp> pivot`. Reference: [`mask_cmp_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `values` holds more than 64 elements.
    pub fn mask_cmp(values: &[u64], cmp: Cmp, pivot: u64) -> u64 {
        assert!(values.len() <= 64, "one mask word covers 64 values");
        // Hand-unswitched so each loop is a single branchless compare per
        // lane that the compiler auto-vectorizes (compare + sign-mask
        // extraction) under the wide entry point; a hand-rolled four-lane
        // formulation measured *slower* because the 4-lane bool
        // extraction did not lower to a movemask.
        let mut m = 0u64;
        match cmp {
            Cmp::Eq => {
                for (i, &v) in values.iter().enumerate() {
                    m |= u64::from(v == pivot) << i;
                }
            }
            Cmp::Ne => {
                for (i, &v) in values.iter().enumerate() {
                    m |= u64::from(v != pivot) << i;
                }
            }
            Cmp::Lt => {
                for (i, &v) in values.iter().enumerate() {
                    m |= u64::from(v < pivot) << i;
                }
            }
            Cmp::Gt => {
                for (i, &v) in values.iter().enumerate() {
                    m |= u64::from(v > pivot) << i;
                }
            }
        }
        m
    }
}

/// One-value-at-a-time comparison mask: the differential reference for
/// [`mask_cmp`].
///
/// # Panics
///
/// Panics if `values` holds more than 64 elements.
pub fn mask_cmp_reference(values: &[u64], cmp: Cmp, pivot: u64) -> u64 {
    assert!(values.len() <= 64, "one mask word covers 64 values");
    let mut m = 0u64;
    for (i, &v) in values.iter().enumerate() {
        let hit = match cmp {
            Cmp::Eq => v == pivot,
            Cmp::Ne => v != pivot,
            Cmp::Lt => v < pivot,
            Cmp::Gt => v > pivot,
        };
        m |= u64::from(hit) << i;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_stable() {
        assert_eq!(backend(), backend());
    }

    #[test]
    fn u8x32_movemask() {
        let mut a = [7u8; 32];
        let b = [7u8; 32];
        assert_eq!(U8x32(a).eq_bitmask(U8x32(b)), u32::MAX);
        a[0] = 0;
        a[31] = 0;
        let m = U8x32(a).eq_bitmask(U8x32(b));
        assert_eq!(m, !1 & !(1 << 31));
    }

    #[test]
    fn bytes_equal_matches_reference() {
        let a: Vec<u8> = (0..200u32).map(|i| (i * 7 % 251) as u8).collect();
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 200] {
            let mut b = a[..len].to_vec();
            assert!(bytes_equal(&a[..len], &b));
            assert!(bytes_equal_reference(&a[..len], &b));
            if len > 0 {
                for flip in [0, len / 2, len - 1] {
                    b[flip] ^= 0x80;
                    assert_eq!(
                        bytes_equal(&a[..len], &b),
                        bytes_equal_reference(&a[..len], &b)
                    );
                    assert!(!bytes_equal(&a[..len], &b));
                    b[flip] ^= 0x80;
                }
            }
        }
        assert!(!bytes_equal(&a[..3], &a[..4]), "length mismatch");
    }

    #[test]
    fn mask_cmp_matches_reference_at_every_width() {
        let base: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 97)
            .collect();
        for len in 0..=64usize {
            let v = &base[..len];
            for cmp in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Gt] {
                for pivot in [0u64, 48, 96, u64::MAX] {
                    assert_eq!(
                        mask_cmp(v, cmp, pivot),
                        mask_cmp_reference(v, cmp, pivot),
                        "len={len} cmp={cmp:?} pivot={pivot}"
                    );
                }
            }
        }
    }

    #[test]
    fn mask_cmp_is_unsigned() {
        let v = [u64::MAX, 1 << 63, 1];
        assert_eq!(mask_cmp(&v, Cmp::Gt, 2), 0b011);
        assert_eq!(mask_cmp(&v, Cmp::Lt, 1 << 63), 0b100);
    }

    #[test]
    #[should_panic(expected = "64 values")]
    fn mask_cmp_rejects_oversized_blocks() {
        let v = vec![0u64; 65];
        let _ = mask_cmp(&v, Cmp::Eq, 0);
    }
}
