//! HyperLogLog cardinality estimation (Flajolet et al. \[15\]).
//!
//! §7.2 implements HLL as a StRoM kernel gathering cardinality "as a
//! by-product of data reception". This module is the algorithm itself,
//! shared by the NIC kernel ([`crate::hll_kernel`]) and the multi-threaded
//! CPU baseline. It uses `p`-bit register indexing (default p = 14,
//! 16,384 registers — the configuration of Heule et al. \[16\], which the
//! paper's CPU baseline is compared against) with the standard small-range
//! (linear counting) and large-range corrections.

use crate::hash::hash_item;

/// A HyperLogLog sketch.
///
/// # Examples
///
/// ```
/// use strom_kernels::hll::HyperLogLog;
/// let mut sketch = HyperLogLog::standard();
/// for i in 0..10_000u64 {
///     sketch.add_u64(i % 1000); // 1000 distinct values.
/// }
/// let estimate = sketch.estimate();
/// assert!((estimate - 1000.0).abs() / 1000.0 < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    /// Number of index bits.
    p: u8,
    /// 2^p registers, each holding a max leading-zero rank.
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates a sketch with `p` index bits (4 ..= 18).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `4..=18`.
    pub fn new(p: u8) -> Self {
        assert!((4..=18).contains(&p), "p must be in 4..=18");
        Self {
            p,
            registers: vec![0; 1 << p],
        }
    }

    /// The standard configuration used in the paper's context (p = 14).
    pub fn standard() -> Self {
        Self::new(14)
    }

    /// Number of registers (2^p).
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// On-chip memory the register file needs, in bits — used by the
    /// resource model to size the kernel's BRAM footprint.
    pub fn state_bits(&self) -> usize {
        // 6 bits suffice per register for 64-bit hashes; the byte-packed
        // software representation is an implementation detail.
        self.registers.len() * 6
    }

    /// Adds an already-hashed value.
    #[inline]
    pub fn add_hash(&mut self, hash: u64) {
        let idx = (hash >> (64 - self.p)) as usize;
        // Rank = leading zeros of the remaining bits + 1, capped.
        let rest = hash << self.p;
        let rank = if rest == 0 {
            64 - self.p + 1
        } else {
            rest.leading_zeros() as u8 + 1
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Adds an 8-byte item (hashing it first).
    #[inline]
    pub fn add_item(&mut self, item: [u8; 8]) {
        self.add_hash(hash_item(item));
    }

    /// Adds a `u64` value.
    #[inline]
    pub fn add_u64(&mut self, value: u64) {
        self.add_item(value.to_le_bytes());
    }

    /// Adds a block of `u64` values ([`Self::add_u64`] per value: the
    /// register scatter is serial, and hashing the block four lanes at a
    /// time ahead of it measured no faster — EXPERIMENTS.md).
    pub fn add_u64_batch(&mut self, values: &[u64]) {
        for &v in values {
            self.add_u64(v);
        }
    }

    /// Read-only register file, for bit-exact sketch comparison.
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Empties the sketch.
    pub fn clear(&mut self) {
        self.registers.fill(0);
    }

    /// Merges another sketch of the same `p` into this one.
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "cannot merge different precisions");
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Estimates the cardinality.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;

        if raw <= 2.5 * m {
            // Small-range correction: linear counting over empty registers.
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        let two64 = 2f64.powi(64);
        if raw > two64 / 30.0 {
            // Large-range correction.
            return -two64 * (1.0 - raw / two64).ln();
        }
        raw
    }

    /// The analytic relative standard error: `1.04 / sqrt(m)`.
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relative_error(estimate: f64, truth: f64) -> f64 {
        (estimate - truth).abs() / truth
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let h = HyperLogLog::standard();
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        let mut h = HyperLogLog::standard();
        for i in 0..100u64 {
            h.add_u64(i);
        }
        let e = h.estimate();
        assert!(relative_error(e, 100.0) < 0.05, "estimate = {e}");
    }

    #[test]
    fn duplicates_do_not_inflate_the_estimate() {
        let mut h = HyperLogLog::standard();
        for _ in 0..50 {
            for i in 0..1000u64 {
                h.add_u64(i);
            }
        }
        let e = h.estimate();
        assert!(relative_error(e, 1000.0) < 0.05, "estimate = {e}");
    }

    #[test]
    fn large_cardinality_within_error_bounds() {
        let mut h = HyperLogLog::standard();
        let n = 1_000_000u64;
        for i in 0..n {
            h.add_u64(i);
        }
        let e = h.estimate();
        // Allow 4 standard errors (p = 14 → ~0.8 %, so 3.3 %).
        let bound = 4.0 * h.standard_error();
        assert!(
            relative_error(e, n as f64) < bound,
            "estimate = {e}, bound = {bound}"
        );
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        let mut ab = HyperLogLog::new(12);
        for i in 0..10_000u64 {
            a.add_u64(i);
            ab.add_u64(i);
        }
        for i in 5_000..15_000u64 {
            b.add_u64(i);
            ab.add_u64(i);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), ab.estimate(), "merge must equal union");
    }

    #[test]
    fn lower_precision_has_larger_error() {
        assert!(HyperLogLog::new(8).standard_error() > HyperLogLog::new(14).standard_error());
    }

    #[test]
    fn state_bits_match_register_count() {
        let h = HyperLogLog::standard();
        assert_eq!(h.num_registers(), 16_384);
        assert_eq!(h.state_bits(), 16_384 * 6);
    }

    #[test]
    #[should_panic(expected = "4..=18")]
    fn invalid_precision_panics() {
        let _ = HyperLogLog::new(3);
    }

    #[test]
    #[should_panic(expected = "precisions")]
    fn merging_mixed_precisions_panics() {
        let mut a = HyperLogLog::new(10);
        let b = HyperLogLog::new(12);
        a.merge(&b);
    }
}
