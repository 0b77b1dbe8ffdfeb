//! The radix hash of the shuffle kernel.
//!
//! §6.4: "The kernel treats the payload as 8 B values and partitions them
//! using a radix hash function that simply takes the N least significant
//! bits of the value as its hash value." The same function is used by the
//! CPU baseline (Barthels et al. \[6\]) — "the use of an inexpensive hash
//! function benefits the CPU", as the paper notes.

/// Maximum number of partitions the shuffle kernel buffers on chip (§6.4).
pub const MAX_PARTITIONS: usize = 1024;

/// Values buffered per partition before flushing (16 × 8 B = 128 B, §6.4).
pub const PARTITION_BUFFER_VALUES: usize = 16;

/// Radix partition: the `bits` least significant bits of the value.
///
/// # Examples
///
/// ```
/// use strom_kernels::radix::{radix_bits, radix_partition};
/// let bits = radix_bits(256);
/// assert_eq!(bits, 8);
/// assert_eq!(radix_partition(0x1234, bits), 0x34);
/// ```
#[inline]
pub fn radix_partition(value: u64, bits: u32) -> usize {
    debug_assert!(bits <= 10, "at most 1024 partitions");
    (value & ((1u64 << bits) - 1)) as usize
}

/// Partition ids for a block of values — the shuffle kernel computes
/// ids for a whole burst before the (serial) buffer appends. A plain
/// [`radix_partition`] loop: the compiler vectorizes the mask-and-narrow
/// itself, and the hand-written four-lane variant measured slower
/// (EXPERIMENTS.md).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn radix_partition_batch(values: &[u64], bits: u32, out: &mut [u32]) {
    assert_eq!(values.len(), out.len(), "in/out length mismatch");
    for (o, &v) in out.iter_mut().zip(values) {
        *o = radix_partition(v, bits) as u32;
    }
}

/// Histogram of partition occupancy: `counts[pid] += 1` for every value
/// (four interleaved sub-histograms measured no faster than this one
/// counter array — EXPERIMENTS.md).
///
/// # Panics
///
/// Panics if `counts` is shorter than `1 << bits`.
pub fn radix_histogram(values: &[u64], bits: u32, counts: &mut [u64]) {
    assert!(
        counts.len() >= (1usize << bits),
        "counts must cover 1 << bits partitions"
    );
    for &v in values {
        counts[radix_partition(v, bits)] += 1;
    }
}

/// Number of radix bits for `num_partitions` (must be a power of two).
///
/// # Panics
///
/// Panics if `num_partitions` is zero, not a power of two, or exceeds
/// [`MAX_PARTITIONS`].
pub fn radix_bits(num_partitions: usize) -> u32 {
    assert!(num_partitions > 0, "need at least one partition");
    assert!(
        num_partitions.is_power_of_two(),
        "partition count must be a power of two"
    );
    assert!(
        num_partitions <= MAX_PARTITIONS,
        "at most {MAX_PARTITIONS} partitions fit on chip"
    );
    num_partitions.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_lsb_mask() {
        assert_eq!(radix_partition(0b1011_0110, 4), 0b0110);
        assert_eq!(radix_partition(0xffff_ffff_ffff_ffff, 10), 1023);
        assert_eq!(radix_partition(42, 0), 0);
    }

    #[test]
    fn bits_for_power_of_two_counts() {
        assert_eq!(radix_bits(1), 0);
        assert_eq!(radix_bits(2), 1);
        assert_eq!(radix_bits(256), 8);
        assert_eq!(radix_bits(1024), 10);
    }

    #[test]
    fn uniform_values_spread_uniformly() {
        let bits = 8;
        let mut counts = [0usize; 256];
        for v in 0..65_536u64 {
            counts[radix_partition(v, bits)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 256));
    }

    #[test]
    fn batch_and_histogram_agree_with_the_per_value_hash() {
        let values: Vec<u64> = (0..1003u64)
            .map(|i| i.wrapping_mul(0x5851_F42D_4C95_7F2D))
            .collect();
        for bits in [0u32, 3, 8, 10] {
            let mut pids = vec![0u32; values.len()];
            radix_partition_batch(&values, bits, &mut pids);
            let mut counts = vec![0u64; 1 << bits];
            radix_histogram(&values, bits, &mut counts);
            assert_eq!(counts.iter().sum::<u64>(), values.len() as u64);
            for (pid, &count) in counts.iter().enumerate() {
                let members = pids.iter().filter(|&&p| p as usize == pid).count();
                assert_eq!(count, members as u64, "bits = {bits}, pid = {pid}");
            }
            assert!(values
                .iter()
                .zip(&pids)
                .all(|(&v, &p)| radix_partition(v, bits) == p as usize));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = radix_bits(100);
    }

    #[test]
    #[should_panic(expected = "on chip")]
    fn too_many_partitions_panics() {
        let _ = radix_bits(2048);
    }
}
