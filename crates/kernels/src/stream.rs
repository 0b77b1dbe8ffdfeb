//! The one tuple stream under the stream kernels.
//!
//! Every tuple kernel reads its RoCE payload the same way (§1, §3.4): as a
//! stream of 8 B little-endian words at line rate, whatever the packet
//! boundaries. [`TupleStream`] is that front end — it carries the partial
//! tuple a packet ends on into the next one and hands whole tuples out in
//! blocks of at most 64. [`ResultRegion`] is the matching back end for the
//! kernels that append tuples to host memory: a cursor into a bounded
//! region, written in 128 B bursts like the shuffle's on-chip partition
//! buffers (§6.4).
//!
//! Neither changes what a kernel emits when packets split differently:
//! blocks only group tuples, and every kernel either folds them in an
//! order-free way (aggregate, HLL) or stages them in stream order
//! (filter, shuffle).

use bytes::Bytes;

use crate::framework::KernelAction;
use crate::radix::PARTITION_BUFFER_VALUES;

/// Tuples per block handed out (one mask word of [`crate::simd::mask_cmp`]).
const BLOCK: usize = 64;

/// Bytes a [`ResultRegion`] stages before it writes them out.
const STAGE_BYTES: usize = PARTITION_BUFFER_VALUES * 8;

/// Reassembles 8 B tuples across packet boundaries.
#[derive(Debug, Default)]
pub(crate) struct TupleStream {
    /// The leading bytes of a tuple the last packet cut short.
    carry: [u8; 8],
    /// How many bytes of `carry` are held (0 ..= 7 between packets).
    carried: usize,
}

impl TupleStream {
    /// Hands the whole tuples of `data` to `f` in stream order, at most
    /// [`BLOCK`] per call — a tuple completed from the carry first, on its
    /// own — and keeps the trailing partial tuple for the next packet.
    pub(crate) fn feed(&mut self, mut data: &[u8], mut f: impl FnMut(&[u64])) {
        if self.carried > 0 {
            let take = (8 - self.carried).min(data.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&data[..take]);
            self.carried += take;
            data = &data[take..];
            if self.carried < 8 {
                return;
            }
            self.carried = 0;
            f(&[u64::from_le_bytes(self.carry)]);
        }
        let whole = data.len() / 8 * 8;
        let mut block = [0u64; BLOCK];
        for run in data[..whole].chunks(BLOCK * 8) {
            let n = run.len() / 8;
            for (slot, chunk) in block[..n].iter_mut().zip(run.chunks_exact(8)) {
                *slot = u64::from_le_bytes(chunk.try_into().expect("sized"));
            }
            f(&block[..n]);
        }
        let rest = &data[whole..];
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }
}

/// A bounded host-memory region tuples are appended to, staged on chip
/// and written out in [`STAGE_BYTES`] bursts. The default region is empty
/// and full: every push is dropped.
#[derive(Debug)]
pub(crate) struct ResultRegion {
    /// Host address the next burst goes to.
    cursor: u64,
    /// Bytes of the region not yet written out.
    remaining: u32,
    stage: [u8; STAGE_BYTES],
    /// Bytes held in `stage`.
    staged: usize,
}

impl Default for ResultRegion {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

impl ResultRegion {
    /// An empty region of `capacity` bytes at `base`, cut short where it
    /// would run past the top of the address space.
    pub(crate) fn new(base: u64, capacity: u32) -> Self {
        let room = u32::try_from(u64::MAX - base).unwrap_or(u32::MAX);
        Self {
            cursor: base,
            remaining: capacity.min(room),
            stage: [0; STAGE_BYTES],
            staged: 0,
        }
    }

    /// Stages `tuple`, writing the stage out once it is full. Returns
    /// `false`, staging nothing, when the tuple would overrun the region.
    pub(crate) fn push(&mut self, tuple: u64, out: &mut Vec<KernelAction>) -> bool {
        if (self.staged + 8) as u32 > self.remaining {
            return false;
        }
        self.stage[self.staged..self.staged + 8].copy_from_slice(&tuple.to_le_bytes());
        self.staged += 8;
        if self.staged == STAGE_BYTES {
            self.flush(out);
        }
        true
    }

    /// Stages the tuples of `block` that `mask` selects (bit i for tuple
    /// i), in order; returns how many fit, the rest being dropped.
    pub(crate) fn push_selected(
        &mut self,
        block: &[u64],
        mut mask: u64,
        out: &mut Vec<KernelAction>,
    ) -> u64 {
        let mut kept = 0;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            kept += u64::from(self.push(block[i], out));
        }
        kept
    }

    /// Writes out whatever is staged as one `DmaWrite`.
    pub(crate) fn flush(&mut self, out: &mut Vec<KernelAction>) {
        if self.staged == 0 {
            return;
        }
        out.push(KernelAction::DmaWrite {
            vaddr: self.cursor,
            data: Bytes::copy_from_slice(&self.stage[..self.staged]),
        });
        self.cursor += self.staged as u64;
        self.remaining -= self.staged as u32;
        self.staged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tuples `feed` hands out, as blocks.
    fn blocks(stream: &mut TupleStream, data: &[u8]) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        stream.feed(data, |block| out.push(block.to_vec()));
        out
    }

    #[test]
    fn a_carry_at_every_offset_completes_in_the_next_packet() {
        let bytes: Vec<u8> = [1u64, 2, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        for cut in 1..=7 {
            let mut s = TupleStream::default();
            assert!(blocks(&mut s, &bytes[..cut]).is_empty(), "cut = {cut}");
            assert_eq!(blocks(&mut s, &bytes[cut..]), [vec![1], vec![2, 3]]);
            assert_eq!(s.carried, 0);
        }
        // A carry fed one byte at a time, then one ending mid-tuple again.
        let mut s = TupleStream::default();
        for b in &bytes[..7] {
            assert!(blocks(&mut s, std::slice::from_ref(b)).is_empty());
        }
        assert_eq!(blocks(&mut s, &bytes[7..20]), [vec![1], vec![2]]);
        assert_eq!(blocks(&mut s, &bytes[20..]), [vec![3]]);
    }

    #[test]
    fn blocks_hold_at_most_64_tuples() {
        let bytes: Vec<u8> = (0..130u64).flat_map(|v| v.to_le_bytes()).collect();
        let lens: Vec<usize> = blocks(&mut TupleStream::default(), &bytes)
            .iter()
            .map(Vec::len)
            .collect();
        assert_eq!(lens, [64, 64, 2]);
    }

    fn written(out: &[KernelAction]) -> Vec<(u64, usize)> {
        out.iter()
            .map(|a| match a {
                KernelAction::DmaWrite { vaddr, data } => (*vaddr, data.len()),
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn the_region_fills_exactly_to_capacity() {
        let mut out = Vec::new();
        let mut r = ResultRegion::new(0x1000, 20 * 8);
        assert!((0..20).all(|t| r.push(t, &mut out)));
        assert!(!r.push(20, &mut out), "the 21st tuple overruns");
        r.flush(&mut out);
        assert_eq!(written(&out), [(0x1000, 128), (0x1080, 32)]);
        assert!(!r.push(21, &mut out), "a full region stays full");
        // A capacity that is not a whole number of tuples keeps the rest.
        let mut r = ResultRegion::new(0, 15);
        assert_eq!(r.push_selected(&[1, 2, 3], 0b101, &mut out), 1);
    }
}
