//! A NIC's posted DMA writes, waiting in issue order for PCIe to land
//! them.
//!
//! At 100 G a kernel flushes 128 B bursts faster than PCIe lands them
//! (the paper's §7: PCIe "can no longer keep up"), so a NIC can hold
//! tens of thousands of writes between issue and landing. Each one used
//! to wait as its own event with its own buffer; that backlog, not the
//! frames in flight, set the shuffle's peak heap. Here a NIC's writes
//! wait in one FIFO instead, and only the head write has an event
//! pending (DESIGN.md §12), so the event queue holds one `DmaWriteDone`
//! per NIC, not one per write.
//!
//! A short write's bytes are copied into fixed-size chunks, back to
//! back, and its buffer is dropped at once: a kernel's burst is an
//! allocation of its own, which would otherwise stay live until the
//! write lands. A long write keeps the buffer it came in (a slice of a
//! received frame, most often): its bytes exist there anyway, the
//! handle costs little beside them, and a copy of every payload byte
//! would cost the MTU-sized writes of a WRITE stream their time.

use std::collections::VecDeque;

use bytes::Bytes;

use strom_sim::time::Time;

/// Bytes per storage chunk. Small enough that a NIC with next to
/// nothing waiting holds little (one chunk, one spare), large enough
/// that a chunk carries many bursts.
const CHUNK: usize = 4096;

/// The longest write whose bytes are copied into the chunks; a longer
/// one keeps its own buffer. Above it, the buffer's handle and headers
/// are a small share of the write, and the copy is not. Each benchmark
/// workload's writes fall wholly on one side: `kv_serve`'s (≈ 40 B),
/// the shuffles' and the chains' (128 B bursts) are packed, the
/// incasts' frame payloads (≈ 1.4 KB on average) are held.
const PACK_MAX: usize = 512;

/// One write waiting to land: the key its event fires at, and where its
/// bytes go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Posted {
    /// Landing time.
    pub(crate) at: Time,
    /// Event sequence number, reserved when the write was issued.
    pub(crate) seq: u64,
    /// Destination virtual address.
    pub(crate) vaddr: u64,
    /// Bytes written.
    pub(crate) len: u32,
    /// Whether the bytes wait in their own buffer, not in the chunks.
    held: bool,
}

/// A FIFO of posted writes.
#[derive(Debug, Default)]
pub(crate) struct PostedWrites {
    writes: VecDeque<Posted>,
    /// The short waiting writes' bytes in issue order, back to back.
    /// Every chunk but the last is full.
    chunks: VecDeque<Vec<u8>>,
    /// Offset of the next packed byte to land in the front chunk.
    head: usize,
    /// One emptied chunk kept for the next to fill, so a queue that
    /// drains and refills allocates nothing.
    spare: Option<Vec<u8>>,
    /// The long waiting writes' buffers, in issue order.
    held: VecDeque<Bytes>,
}

impl PostedWrites {
    /// Queues the write of `data` to `vaddr`, landing at `at` with event
    /// seq `seq`; returns whether it is the new head, i.e. whether the
    /// queue was empty.
    ///
    /// Writes land in issue order: a NIC's writes share one PCIe
    /// serializer and one posted-write latency, so their landing times
    /// never decrease.
    pub(crate) fn push(&mut self, at: Time, seq: u64, vaddr: u64, data: &Bytes) -> bool {
        debug_assert!(
            self.writes.back().is_none_or(|b| b.at <= at),
            "posted writes land in issue order"
        );
        let held = data.len() > PACK_MAX;
        if held {
            self.held.push_back(data.clone());
        } else {
            self.pack(data);
        }
        let len = data.len() as u32;
        self.writes.push_back(Posted {
            at,
            seq,
            vaddr,
            len,
            held,
        });
        self.writes.len() == 1
    }

    /// Appends `data` to the chunks.
    fn pack(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.chunks.back().is_none_or(|c| c.len() == CHUNK) {
                let chunk = (self.spare.take()).unwrap_or_else(|| Vec::with_capacity(CHUNK));
                self.chunks.push_back(chunk);
            }
            let back = self.chunks.back_mut().expect("a chunk with room");
            let n = (CHUNK - back.len()).min(data.len());
            back.extend_from_slice(&data[..n]);
            data = &data[n..];
        }
    }

    /// The head write: the next to land.
    pub(crate) fn head(&self) -> Option<&Posted> {
        self.writes.front()
    }

    /// Removes the head write and hands its bytes to `sink` in order: a
    /// held buffer whole, packed bytes in one piece per chunk they span.
    pub(crate) fn pop(&mut self, mut sink: impl FnMut(&[u8])) -> Option<Posted> {
        let w = self.writes.pop_front()?;
        if w.held {
            sink(
                &self
                    .held
                    .pop_front()
                    .expect("a held write keeps its buffer"),
            );
        } else {
            self.unpack(w.len as usize, &mut sink);
        }
        if self.writes.is_empty() {
            // Nothing waits: every packed byte has landed.
            if let Some(last) = self.chunks.pop_front() {
                self.recycle(last);
            }
            debug_assert!(self.chunks.is_empty() && self.held.is_empty());
        }
        Some(w)
    }

    /// Hands the next `left` packed bytes to `sink`.
    fn unpack(&mut self, mut left: usize, sink: &mut impl FnMut(&[u8])) {
        while left > 0 {
            let front = (self.chunks.front()).expect("a waiting write's bytes are stored");
            let n = (front.len() - self.head).min(left);
            sink(&front[self.head..self.head + n]);
            self.head += n;
            left -= n;
            if self.head == CHUNK {
                let used = self.chunks.pop_front().expect("the front chunk");
                self.recycle(used);
            }
        }
    }

    /// Keeps an emptied chunk as the spare, unless there is one.
    fn recycle(&mut self, mut chunk: Vec<u8>) {
        self.head = 0;
        if self.spare.is_none() {
            chunk.clear();
            self.spare = Some(chunk);
        }
    }
}

#[cfg(test)]
impl PostedWrites {
    /// Writes waiting.
    pub(crate) fn len(&self) -> usize {
        self.writes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops the head, gathering its pieces.
    fn pop(q: &mut PostedWrites) -> Option<(Posted, Vec<u8>, usize)> {
        let (mut bytes, mut pieces) = (Vec::new(), 0);
        let w = q.pop(|piece| {
            bytes.extend_from_slice(piece);
            pieces += 1;
        })?;
        Some((w, bytes, pieces))
    }

    /// Writes of every size — empty, bursts, the longest packed one,
    /// ones that straddle a chunk boundary, held ones longer than a
    /// chunk — come back in order with their own keys and bytes,
    /// whatever interleaving of pushes and pops.
    #[test]
    fn writes_come_back_in_order_with_their_bytes() {
        let sizes = [
            0,
            128,
            PACK_MAX,
            200,
            CHUNK,
            1,
            3 * CHUNK + 5,
            128,
            0,
            64,
            500,
            400,
        ];
        let data: Vec<Bytes> = (sizes.iter().enumerate())
            .map(|(i, &n)| (0..n).map(|b| (b * 7 + i) as u8).collect::<Vec<_>>().into())
            .collect();
        for pops_every in 1..=sizes.len() {
            let mut q = PostedWrites::default();
            let mut popped = 0;
            let mut check = |q: &mut PostedWrites| {
                while let Some((w, got, _)) = pop(q) {
                    let i = popped as u64;
                    assert_eq!((w.at, w.seq, w.vaddr), (i, i + 100, i * 0x1000));
                    assert_eq!(
                        (w.len as usize, &got[..]),
                        (sizes[popped], &data[popped][..])
                    );
                    popped += 1;
                }
            };
            for (i, bytes) in data.iter().enumerate() {
                let i = i as u64;
                let was_empty = q.writes.is_empty();
                assert_eq!(q.push(i, i + 100, i * 0x1000, bytes), was_empty);
                if (i as usize + 1).is_multiple_of(pops_every) {
                    check(&mut q);
                }
            }
            check(&mut q);
            assert_eq!(popped, sizes.len());
            assert!(q.chunks.is_empty() && q.held.is_empty());
        }
    }

    /// A packed write that fits a chunk comes back in one piece, one
    /// that straddles a boundary in two, a held one whole, from its own
    /// buffer; a drained queue keeps one spare chunk and nothing else,
    /// so refilling it allocates nothing.
    #[test]
    fn pieces_follow_the_storage_and_a_drained_queue_keeps_one_spare() {
        let mut q = PostedWrites::default();
        let frame = Bytes::from(vec![9; 2 * CHUNK]);
        // Ten writes fill 4 000 B of the first chunk; the next straddles.
        for i in 0..10 {
            q.push(i, i, 0, &Bytes::from(vec![1; 400]));
        }
        q.push(10, 10, 0, &Bytes::from(vec![2; 300]));
        q.push(11, 11, 0, &frame);
        assert_eq!((q.chunks.len(), q.held.len()), (2, 1));
        for _ in 0..10 {
            assert_eq!(pop(&mut q).map(|(_, _, pieces)| pieces), Some(1));
        }
        assert_eq!(
            pop(&mut q).map(|(_, b, pieces)| (b, pieces)),
            Some((vec![2; 300], 2))
        );
        let mut at = None;
        assert!(q.pop(|piece| at = Some(piece.as_ptr())).is_some());
        assert_eq!(
            at,
            Some(frame.as_ptr()),
            "a held write lands from its own buffer"
        );
        assert!(pop(&mut q).is_none());
        assert!(q.chunks.is_empty() && q.held.is_empty());
        let spare = q
            .spare
            .as_ref()
            .map(|c| (c.len(), c.capacity(), c.as_ptr()));
        assert_eq!(spare.map(|(len, cap, _)| (len, cap)), Some((0, CHUNK)));
        q.push(12, 12, 0, &Bytes::from(vec![3; 10]));
        assert!(q.spare.is_none(), "the spare chunk was refilled");
        assert_eq!(q.chunks.front().map(|c| c.as_ptr()), spare.map(|s| s.2));
    }
}
