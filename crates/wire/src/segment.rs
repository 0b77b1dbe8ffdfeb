//! MTU segmentation of RDMA messages into First/Middle/Last/Only packets.
//!
//! A WRITE whose payload exceeds one MTU is split into a First packet
//! (carrying the RETH with the target address), Middle packets, and a Last
//! packet; the responder's MSN Table tracks the running DMA address because
//! "for write operations with payload spanning multiple packets the address
//! is only part of the first packet" (§4.1). The same segmentation applies
//! to StRoM RPC WRITE messages with the Table 1 op-codes, and to READ
//! responses.

use crate::opcode::Opcode;

/// The position of a segment within its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// The only packet of a single-packet message.
    Only,
    /// The first packet of a multi-packet message.
    First,
    /// An interior packet.
    Middle,
    /// The final packet of a multi-packet message.
    Last,
}

impl SegmentKind {
    /// Maps a message position onto the WRITE op-code family.
    pub fn write_opcode(self) -> Opcode {
        match self {
            SegmentKind::Only => Opcode::WriteOnly,
            SegmentKind::First => Opcode::WriteFirst,
            SegmentKind::Middle => Opcode::WriteMiddle,
            SegmentKind::Last => Opcode::WriteLast,
        }
    }

    /// Maps a message position onto the StRoM RPC WRITE op-code family
    /// (Table 1).
    pub fn rpc_write_opcode(self) -> Opcode {
        match self {
            SegmentKind::Only => Opcode::RpcWriteOnly,
            SegmentKind::First => Opcode::RpcWriteFirst,
            SegmentKind::Middle => Opcode::RpcWriteMiddle,
            SegmentKind::Last => Opcode::RpcWriteLast,
        }
    }

    /// Maps a message position onto the READ response op-code family.
    pub fn read_response_opcode(self) -> Opcode {
        match self {
            SegmentKind::Only => Opcode::ReadResponseOnly,
            SegmentKind::First => Opcode::ReadResponseFirst,
            SegmentKind::Middle => Opcode::ReadResponseMiddle,
            SegmentKind::Last => Opcode::ReadResponseLast,
        }
    }
}

/// One segment of a message: its position, payload byte range, and the
/// offset of that range within the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Position within the message.
    pub kind: SegmentKind,
    /// Byte offset of this segment's payload within the message.
    pub offset: usize,
    /// Payload length of this segment.
    pub len: usize,
}

/// Splits a message of `total_len` payload bytes into segments of at most
/// `max_payload` bytes.
///
/// A zero-length message still produces one `Only` segment (e.g. a
/// zero-byte write used for doorbells). Segmentation is arithmetic: the
/// returned iterator computes each segment on demand, and
/// [`Segments::nth`] jumps straight to packet `n`.
///
/// # Examples
///
/// ```
/// use strom_wire::segment::{segment_message, SegmentKind};
/// let segs = segment_message(3000, 1440);
/// assert_eq!(segs.len(), 3);
/// let segs: Vec<_> = segs.collect();
/// assert_eq!(segs[0].kind, SegmentKind::First);
/// assert_eq!(segs[2].kind, SegmentKind::Last);
/// assert_eq!(segs[2].len, 3000 - 2 * 1440);
/// ```
///
/// # Panics
///
/// Panics if `max_payload` is zero while `total_len` is not — such a
/// message could never be transmitted.
pub fn segment_message(total_len: usize, max_payload: usize) -> Segments {
    assert!(
        total_len == 0 || max_payload > 0,
        "cannot segment with a zero MTU budget"
    );
    let count = if total_len == 0 {
        1
    } else {
        total_len.div_ceil(max_payload)
    };
    Segments {
        total_len,
        max_payload,
        next: 0..count,
    }
}

/// The segments of one message, in order (see [`segment_message`]).
#[derive(Debug, Clone)]
pub struct Segments {
    total_len: usize,
    max_payload: usize,
    /// Indices of the segments not yet yielded.
    next: std::ops::Range<usize>,
}

impl Segments {
    /// Segment `i` of the message, counted from its first packet.
    fn at(&self, i: usize) -> Segment {
        let count = self.next.end;
        let kind = match i {
            _ if count == 1 => SegmentKind::Only,
            0 => SegmentKind::First,
            i if i + 1 == count => SegmentKind::Last,
            _ => SegmentKind::Middle,
        };
        let offset = i * self.max_payload;
        Segment {
            kind,
            offset,
            len: self.max_payload.min(self.total_len - offset),
        }
    }
}

impl Iterator for Segments {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        self.next.next().map(|i| self.at(i))
    }

    fn nth(&mut self, n: usize) -> Option<Segment> {
        self.next.nth(n).map(|i| self.at(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for Segments {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_packet_message() {
        let segs: Vec<_> = segment_message(100, 1440).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].kind, SegmentKind::Only);
        assert_eq!(segs[0].len, 100);
    }

    #[test]
    fn exact_multiple_has_no_partial_tail() {
        let segs: Vec<_> = segment_message(2880, 1440).collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].kind, SegmentKind::First);
        assert_eq!(segs[1].kind, SegmentKind::Last);
        assert_eq!(segs[1].len, 1440);
    }

    #[test]
    fn three_packet_message_has_middle() {
        let segs: Vec<_> = segment_message(3000, 1440).collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![SegmentKind::First, SegmentKind::Middle, SegmentKind::Last]
        );
        assert_eq!(segs[2].len, 3000 - 2 * 1440);
    }

    #[test]
    fn segments_tile_the_message() {
        for total in [1usize, 1439, 1440, 1441, 10_000, 1 << 20] {
            let segs = segment_message(total, 1440);
            let mut expect_offset = 0;
            for s in segs {
                assert_eq!(s.offset, expect_offset);
                assert!(s.len <= 1440);
                assert!(s.len > 0);
                expect_offset += s.len;
            }
            assert_eq!(expect_offset, total, "total = {total}");
        }
    }

    #[test]
    fn zero_length_message_is_an_only_packet() {
        let segs: Vec<_> = segment_message(0, 1440).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].kind, SegmentKind::Only);
        assert_eq!(segs[0].len, 0);
    }

    #[test]
    fn nth_jumps_to_the_same_segment_the_walk_reaches() {
        for total in [0usize, 1, 1440, 1441, 2880, 10_000] {
            let walked: Vec<_> = segment_message(total, 1440).collect();
            assert_eq!(segment_message(total, 1440).len(), walked.len());
            for (i, seg) in walked.iter().enumerate() {
                assert_eq!(segment_message(total, 1440).nth(i), Some(*seg));
            }
            assert_eq!(segment_message(total, 1440).nth(walked.len()), None);
        }
    }

    #[test]
    fn opcode_families() {
        assert_eq!(SegmentKind::Only.write_opcode(), Opcode::WriteOnly);
        assert_eq!(SegmentKind::First.rpc_write_opcode(), Opcode::RpcWriteFirst);
        assert_eq!(
            SegmentKind::Middle.read_response_opcode(),
            Opcode::ReadResponseMiddle
        );
        assert_eq!(SegmentKind::Last.rpc_write_opcode(), Opcode::RpcWriteLast);
    }

    #[test]
    #[should_panic(expected = "zero MTU")]
    fn zero_budget_panics() {
        let _ = segment_message(10, 0);
    }
}
