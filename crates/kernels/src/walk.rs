//! One pointer chase under the random-access kernels.
//!
//! GET, PUT's chain walk and traversal do the same thing per entry
//! (§6.2): read the 64 B entry, compare the lookup key against the masked
//! key positions, then stop on a hit or follow the next pointer. [`Walk`]
//! owns that loop: the entry read, the match (a zero key is an empty
//! bucket and never matches), the next-pointer step, and the read cap that
//! guards against cycles. [`Lookup`] adds the value read GET and traversal
//! issue on a hit, and [`reply`] is the one `RoceSend`-then-`Done` answer
//! of every random-access kernel.

use bytes::Bytes;

use strom_wire::bth::Qpn;

use crate::framework::{error_word, KernelAction, ERR_BAD_PARAMS, ERR_NOT_FOUND};
use crate::layouts::ELEMENT_SIZE;
use crate::traversal::Predicate;

/// DMA tag of an entry read.
pub(crate) const TAG_ENTRY: u32 = 1;
/// DMA tag of the value read that follows a hit.
const TAG_VALUE: u32 = 2;

/// How a walk stopped.
pub(crate) enum Stop {
    /// The key at this byte offset of the entry matched.
    Hit(usize),
    /// The entry has no next pointer, or the read cap was reached.
    End,
    /// A key or next-pointer position runs past the entry.
    BadParams,
}

/// One chain walk: what to match, where to go next, and how far.
#[derive(Debug)]
pub(crate) struct Walk {
    key: u64,
    /// Bit `i` set: an 8 B key starts at byte `4 * i`.
    key_mask: u16,
    predicate: Predicate,
    /// Position (4 B units) of the next pointer, if entries have one.
    next_pos: Option<u8>,
    /// Most entry reads one walk may issue: the cycle guard.
    cap: u32,
    /// The entry the outstanding read targets.
    pub entry: u64,
    /// Entry reads issued so far.
    reads: u32,
}

impl Walk {
    /// Starts a walk at `entry`, issuing its first read.
    pub fn start(
        entry: u64,
        key: u64,
        key_mask: u16,
        predicate: Predicate,
        next_pos: Option<u8>,
        cap: u32,
        out: &mut Vec<KernelAction>,
    ) -> Walk {
        read_entry(out, entry);
        Walk {
            key,
            key_mask,
            predicate,
            next_pos,
            cap,
            entry,
            reads: 1,
        }
    }

    /// Matches the entry just read. Follows its next pointer (issuing the
    /// read, `None`) or stops.
    pub fn step(&mut self, entry: &[u8], out: &mut Vec<KernelAction>) -> Option<Stop> {
        let mut mask = self.key_mask;
        while mask != 0 {
            let off = mask.trailing_zeros() as usize * 4;
            mask &= mask - 1;
            let Some(key) = word(entry, off) else {
                return Some(Stop::BadParams);
            };
            if key != 0 && self.predicate.matches(key, self.key) {
                return Some(Stop::Hit(off));
            }
        }
        let Some(pos) = self.next_pos else {
            return Some(Stop::End);
        };
        let Some(next) = word(entry, usize::from(pos) * 4) else {
            return Some(Stop::BadParams);
        };
        if next == 0 || self.reads >= self.cap {
            return Some(Stop::End);
        }
        (self.entry, self.reads) = (next, self.reads + 1);
        read_entry(out, next);
        None
    }
}

/// Issues the read of the 64 B entry at `vaddr`.
fn read_entry(out: &mut Vec<KernelAction>, vaddr: u64) {
    let (tag, len) = (TAG_ENTRY, ELEMENT_SIZE as u32);
    out.push(KernelAction::DmaRead { tag, vaddr, len });
}

/// The key mask of a layout's bucket key positions.
pub(crate) const fn key_mask(positions: &[u8]) -> u16 {
    let (mut mask, mut i) = (0, 0);
    while i < positions.len() {
        mask |= 1 << positions[i];
        i += 1;
    }
    mask
}

/// The little-endian `u64` at byte `off` of `entry`, if it fits.
pub(crate) fn word(entry: &[u8], off: usize) -> Option<u64> {
    let bytes = entry.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("sized")))
}

/// Answers an invocation: `data` at `remote_vaddr`, then `Done`.
pub(crate) fn reply(out: &mut Vec<KernelAction>, qpn: Qpn, remote_vaddr: u64, data: Bytes) {
    out.extend([
        KernelAction::RoceSend {
            qpn,
            remote_vaddr,
            data,
        },
        KernelAction::Done,
    ]);
}

/// Answers an invocation with the in-band error word for `code`.
pub(crate) fn reply_error(out: &mut Vec<KernelAction>, qpn: Qpn, remote_vaddr: u64, code: u16) {
    let word = Bytes::copy_from_slice(&error_word(code));
    reply(out, qpn, remote_vaddr, word);
}

/// GET's and traversal's state: a walk, then the hit's value read.
#[derive(Debug, Default)]
pub(crate) enum Lookup<P> {
    #[default]
    Idle,
    /// An entry read is outstanding: the invocation's QP, the address the
    /// answer goes to, the kernel's params and the walk.
    Walking(Qpn, u64, P, Walk),
    /// The value read is outstanding: the QP, the answer's address and a
    /// header. The value lands at the address or, with a header, 8 B past
    /// it first and the header at it last, so a requester watching the
    /// header sees a whole response.
    Value(Qpn, u64, Option<u64>),
}

impl<P> Lookup<P> {
    /// Feeds a DMA completion: steps the walk, answers a miss or bad
    /// params, or sends the value. `hit` maps the key offset a walk hit to
    /// its value read (address, length, header) or to an error code.
    /// Returns the entry reads of a walk that ends in a value read or at
    /// the end of its chain; drops a completion nothing waits for.
    pub fn on_data(
        &mut self,
        tag: u32,
        data: Bytes,
        out: &mut Vec<KernelAction>,
        hit: impl FnOnce(&P, &[u8], usize) -> Result<(u64, u32, Option<u64>), u16>,
    ) -> Option<u32> {
        match std::mem::take(self) {
            Lookup::Walking(qpn, target, params, mut walk) if tag == TAG_ENTRY => {
                let (code, hops) = match walk.step(&data, out) {
                    None => {
                        *self = Lookup::Walking(qpn, target, params, walk);
                        return None;
                    }
                    Some(Stop::Hit(off)) => match hit(&params, &data, off) {
                        Ok((vaddr, len, header)) => {
                            *self = Lookup::Value(qpn, target, header);
                            let tag = TAG_VALUE;
                            out.push(KernelAction::DmaRead { tag, vaddr, len });
                            return Some(walk.reads);
                        }
                        Err(code) => (code, None),
                    },
                    Some(Stop::End) => (ERR_NOT_FOUND, Some(walk.reads)),
                    Some(Stop::BadParams) => (ERR_BAD_PARAMS, None),
                };
                reply_error(out, qpn, target, code);
                return hops;
            }
            Lookup::Value(qpn, target, header) if tag == TAG_VALUE => match header {
                Some(h) => {
                    let remote_vaddr = target + 8;
                    out.push(KernelAction::RoceSend {
                        qpn,
                        remote_vaddr,
                        data,
                    });
                    reply(out, qpn, target, Bytes::copy_from_slice(&h.to_le_bytes()));
                }
                None => reply(out, qpn, target, data),
            },
            other => *self = other,
        }
        None
    }
}
