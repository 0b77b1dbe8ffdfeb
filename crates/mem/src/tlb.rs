//! The on-NIC Translation Lookaside Buffer.
//!
//! §4.2: "Each entry in the TLB stores one 48 bit physical address
//! corresponding to a 2 MB huge page … can hold up to 16,384 entries. This
//! allows the FPGA to directly address up to 32 GB of host memory … The
//! TLB module is populated once and does not support page misses … the TLB
//! has to check if a read or write operation is crossing a 2 MB page
//! boundary. If this is the case the TLB resolves those accesses by
//! splitting the command into multiple commands, none of them crossing
//! page boundaries."

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use strom_telemetry::{TraceEvent, TraceSink};

use crate::host::HUGE_PAGE_SIZE;

/// Maximum number of TLB entries (16,384 × 2 MB = 32 GB).
pub const TLB_CAPACITY: usize = 16_384;

/// Mask for the 48-bit physical addresses the TLB stores.
const PHYS_MASK: u64 = (1 << 48) - 1;

/// One physical segment of a translated command; never crosses a page
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysSegment {
    /// Physical start address.
    pub paddr: u64,
    /// Segment length in bytes.
    pub len: u32,
}

/// Translation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbError {
    /// The virtual page has no TLB entry. The TLB "does not support page
    /// misses" — this is a host programming error.
    Miss {
        /// The faulting virtual address.
        vaddr: u64,
    },
    /// The TLB is full (more than [`TLB_CAPACITY`] entries).
    Full,
}

impl std::fmt::Display for TlbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlbError::Miss { vaddr } => write!(f, "TLB miss at {vaddr:#x} (page not pinned)"),
            TlbError::Full => write!(f, "TLB capacity ({TLB_CAPACITY} entries) exceeded"),
        }
    }
}

impl std::error::Error for TlbError {}

/// Hashes a virtual page number with one multiply (Fibonacci hashing).
/// Page numbers are small consecutive integers the driver hands out, not
/// adversarial keys, so SipHash's flooding resistance buys nothing here,
/// and nothing iterates the table, so no hash order can leak.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The TLB: virtual page number → 48-bit physical page address.
///
/// # Examples
///
/// ```
/// use strom_mem::{HostMemory, Tlb, HUGE_PAGE_SIZE};
/// let mut mem = HostMemory::new();
/// let (vaddr, pages) = mem.pin(2 * HUGE_PAGE_SIZE).unwrap();
/// let mut tlb = Tlb::new();
/// tlb.insert_region(vaddr, &pages).unwrap();
/// // A command crossing the 2 MB boundary is split into two segments.
/// let segs = tlb.translate_command(vaddr + HUGE_PAGE_SIZE - 64, 128).unwrap();
/// assert_eq!(segs.len(), 2);
/// assert_eq!(segs.map(|s| s.len).sum::<u32>(), 128);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tlb {
    entries: HashMap<u64, u64, BuildHasherDefault<PageHasher>>,
    trace: TraceSink,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a trace sink; successful command translations are emitted
    /// to it with their segment counts.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs the mapping for the page containing `vaddr` (the driver
    /// populates the TLB once at pin time, §4.3).
    pub fn insert(&mut self, vaddr: u64, paddr: u64) -> Result<(), TlbError> {
        let vpn = vaddr / HUGE_PAGE_SIZE;
        if self.entries.len() >= TLB_CAPACITY && !self.entries.contains_key(&vpn) {
            return Err(TlbError::Full);
        }
        self.entries
            .insert(vpn, paddr & PHYS_MASK & !(HUGE_PAGE_SIZE - 1));
        Ok(())
    }

    /// Installs mappings for a whole pinned region, given the per-page
    /// physical addresses the driver returned.
    pub fn insert_region(&mut self, base_vaddr: u64, phys_pages: &[u64]) -> Result<(), TlbError> {
        for (i, &paddr) in phys_pages.iter().enumerate() {
            self.insert(base_vaddr + i as u64 * HUGE_PAGE_SIZE, paddr)?;
        }
        Ok(())
    }

    /// Translates a single address.
    pub fn translate(&self, vaddr: u64) -> Result<u64, TlbError> {
        let vpn = vaddr / HUGE_PAGE_SIZE;
        let offset = vaddr % HUGE_PAGE_SIZE;
        self.entries
            .get(&vpn)
            .map(|p| p + offset)
            .ok_or(TlbError::Miss { vaddr })
    }

    /// Translates a command of `len` bytes at `vaddr`, splitting it into
    /// physical segments at every 2 MB boundary (§4.2).
    ///
    /// Every page is checked before the first segment is yielded, so a
    /// miss anywhere in the command is reported before anything is
    /// touched; the segments themselves are yielded without collecting
    /// them.
    pub fn translate_command(&self, vaddr: u64, len: u32) -> Result<Segments<'_>, TlbError> {
        let end = vaddr + u64::from(len);
        let mut segments = Segments {
            tlb: self,
            cur: vaddr,
            end,
            paddr: 0,
            left: 0,
        };
        if len == 0 {
            return Ok(segments);
        }
        segments.paddr = self.translate(vaddr)?;
        let (first, last) = (vaddr / HUGE_PAGE_SIZE, (end - 1) / HUGE_PAGE_SIZE);
        for vpn in first + 1..=last {
            if !self.entries.contains_key(&vpn) {
                return Err(TlbError::Miss {
                    vaddr: vpn * HUGE_PAGE_SIZE,
                });
            }
        }
        segments.left = (last - first + 1) as usize;
        self.trace.emit(TraceEvent::TlbLookup {
            vaddr,
            len,
            segments: segments.left as u32,
        });
        Ok(segments)
    }
}

/// The physical segments of one translated command, in virtual order
/// ([`Tlb::translate_command`]).
#[derive(Debug, Clone)]
pub struct Segments<'a> {
    tlb: &'a Tlb,
    /// Virtual address of the next segment.
    cur: u64,
    /// End of the command (exclusive).
    end: u64,
    /// Physical address of the next segment.
    paddr: u64,
    /// Segments not yet yielded.
    left: usize,
}

impl Iterator for Segments<'_> {
    type Item = PhysSegment;

    fn next(&mut self) -> Option<PhysSegment> {
        if self.left == 0 {
            return None;
        }
        let len = (HUGE_PAGE_SIZE - self.cur % HUGE_PAGE_SIZE).min(self.end - self.cur);
        let seg = PhysSegment {
            paddr: self.paddr,
            len: len as u32,
        };
        self.cur += len;
        self.left -= 1;
        if self.left > 0 {
            self.paddr = self
                .tlb
                .translate(self.cur)
                .expect("checked before the first segment");
        }
        Some(seg)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Segments<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostMemory;

    fn tlb_for(pages: u64) -> (Tlb, u64, Vec<u64>) {
        let mut host = HostMemory::new();
        let (base, phys) = host.pin(pages * HUGE_PAGE_SIZE).unwrap();
        let mut tlb = Tlb::new();
        tlb.insert_region(base, &phys).unwrap();
        (tlb, base, phys)
    }

    #[test]
    fn translate_within_page() {
        let (tlb, base, phys) = tlb_for(1);
        assert_eq!(tlb.translate(base + 4096).unwrap(), phys[0] + 4096);
    }

    #[test]
    fn miss_on_unmapped_page() {
        let (tlb, base, _) = tlb_for(1);
        let beyond = base + HUGE_PAGE_SIZE;
        assert_eq!(tlb.translate(beyond), Err(TlbError::Miss { vaddr: beyond }));
    }

    fn segments(tlb: &Tlb, vaddr: u64, len: u32) -> Vec<PhysSegment> {
        tlb.translate_command(vaddr, len).unwrap().collect()
    }

    #[test]
    fn command_within_one_page_is_one_segment() {
        let (tlb, base, phys) = tlb_for(2);
        assert_eq!(
            segments(&tlb, base + 100, 1000),
            vec![PhysSegment {
                paddr: phys[0] + 100,
                len: 1000
            }]
        );
    }

    #[test]
    fn page_crossing_command_is_split() {
        let (tlb, base, phys) = tlb_for(2);
        // 4 KB command starting 1 KB before the boundary.
        let start = base + HUGE_PAGE_SIZE - 1024;
        let segs = segments(&tlb, start, 4096);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].paddr, phys[0] + HUGE_PAGE_SIZE - 1024);
        assert_eq!(segs[0].len, 1024);
        assert_eq!(segs[1].paddr, phys[1]);
        assert_eq!(segs[1].len, 4096 - 1024);
    }

    #[test]
    fn segments_tile_the_command_exactly() {
        let (tlb, base, _) = tlb_for(4);
        // A command spanning three pages.
        let start = base + HUGE_PAGE_SIZE / 2;
        let len = (2 * HUGE_PAGE_SIZE + 12345) as u32;
        let segs = tlb.translate_command(start, len).unwrap();
        assert_eq!(segs.len(), 3, "the count is known before iterating");
        let segs: Vec<_> = segs.collect();
        let total: u64 = segs.iter().map(|s| u64::from(s.len)).sum();
        assert_eq!(total, u64::from(len));
        for s in &segs {
            // No segment crosses a 2 MB physical boundary.
            assert!(s.paddr % HUGE_PAGE_SIZE + u64::from(s.len) <= HUGE_PAGE_SIZE);
        }
    }

    #[test]
    fn zero_length_command_yields_no_segments() {
        let (tlb, base, _) = tlb_for(1);
        assert!(segments(&tlb, base, 0).is_empty());
    }

    #[test]
    fn split_segments_follow_scattered_frames() {
        let (tlb, base, phys) = tlb_for(2);
        let segs = segments(&tlb, base + HUGE_PAGE_SIZE - 8, 16);
        // Scattered allocation: segment 2 is not physically adjacent.
        assert_ne!(segs[1].paddr, segs[0].paddr + 8);
        assert_eq!(segs[1].paddr, phys[1]);
    }

    #[test]
    fn a_miss_past_the_first_page_is_reported_and_not_traced() {
        let (mut tlb, base, _) = tlb_for(1);
        let trace = TraceSink::enabled(16);
        tlb.set_trace(trace.clone());
        let err = tlb
            .translate_command(base + HUGE_PAGE_SIZE - 8, 16)
            .unwrap_err();
        assert_eq!(
            err,
            TlbError::Miss {
                vaddr: base + HUGE_PAGE_SIZE
            }
        );
        assert_eq!(trace.emitted(), 0);
        let hit = tlb.translate_command(base + 8, 16).unwrap();
        assert_eq!(trace.emitted(), 1, "traced at translation, not iteration");
        assert_eq!(hit.count(), 1);
        assert_eq!(trace.emitted(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut tlb = Tlb::new();
        for i in 0..TLB_CAPACITY as u64 {
            tlb.insert(i * HUGE_PAGE_SIZE, i * HUGE_PAGE_SIZE).unwrap();
        }
        assert_eq!(tlb.len(), TLB_CAPACITY);
        let err = tlb.insert(TLB_CAPACITY as u64 * HUGE_PAGE_SIZE, 0);
        assert_eq!(err, Err(TlbError::Full));
        // Updating an existing entry is fine at capacity.
        assert!(tlb.insert(0, HUGE_PAGE_SIZE).is_ok());
    }

    #[test]
    fn physical_addresses_are_48_bit_page_aligned() {
        let mut tlb = Tlb::new();
        tlb.insert(0, 0xffff_ffff_ffff_f123).unwrap();
        let p = tlb.translate(0).unwrap();
        assert_eq!(p % HUGE_PAGE_SIZE, 0);
        assert!(p < (1 << 48));
    }
}
