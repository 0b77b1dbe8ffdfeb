//! The host DRAM and a single-process virtual address space.
//!
//! §4.3: "To enable direct access to the host memory from the FPGA, memory
//! has to be pinned in advance. To do so the application passes a memory
//! region to the driver which pins every page and also returns its
//! physical addresses." §4.2 adds: "Even though all the huge pages
//! combined build a single contiguous virtual address space, physically
//! they might not be contiguous."
//!
//! [`HostMemory`] reproduces both facts: `pin` allocates a virtually
//! contiguous region whose 2 MB physical frames are deliberately scattered
//! (deterministically), and returns the frame addresses the driver would
//! hand to the NIC's TLB. A frame's bytes materialize in [`CHUNK_SIZE`]
//! chunks on first write, and bytes never written read as zero without
//! materializing anything, so a run pays for the 64 KiB chunks it writes,
//! not for the 2 MB pages it pins.
//!
//! Virtual and physical page numbers are both handed out by a bump
//! allocator, so the page table and the frame table are dense vectors
//! indexed by page number: no lookup hashes.

/// Size of one huge page: 2 MB (§4.2).
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;

/// Granularity at which a frame's bytes materialize: 64 KiB.
pub const CHUNK_SIZE: u64 = 64 * 1024;

/// Chunks per 2 MB frame.
const CHUNKS_PER_FRAME: usize = (HUGE_PAGE_SIZE / CHUNK_SIZE) as usize;

/// Virtual base address of the first pinned region; nonzero so that a
/// stray zero address faults loudly.
const VADDR_BASE: u64 = 0x0001_0000_0000;

/// Page number of [`VADDR_BASE`], the first slot of the page table.
const FIRST_VPN: u64 = VADDR_BASE / HUGE_PAGE_SIZE;

/// Frame number of the first pinned page.
const FIRST_PFN: u64 = 1;

/// Frame numbers advance by this stride: virtually adjacent pages are
/// physically 6 MB apart.
const PFN_STRIDE: u64 = 3;

/// One materialized chunk of a frame.
type Chunk = [u8; CHUNK_SIZE as usize];

/// What every chunk reads as until its first write.
static ZERO_CHUNK: Chunk = [0; CHUNK_SIZE as usize];

/// Errors from pinning memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinError {
    /// Requested length is zero.
    EmptyRegion,
}

impl std::fmt::Display for PinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinError::EmptyRegion => write!(f, "cannot pin an empty region"),
        }
    }
}

impl std::error::Error for PinError {}

/// The host DRAM plus the process's virtual→physical page mappings.
///
/// # Examples
///
/// ```
/// use strom_mem::HostMemory;
/// let mut mem = HostMemory::new();
/// let (vaddr, physical_pages) = mem.pin(1 << 20).unwrap();
/// assert!(!physical_pages.is_empty());
/// mem.write(vaddr, b"pinned bytes");
/// assert_eq!(mem.read(vaddr, 12), b"pinned bytes");
/// ```
#[derive(Debug, Default)]
pub struct HostMemory {
    /// Frame number of each pinned page, indexed by virtual page number
    /// less [`FIRST_VPN`].
    page_table: Vec<u64>,
    /// The chunks of every pinned frame, [`CHUNKS_PER_FRAME`] per frame in
    /// pin order; `None` until first written.
    chunks: Vec<Option<Box<Chunk>>>,
}

impl HostMemory {
    /// Creates an empty host memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins a region of `len` bytes.
    ///
    /// Returns the virtual base address and the physical address of each
    /// 2 MB page, in virtual order — what the driver returns to populate
    /// the NIC TLB (§4.3). Physical frames are intentionally
    /// non-contiguous: consecutive virtual pages receive frame numbers
    /// with a stride, reproducing the fragmentation that makes TLB
    /// boundary-splitting necessary.
    pub fn pin(&mut self, len: u64) -> Result<(u64, Vec<u64>), PinError> {
        if len == 0 {
            return Err(PinError::EmptyRegion);
        }
        let first = self.page_table.len();
        let pages = len.div_ceil(HUGE_PAGE_SIZE) as usize;
        self.page_table
            .extend((first..first + pages).map(|f| FIRST_PFN + f as u64 * PFN_STRIDE));
        self.chunks
            .resize_with(self.page_table.len() * CHUNKS_PER_FRAME, || None);
        let base = (FIRST_VPN + first as u64) * HUGE_PAGE_SIZE;
        let phys = self.page_table[first..]
            .iter()
            .map(|pfn| pfn * HUGE_PAGE_SIZE);
        Ok((base, phys.collect()))
    }

    /// Translates a virtual address to physical via the process page
    /// table. Returns `None` for unpinned addresses.
    pub fn virt_to_phys(&self, vaddr: u64) -> Option<u64> {
        let slot = (vaddr / HUGE_PAGE_SIZE).checked_sub(FIRST_VPN)?;
        let pfn = self.page_table.get(usize::try_from(slot).ok()?)?;
        Some(pfn * HUGE_PAGE_SIZE + vaddr % HUGE_PAGE_SIZE)
    }

    /// The chunk-table index of the byte at `paddr`, plus its offset in
    /// that chunk, for an access of `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a 2 MB frame boundary (the TLB must
    /// split it) or the frame was never pinned.
    fn locate(&self, paddr: u64, len: usize) -> (usize, usize) {
        let (pfn, offset) = (paddr / HUGE_PAGE_SIZE, paddr % HUGE_PAGE_SIZE);
        assert!(
            offset + len as u64 <= HUGE_PAGE_SIZE,
            "physical access crosses a frame boundary (TLB must split)"
        );
        let frame = pfn.wrapping_sub(FIRST_PFN) / PFN_STRIDE;
        assert!(
            pfn >= FIRST_PFN
                && (pfn - FIRST_PFN).is_multiple_of(PFN_STRIDE)
                && frame < self.page_table.len() as u64,
            "physical access to frame {pfn:#x}, which was never pinned"
        );
        let chunk = frame as usize * CHUNKS_PER_FRAME + (offset / CHUNK_SIZE) as usize;
        (chunk, (offset % CHUNK_SIZE) as usize)
    }

    /// The `len` bytes at physical `paddr`, as consecutive slices of at
    /// most one chunk each; unwritten chunks read from [`ZERO_CHUNK`].
    fn phys_slices(&self, paddr: u64, len: usize) -> impl Iterator<Item = &[u8]> {
        let (mut chunk, mut offset) = if len > 0 {
            self.locate(paddr, len)
        } else {
            (0, 0)
        };
        let mut left = len;
        std::iter::from_fn(move || {
            (left > 0).then(|| {
                let n = (CHUNK_SIZE as usize - offset).min(left);
                let bytes = self.chunks[chunk].as_deref().unwrap_or(&ZERO_CHUNK);
                let slice = &bytes[offset..offset + n];
                (chunk, offset, left) = (chunk + 1, 0, left - n);
                slice
            })
        })
    }

    /// Reads `buf.len()` bytes from *physical* address `paddr` — the DMA
    /// engine's view of memory. The range must not cross a frame boundary
    /// (the TLB guarantees this by splitting commands).
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a 2 MB frame boundary; that would be a
    /// TLB bug, not a data condition. Panics, too, on a frame that was
    /// never pinned.
    pub fn phys_read(&self, paddr: u64, buf: &mut [u8]) {
        let mut at = 0;
        for slice in self.phys_slices(paddr, buf.len()) {
            buf[at..at + slice.len()].copy_from_slice(slice);
            at += slice.len();
        }
    }

    /// The `len` bytes at *physical* `paddr` as one borrowed slice, when
    /// they sit in one chunk; `None` when they span chunks or `len` is 0.
    /// A caller copies a short read straight out of it, with no zeroed
    /// buffer to fill.
    ///
    /// # Panics
    ///
    /// As [`HostMemory::phys_read`].
    pub fn phys_slice(&self, paddr: u64, len: usize) -> Option<&[u8]> {
        self.phys_slices(paddr, len)
            .next()
            .filter(|s| s.len() == len)
    }

    /// Appends `len` bytes from *physical* address `paddr` to `out`,
    /// straight from memory with no zero-fill pass.
    ///
    /// # Panics
    ///
    /// As [`HostMemory::phys_read`].
    pub fn phys_append(&self, paddr: u64, len: usize, out: &mut Vec<u8>) {
        for slice in self.phys_slices(paddr, len) {
            out.extend_from_slice(slice);
        }
    }

    /// Writes `data` at *physical* address `paddr`, materializing the
    /// chunks it touches.
    ///
    /// # Panics
    ///
    /// As [`HostMemory::phys_read`].
    pub fn phys_write(&mut self, paddr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let (mut chunk, mut offset) = self.locate(paddr, data.len());
        let mut rest = data;
        while !rest.is_empty() {
            let n = (CHUNK_SIZE as usize - offset).min(rest.len());
            let bytes = self.chunks[chunk].get_or_insert_with(|| {
                vec![0; CHUNK_SIZE as usize]
                    .into_boxed_slice()
                    .try_into()
                    .expect("chunk-sized")
            });
            bytes[offset..offset + n].copy_from_slice(&rest[..n]);
            (chunk, offset, rest) = (chunk + 1, 0, &rest[n..]);
        }
    }

    /// The `(paddr, len)` runs of `len` bytes at virtual `vaddr`, split at
    /// page boundaries.
    ///
    /// # Panics
    ///
    /// Panics, naming the `access`, on reaching unpinned memory — a
    /// segfault in the real system.
    fn phys_runs(
        &self,
        vaddr: u64,
        len: usize,
        access: &'static str,
    ) -> impl Iterator<Item = (u64, usize)> + '_ {
        let end = vaddr + len as u64;
        let mut cur = vaddr;
        std::iter::from_fn(move || {
            (cur < end).then(|| {
                let paddr = self
                    .virt_to_phys(cur)
                    .unwrap_or_else(|| panic!("segfault: {access} of unpinned address {cur:#x}"));
                let n = (HUGE_PAGE_SIZE - cur % HUGE_PAGE_SIZE).min(end - cur);
                cur += n;
                (paddr, n as usize)
            })
        })
    }

    /// Reads from a *virtual* address — the CPU's view. Spanning pages is
    /// fine here; the MMU handles it transparently for the CPU.
    ///
    /// # Panics
    ///
    /// Panics when touching unpinned memory — a segfault in the real
    /// system.
    pub fn read(&self, vaddr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for (paddr, n) in self.phys_runs(vaddr, len, "read") {
            self.phys_append(paddr, n, &mut out);
        }
        out
    }

    /// Reads `buf.len()` bytes from a *virtual* address into `buf`,
    /// allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics when touching unpinned memory.
    pub fn read_into(&self, vaddr: u64, buf: &mut [u8]) {
        let mut at = 0;
        for (paddr, n) in self.phys_runs(vaddr, buf.len(), "read") {
            self.phys_read(paddr, &mut buf[at..at + n]);
            at += n;
        }
    }

    /// Writes to a *virtual* address — the CPU's view.
    ///
    /// # Panics
    ///
    /// Panics when touching unpinned memory.
    pub fn write(&mut self, vaddr: u64, data: &[u8]) {
        let mut done = 0;
        while done < data.len() {
            let cur = vaddr + done as u64;
            let paddr = self
                .virt_to_phys(cur)
                .unwrap_or_else(|| panic!("segfault: write of unpinned address {cur:#x}"));
            let in_page = (HUGE_PAGE_SIZE - cur % HUGE_PAGE_SIZE) as usize;
            let chunk = in_page.min(data.len() - done);
            self.phys_write(paddr, &data[done..done + chunk]);
            done += chunk;
        }
    }

    /// Convenience: reads a little-endian `u64` at `vaddr`.
    pub fn read_u64(&self, vaddr: u64) -> u64 {
        let mut word = [0u8; 8];
        self.read_into(vaddr, &mut word);
        u64::from_le_bytes(word)
    }

    /// Convenience: writes a little-endian `u64` at `vaddr`.
    pub fn write_u64(&mut self, vaddr: u64, value: u64) {
        self.write(vaddr, &value.to_le_bytes());
    }

    /// Bytes of host memory actually materialized: written chunks times
    /// [`CHUNK_SIZE`] (diagnostics).
    pub fn resident_bytes(&self) -> u64 {
        self.chunks.iter().filter(|c| c.is_some()).count() as u64 * CHUNK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_returns_page_aligned_scattered_frames() {
        let mut m = HostMemory::new();
        let (base, phys) = m.pin(5 * HUGE_PAGE_SIZE).unwrap();
        assert_eq!(base % HUGE_PAGE_SIZE, 0);
        assert_eq!(phys.len(), 5);
        for p in &phys {
            assert_eq!(p % HUGE_PAGE_SIZE, 0);
        }
        // Physically non-contiguous by construction.
        assert_ne!(phys[1], phys[0] + HUGE_PAGE_SIZE);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut m = HostMemory::new();
        let (a, pa) = m.pin(HUGE_PAGE_SIZE).unwrap();
        let (b, pb) = m.pin(HUGE_PAGE_SIZE).unwrap();
        assert!(b >= a + HUGE_PAGE_SIZE);
        assert_ne!(pa[0], pb[0]);
    }

    #[test]
    fn virtual_rw_round_trip() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(1024).unwrap();
        m.write(base + 100, b"strom");
        assert_eq!(m.read(base + 100, 5), b"strom");
        m.write_u64(base, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(base), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn virtual_rw_spans_page_boundaries() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(2 * HUGE_PAGE_SIZE).unwrap();
        let boundary = base + HUGE_PAGE_SIZE - 3;
        m.write(boundary, b"abcdef");
        assert_eq!(m.read(boundary, 6), b"abcdef");
        // The two halves live in different, non-adjacent frames.
        let p1 = m.virt_to_phys(boundary).unwrap();
        let p2 = m.virt_to_phys(boundary + 3).unwrap();
        assert_ne!(p2, p1 + 3);
    }

    #[test]
    fn phys_access_matches_virtual_view() {
        let mut m = HostMemory::new();
        let (base, phys) = m.pin(HUGE_PAGE_SIZE).unwrap();
        m.write(base + 8, b"via cpu");
        let mut buf = [0u8; 7];
        m.phys_read(phys[0] + 8, &mut buf);
        assert_eq!(&buf, b"via cpu");
        m.phys_write(phys[0] + 100, b"via dma");
        assert_eq!(m.read(base + 100, 7), b"via dma");
    }

    #[test]
    fn phys_slice_borrows_only_a_read_inside_one_chunk() {
        let mut m = HostMemory::new();
        let (_, phys) = m.pin(HUGE_PAGE_SIZE).unwrap();
        m.phys_write(phys[0] + 8, b"in one chunk");
        assert_eq!(m.phys_slice(phys[0] + 8, 12), Some(&b"in one chunk"[..]));
        // An unwritten chunk reads as zeros, borrowed all the same.
        let far = phys[0] + 5 * CHUNK_SIZE;
        assert_eq!(m.phys_slice(far, 4), Some(&[0u8; 4][..]));
        let edge = phys[0] + CHUNK_SIZE - 2;
        m.phys_write(edge, b"span");
        assert_eq!(m.phys_slice(edge, 4), None, "spans two chunks");
        assert_eq!(m.phys_slice(edge, 2), Some(&b"sp"[..]));
        assert_eq!(m.phys_slice(edge, 0), None);
    }

    #[test]
    #[should_panic(expected = "frame boundary")]
    fn phys_access_may_not_cross_frames() {
        let mut m = HostMemory::new();
        let (_, phys) = m.pin(2 * HUGE_PAGE_SIZE).unwrap();
        let mut buf = [0u8; 16];
        m.phys_read(phys[0] + HUGE_PAGE_SIZE - 8, &mut buf);
    }

    #[test]
    #[should_panic(expected = "never pinned")]
    fn phys_access_to_an_unpinned_frame_panics() {
        let mut m = HostMemory::new();
        let (_, phys) = m.pin(HUGE_PAGE_SIZE).unwrap();
        // The frame number between two pinned ones, skipped by the stride.
        m.phys_write(phys[0] + HUGE_PAGE_SIZE, b"x");
    }

    #[test]
    #[should_panic(expected = "segfault")]
    fn unpinned_access_faults() {
        let m = HostMemory::new();
        let _ = m.read(0x42, 1);
    }

    #[test]
    fn empty_pin_is_rejected() {
        let mut m = HostMemory::new();
        assert_eq!(m.pin(0), Err(PinError::EmptyRegion));
    }

    #[test]
    fn one_written_byte_materializes_one_chunk() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(100 * HUGE_PAGE_SIZE).unwrap();
        assert_eq!(m.resident_bytes(), 0);
        m.write(base + 77 * HUGE_PAGE_SIZE + 3 * CHUNK_SIZE + 5, b"x");
        assert_eq!(m.resident_bytes(), CHUNK_SIZE);
    }

    #[test]
    fn fresh_memory_reads_zero() {
        let mut m = HostMemory::new();
        let (base, _) = m.pin(64).unwrap();
        assert_eq!(m.read(base, 64), vec![0u8; 64]);
        assert_eq!(m.resident_bytes(), 0, "reading materializes nothing");
    }
}
