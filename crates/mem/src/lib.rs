//! Host memory, TLB, and PCIe/DMA models for StRoM.
//!
//! The paper's NIC accesses host memory over PCIe through a DMA engine and
//! an on-NIC TLB holding physical addresses of pinned 2 MB huge pages
//! (§4.2/§4.3). This crate provides the byte-accurate substrate:
//!
//! - [`HostMemory`]: the machine's DRAM as 2 MB physical frames whose
//!   bytes materialize in 64 KiB chunks on first write, plus a
//!   single-process virtual address space whose pinned regions are
//!   **virtually contiguous but physically scattered** — the exact
//!   situation that forces the TLB to split page-crossing commands.
//! - [`Tlb`]: the on-NIC translation table (up to 16,384 entries → 32 GB),
//!   populated once by the driver, with command splitting at 2 MB
//!   boundaries into [`Segments`], yielded without collecting them.
//! - [`PcieModel`]: latency/bandwidth constants of the PCIe link
//!   (Gen3 x8 for the 10 G board, x16 for the VCU118).
//! - [`DmaCmd`]: the 12 B command descriptor a StRoM kernel issues on its
//!   `dmaCmdOut` stream (Figure 4).

#![forbid(unsafe_code)]

pub mod dma;
pub mod host;
pub mod pcie;
pub mod tlb;

pub use dma::{DmaCmd, DmaDirection};
pub use host::{HostMemory, PinError, CHUNK_SIZE, HUGE_PAGE_SIZE};
pub use pcie::PcieModel;
pub use tlb::{PhysSegment, Segments, Tlb, TlbError, TLB_CAPACITY};
