//! The baselines the StRoM paper compares against.
//!
//! Every experiment in §6/§7 contrasts a StRoM kernel with one or more
//! conventional implementations:
//!
//! - [`onesided`]: client-driven data-structure access over plain RDMA
//!   READs — the Pilaf \[36\] / FaRM \[13\] pattern that pays one network
//!   round trip per pointer hop (Figs 7, 8) or per consistency retry
//!   (Figs 9, 10).
//! - [`tcp_rpc`]: an rpcgen-style RPC over TCP, where the remote *CPU*
//!   executes the lookup — a flat but high invocation cost (Figs 7, 8).
//! - [`sw_crc`]: RDMA READ + software CRC64 verification on the client
//!   CPU ("READ+SW" in Figs 9, 10).
//! - [`cpu_partition`]: sender-side radix partitioning on the CPU before
//!   RDMA WRITEs (Barthels et al. \[6\], "SW + RDMA WRITE" in Fig 11).
//! - [`cpu_hll`]: multi-threaded HyperLogLog on the receiving CPU
//!   (Fig 13a) — a real crossbeam implementation plus the calibrated
//!   timing model of the paper's memory-bound i7-7700 numbers.
//!
//! Wherever a baseline computes something (CRC64, partitions, HLL), the
//! computation is *real* — only CPU time is modeled, using per-byte and
//! per-item costs calibrated to the paper's reported overheads.

#![forbid(unsafe_code)]

pub mod cpu_hll;
pub mod cpu_partition;
pub mod onesided;
pub mod sw_crc;
pub mod tcp_rpc;

pub use cpu_hll::{parallel_hll, CpuHllModel};
pub use cpu_partition::{CpuPartitionModel, PartitionedBuffers};
pub use onesided::OneSidedClient;
pub use sw_crc::SwCrcModel;
pub use tcp_rpc::TcpRpcModel;
