//! StRoM: smart remote memory — a faithful, simulation-based reproduction of
//! the EuroSys 2020 paper by Sidler, Wang, Chiosa, Kulkarni and Alonso.
//!
//! This facade crate re-exports the public API of every subsystem crate so a
//! downstream user can depend on `strom` alone. See the individual crates for
//! the detailed documentation:
//!
//! - [`sim`] — deterministic discrete-event simulation engine.
//! - [`wire`] — RoCE v2 packet formats (Ethernet/IPv4/UDP/BTH/RETH/AETH).
//! - [`proto`] — RoCE protocol state machines (PSN windows, retransmission).
//! - [`mem`] — host memory, TLB, and PCIe/DMA models.
//! - [`kernels`] — the StRoM kernel framework and the four paper kernels.
//! - [`nic`] — the full two-node NIC testbed and host API.
//! - [`baselines`] — CPU/TCP baselines the paper compares against.
//! - [`resources`] — FPGA resource-usage model (Table 3, §6.1).
//! - [`telemetry`] — tracing, metrics registry, and JSON report export.

#![forbid(unsafe_code)]

pub use strom_baselines as baselines;
pub use strom_kernels as kernels;
pub use strom_mem as mem;
pub use strom_nic as nic;
pub use strom_proto as proto;
pub use strom_resources as resources;
pub use strom_sim as sim;
pub use strom_telemetry as telemetry;
pub use strom_wire as wire;
