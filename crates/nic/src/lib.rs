//! The StRoM NIC simulation: RoCE stack + DMA engine + kernel fabric,
//! assembled into a testbed of N nodes.
//!
//! This crate is the counterpart of the paper's hardware platform
//! (Figure 1), and it is built from the same boxes:
//!
//! - a `Nic` (`nic.rs`, private) is one simulated node — host memory
//!   behind a PCIe/DMA model with an on-NIC TLB, a RoCE v2 protocol
//!   engine (the sans-IO state machines of `strom-proto` driven with
//!   pipeline timing), and a kernel fabric hosting StRoM kernels on the
//!   data path between the RoCE stack and the DMA engine (Figure 4).
//!   Its handlers see only their own state plus a borrowed context; no
//!   NIC can name another NIC;
//! - a `Wire` (`wire.rs`, private) is everything between NICs — link
//!   serializers, fault injection and its RNG, pcap capture, and the
//!   medium: a cable or a store-and-forward switch;
//! - [`ClusterTestbed`] ([`testbed`]) joins N `Nic`s with one `Wire` and
//!   adds what the experimenter holds: the event queue, posted work
//!   requests, memory watches, telemetry, the run loops.
//!
//! [`ClusterTestbed::new`] (alias [`Testbed`]) connects two nodes
//! back-to-back — "we directly connected two StRoM NICs to each other to
//! remove the potential noise introduced by a switch" (§6.1) — while
//! [`ClusterTestbed::switched`] places N of them around a deterministic
//! switch and drives multi-node workloads like the all-to-all shuffle
//! ([`cluster_shuffle`]). DESIGN.md §13 has the full module map.
//!
//! Every workload family — [`chaos`], [`cluster_shuffle`],
//! [`cluster_incast`], [`kv_serve`], [`cluster_chain`] — is a
//! [`Scenario`]: it builds its testbed, drives and verifies the run, and
//! reports one [`Observables`] value that the [`corpus`], the `figures`
//! telemetry export and the soak tests read.
//!
//! Packets cross the simulated wire as real encoded bytes
//! (`strom_wire::Packet::encode`/`parse`), so the full header machinery,
//! ICRC validation, segmentation, PSN windows, and retransmission logic
//! are exercised functionally; only *time* is modeled, using the clock,
//! PCIe, and line-rate constants documented in `NicConfig`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster_chain;
pub mod cluster_incast;
pub mod cluster_shuffle;
pub mod config;
pub mod controller;
pub mod corpus;
pub mod event;
pub mod fabric;
pub mod fault;
pub mod kv_serve;
mod nic;
pub mod scenario;
pub mod testbed;
mod watch;
mod wire;

pub use cluster_chain::{
    run_crcverify_shuffle, run_filter_agg_hll, Chain, ChainKind, ChainRun, ChainSpec,
};
pub use config::{NicConfig, Platform};
pub use controller::{CommandWord, StatusRegisters};
pub use corpus::{
    run_corpus, run_corpus_cases, CorpusCase, CorpusReport, CorpusScale, PerfGate, ScenarioSpec,
    SpecError, Workload,
};
pub use event::{Event, NodeId};
pub use fabric::KernelFabric;
pub use fault::{LinkFaultModel, LossModel};
pub use kv_serve::{run_kv_serve, KvOutcome, KvSpec};
pub use scenario::{Observables, Scenario};
pub use testbed::{ClusterTestbed, CpuFallback, LookaheadReport, SwitchParams, Testbed, WatchId};

pub use chaos::{active_fault_types, chaos_model, run_chaos, ChaosOutcome, ChaosSpec};

// Re-export the work-request vocabulary users need at the testbed API.
pub use strom_proto::{Completion, CompletionStatus, WorkRequest};
pub use strom_wire::opcode::RpcOpCode;
