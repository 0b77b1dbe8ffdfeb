//! Deterministic discrete-event simulation (DES) engine for StRoM.
//!
//! The StRoM paper evaluates real FPGA hardware; this crate provides the
//! substrate that replaces the testbed: a picosecond-resolution simulated
//! clock, a deterministic event queue (a hierarchical timer wheel with an
//! overflow heap, differential-tested against a reference binary heap),
//! bandwidth/latency primitives that model serialization over links and
//! buses, a store-and-forward switch, seeded arrival processes, a thread
//! fan-out for sweeps of whole simulations and a helper thread beside
//! one, and latency statistics
//! matching the paper's reporting style (median with 1st/99th-percentile
//! whiskers).
//!
//! Everything in this crate is deterministic: two runs with the same seed
//! produce identical event orders and identical statistics, which the
//! property tests rely on.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod event;
pub mod parallel;
pub mod rate;
pub mod report;
pub mod rng;
pub mod stats;
pub mod switch;
pub mod time;
mod wheel;

pub use arrivals::{ArrivalGen, ArrivalProcess, ZipfSampler};
pub use event::{EventQueue, Scheduled};
pub use parallel::{beside, default_workers, parallel_map};
pub use rate::{Bandwidth, LinkSerializer, Pacer};
pub use rng::SimRng;
pub use stats::{LatencySummary, Samples};
pub use switch::{Delivery, EcnConfig, Switch, SwitchConfig, SwitchPortCounters, TailDrop};
pub use time::{Clock, Time, TimeDelta};
