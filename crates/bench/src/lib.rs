//! The experiment harness: one function per table and figure of the
//! paper's evaluation (§6, §7), each regenerating the corresponding data
//! series from the simulation and the calibrated baselines.
//!
//! Run everything with the `figures` binary:
//!
//! ```text
//! cargo run --release -p strom-bench --bin figures           # all, quick scale
//! cargo run --release -p strom-bench --bin figures -- fig7   # one experiment
//! cargo run --release -p strom-bench --bin figures -- --full # paper-scale inputs
//! ```
//!
//! `EXPERIMENTS.md` at the repository root records paper-versus-measured
//! for every series printed here.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{all_experiments, run_experiment, run_experiment_telemetry, Scale};
