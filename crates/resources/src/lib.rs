//! FPGA resource-usage model for the StRoM NIC.
//!
//! Reproduces the resource numbers of the paper analytically:
//!
//! - **Table 3** — StRoM on the VCU118 (XCVU9P): 92 K LUTs / 181 BRAMs /
//!   115 K FFs at 10 G versus 122 K / 402 / 214 K at 100 G, for 500 QPs.
//! - **§6.1** — on the 7VX690T, the 10 G design uses 24 % of logic and
//!   9 % of on-chip memory at 500 QPs; growing to 16,000 QPs costs less
//!   than 1 % more logic but raises BRAM usage to 20 %.
//! - **§7.1** — "the numbers of used on-chip memory and registers have
//!   doubled, while the logic consumption has increased by 32 %" from
//!   10 G to 100 G, because widening the datapath 8× doubles buffers and
//!   registers but leaves the state structures and TLB untouched.
//!
//! The model is a per-module cost table (MAC, RoCE pipelines, DMA engine,
//! TLB, Controller, StRoM arbitration) with three scaling inputs: datapath
//! width (buffers and pipeline registers), queue-pair count (state tables,
//! ~66 B of BRAM state per QP), and TLB entries (48-bit physical address
//! each). Module constants are calibrated against Table 3; device factors
//! capture the older Virtex-7 toolchain/packing differences.

#![forbid(unsafe_code)]

pub mod device;
pub mod model;

pub use device::Device;
pub use model::{DesignConfig, ResourceModel, Usage};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_10g_on_vcu118() {
        let u = ResourceModel::new().estimate(&DesignConfig::ten_gig(), Device::xcvu9p());
        // Paper: 92 K LUTs (7.8 %), 181 BRAM (8.4 %), 115 K FFs (4.8 %).
        assert!(
            (u.luts as f64 - 92_000.0).abs() / 92_000.0 < 0.02,
            "luts = {}",
            u.luts
        );
        assert!(
            (u.bram36 as f64 - 181.0).abs() / 181.0 < 0.02,
            "bram = {}",
            u.bram36
        );
        assert!(
            (u.ffs as f64 - 115_000.0).abs() / 115_000.0 < 0.02,
            "ffs = {}",
            u.ffs
        );
        assert!((u.lut_fraction - 0.078).abs() < 0.005);
        assert!((u.bram_fraction - 0.084).abs() < 0.005);
        assert!((u.ff_fraction - 0.048).abs() < 0.005);
    }

    #[test]
    fn table3_100g_on_vcu118() {
        let u = ResourceModel::new().estimate(&DesignConfig::hundred_gig(), Device::xcvu9p());
        // Paper: 122 K LUTs (10.3 %), 402 BRAM (18.6 %), 214 K FFs (9.1 %).
        assert!(
            (u.luts as f64 - 122_000.0).abs() / 122_000.0 < 0.02,
            "luts = {}",
            u.luts
        );
        assert!(
            (u.bram36 as f64 - 402.0).abs() / 402.0 < 0.02,
            "bram = {}",
            u.bram36
        );
        assert!(
            (u.ffs as f64 - 214_000.0).abs() / 214_000.0 < 0.02,
            "ffs = {}",
            u.ffs
        );
    }

    #[test]
    fn section71_scaling_claims() {
        // "on-chip memory and registers have doubled, while the logic
        // consumption has increased by 32 %".
        let m = ResourceModel::new();
        let u10 = m.estimate(&DesignConfig::ten_gig(), Device::xcvu9p());
        let u100 = m.estimate(&DesignConfig::hundred_gig(), Device::xcvu9p());
        let lut_growth = u100.luts as f64 / u10.luts as f64;
        let bram_growth = u100.bram36 as f64 / u10.bram36 as f64;
        let ff_growth = u100.ffs as f64 / u10.ffs as f64;
        assert!(
            (1.28..1.38).contains(&lut_growth),
            "lut growth = {lut_growth}"
        );
        assert!(
            (1.9..2.4).contains(&bram_growth),
            "bram growth = {bram_growth}"
        );
        assert!((1.75..2.05).contains(&ff_growth), "ff growth = {ff_growth}");
    }

    #[test]
    fn section61_virtex7_percentages() {
        // "uses only 24% of the available logic resources … For 500 queue
        // pairs (QPs) 9% of the on-chip memory is occupied."
        let u = ResourceModel::new().estimate(&DesignConfig::ten_gig(), Device::xc7vx690t());
        assert!(
            (u.lut_fraction - 0.24).abs() < 0.015,
            "logic = {}",
            u.lut_fraction
        );
        assert!(
            (u.bram_fraction - 0.09).abs() < 0.01,
            "bram = {}",
            u.bram_fraction
        );
    }

    #[test]
    fn section61_qp_scaling() {
        // "the logic resource usage stays within 1% when going from 500 to
        // 16,000 QPs, the on-chip memory usage on the other hand increases
        // to 20%".
        let m = ResourceModel::new();
        let small = m.estimate(&DesignConfig::ten_gig(), Device::xc7vx690t());
        let mut big_cfg = DesignConfig::ten_gig();
        big_cfg.num_qps = 16_000;
        let big = m.estimate(&big_cfg, Device::xc7vx690t());
        assert!(
            big.lut_fraction - small.lut_fraction < 0.01,
            "logic grew by {}",
            big.lut_fraction - small.lut_fraction
        );
        assert!(
            (big.bram_fraction - 0.20).abs() < 0.015,
            "bram = {}",
            big.bram_fraction
        );
    }
}
