//! Simulated time, clocks, and unit helpers.
//!
//! Time is measured in integer **picoseconds** so that the paper's clock
//! periods are exact: 156.25 MHz = 6400 ps, 250 MHz = 4000 ps. A `u64`
//! picosecond counter overflows after ~213 days of simulated time, far
//! beyond any experiment in the paper (the longest runs ~1.2 s, Fig 11).

/// A point in simulated time, in picoseconds since simulation start.
pub type Time = u64;

/// A span of simulated time, in picoseconds.
pub type TimeDelta = u64;

/// One picosecond.
pub const PICOS: TimeDelta = 1;
/// One nanosecond in picoseconds.
pub const NANOS: TimeDelta = 1_000;
/// One microsecond in picoseconds.
pub const MICROS: TimeDelta = 1_000_000;
/// One millisecond in picoseconds.
pub const MILLIS: TimeDelta = 1_000_000_000;
/// One second in picoseconds.
pub const SECS: TimeDelta = 1_000_000_000_000;

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * 1024;
/// One gigabit, in bits.
pub const GBIT: u64 = 1_000_000_000;

/// A fixed-frequency hardware clock.
///
/// The paper's RoCE stack runs at 156.25 MHz for the 10 G configuration and
/// 322 MHz for 100 G; the DMA engine runs at 250 MHz. Pipeline latencies in
/// the simulation are expressed in cycles of the relevant clock and
/// converted to picoseconds here.
///
/// # Examples
///
/// ```
/// use strom_sim::time::Clock;
/// let clk = Clock::from_mhz(156.25);
/// assert_eq!(clk.period_ps(), 6400);
/// assert_eq!(clk.cycles(10), 64_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    period_ps: TimeDelta,
}

impl Clock {
    /// Creates a clock from a frequency in MHz (rounded to whole picoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz > 0.0, "clock frequency must be positive");
        let period_ps = (1_000_000.0 / mhz).round() as TimeDelta;
        Self { period_ps }
    }

    /// The clock period in picoseconds.
    pub fn period_ps(&self) -> TimeDelta {
        self.period_ps
    }

    /// The frequency in MHz (approximate, for reporting).
    pub fn mhz(&self) -> f64 {
        1_000_000.0 / self.period_ps as f64
    }

    /// The duration of `n` clock cycles.
    pub fn cycles(&self, n: u64) -> TimeDelta {
        self.period_ps * n
    }

    /// The number of cycles needed to stream `bytes` over a datapath of
    /// `width_bytes` at one word per cycle (II = 1), rounding up.
    pub fn cycles_for_bytes(&self, bytes: u64, width_bytes: u64) -> u64 {
        debug_assert!(width_bytes > 0);
        bytes.div_ceil(width_bytes)
    }

    /// The time to stream `bytes` over a datapath of `width_bytes` (II = 1).
    pub fn stream_time(&self, bytes: u64, width_bytes: u64) -> TimeDelta {
        self.cycles(self.cycles_for_bytes(bytes, width_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_periods_are_exact() {
        assert_eq!(Clock::from_mhz(156.25).period_ps(), 6400);
        assert_eq!(Clock::from_mhz(250.0).period_ps(), 4000);
        // 322 MHz rounds to 3106 ps.
        assert_eq!(Clock::from_mhz(322.0).period_ps(), 3106);
    }

    #[test]
    fn mhz_round_trips_within_rounding() {
        let clk = Clock::from_mhz(156.25);
        assert!((clk.mhz() - 156.25).abs() < 1e-9);
    }

    #[test]
    fn stream_time_rounds_words_up() {
        let clk = Clock::from_mhz(156.25);
        // 9 bytes over an 8 B datapath needs 2 cycles.
        assert_eq!(clk.stream_time(9, 8), 2 * 6400);
        assert_eq!(clk.stream_time(64, 8), 8 * 6400);
        assert_eq!(clk.cycles_for_bytes(0, 8), 0);
    }

    /// The 100 G datapath pin (§7): 64 B beats at the 322 MHz clock.
    /// A partial final beat always charges a whole cycle — store-and-
    /// forward stages that divided instead of ceiling here would
    /// under-charge every frame that is not a multiple of 64 B.
    #[test]
    fn stream_time_pins_the_64_byte_datapath() {
        let clk = Clock::from_mhz(322.0);
        // One beat up to and including 64 B, never zero for nonzero len.
        assert_eq!(clk.stream_time(1, 64), 3106);
        assert_eq!(clk.stream_time(64, 64), 3106);
        // 65 B spills into a second beat; exact multiples do not.
        assert_eq!(clk.stream_time(65, 64), 2 * 3106);
        assert_eq!(clk.stream_time(128, 64), 2 * 3106);
        // A 1500 B MTU frame is 24 beats (1500 = 23*64 + 28).
        assert_eq!(clk.stream_time(1500, 64), 24 * 3106);
        // The invariant behind all of these, swept across both widths:
        // charged time is never below len*period/width (no under-
        // charging), and never a full beat above it.
        for width in [8u64, 64] {
            for len in 1..=256u64 {
                let t = clk.stream_time(len, width);
                let exact_num = len * clk.period_ps();
                assert!(t * width >= exact_num, "len {len} width {width}");
                assert!(t * width < exact_num + clk.period_ps() * width);
            }
        }
    }

    #[test]
    fn unit_constants_are_consistent() {
        assert_eq!(NANOS, 1_000 * PICOS);
        assert_eq!(MICROS, 1_000 * NANOS);
        assert_eq!(MILLIS, 1_000 * MICROS);
        assert_eq!(SECS, 1_000 * MILLIS);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_panics() {
        let _ = Clock::from_mhz(0.0);
    }
}
