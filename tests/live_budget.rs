//! The chain drivers' peak live heap per tuple, and the shuffle's per
//! value, held in CI.
//!
//! A counting global allocator tracks the bytes live at each moment and
//! their peak. A budget is a slope: each chain driver runs at two stream
//! lengths, and the shuffle at two table sizes, and the difference in peak
//! live bytes over the difference in tuples (or shuffled values) is what
//! each further one holds at the peak. The testbed, its tables and the
//! per-run constants cancel out.
//!
//! Measured at seed 7 on the 10 G platform: the filter chain holds
//! 17.52 B per tuple at its peak, the CRC chain 27.09 B. Of the filter
//! chain's, 8 B is the stream staged in the client's host memory and the
//! rest what the simulation holds of it in flight; the CRC chain adds the
//! server's partitions and the reference split. The budgets were set 1 B
//! above the figures before posted DMA writes queued per NIC (17.56 and
//! 27.21 B then), and stay there. A driver that keeps the drawn tuple vector and a
//! second copy of the stream reads 16 B per tuple more (33.56 and
//! 43.21 B, measured on such a build) and fails here.
//!
//! A four-node 10 G shuffle at seed 7, between 50 000 and 150 000 values
//! per node, holds 26.75 B per shuffled value at its peak: the staged and
//! the received bytes in host memory (8 B each) and what the simulation
//! holds in flight. Its budget sits 1 B above the 27.82 B it held before
//! posted writes queued per NIC. A driver that keeps an
//! expected copy of every value through the run reads 35.82 B (measured
//! on such a build) and fails here.
//!
//! The 100 G platform adds what 10 G never builds up: a kernel flushes
//! its bursts faster than PCIe lands them, so posted DMA writes queue in
//! each NIC. At 100 G the filter chain holds 17.62 B per tuple, the CRC
//! chain 29.07 B and the shuffle 27.70 B per value; each budget sits 1 B
//! above. A build that holds each waiting write as its own event and
//! buffer reads 31.33 B (CRC chain) and 29.09 B (shuffle), and fails here;
//! its filter chain reads 17.66 B.
//!
//! The binary holds a single test on purpose: a second test would run on
//! a thread of its own and its allocations would count here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use strom::nic::cluster_shuffle::{run_shuffle, ShuffleSpec};
use strom::nic::{run_crcverify_shuffle, run_filter_agg_hll, ChainSpec, Platform};

/// Bytes live now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes live since the last [`peak_during`] began.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, SeqCst) + size;
    PEAK.fetch_max(live, SeqCst);
}

fn shrank(size: usize) {
    LIVE.fetch_sub(size, SeqCst);
}

/// `System`, with its live bytes counted.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract. The counters are static
// atomics: touching them never allocates and never re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The peak live bytes while `f` runs, above those live when it began.
fn peak_during(f: impl FnOnce()) -> usize {
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    f();
    PEAK.load(SeqCst) - before
}

/// Peak live bytes per tuple of `run` on `platform`, between `short` and
/// `long` tuples.
fn slope(platform: Platform, short: usize, long: usize, run: fn(&ChainSpec)) -> f64 {
    let peak = |tuples| {
        let spec = ChainSpec {
            platform,
            ..ChainSpec::new(tuples, 7)
        };
        peak_during(|| run(&spec))
    };
    let (a, b) = (peak(short), peak(long));
    (b as f64 - a as f64) / (long - short) as f64
}

/// Peak live bytes per shuffled value of a four-node shuffle on
/// `platform`, between `short` and `long` values per node.
fn shuffle_slope(platform: Platform, short: usize, long: usize) -> f64 {
    let run = |values| {
        let spec = ShuffleSpec {
            platform,
            ..ShuffleSpec::new(4, values, 7)
        };
        let mut shuffled = 0;
        let peak = peak_during(|| shuffled = run_shuffle(&spec).bytes_shuffled / 8);
        (peak, shuffled)
    };
    let ((a, va), (b, vb)) = (run(short), run(long));
    (b as f64 - a as f64) / (vb - va) as f64
}

#[test]
fn chain_drivers_hold_at_most_a_budget_of_live_bytes_per_tuple() {
    // (platform, filter chain, CRC chain, shuffle) budgets in bytes.
    let budgets = [
        (Platform::TenGig, 18.5, 28.25, 28.82),
        (Platform::HundredGig, 18.62, 30.07, 28.70),
    ];
    for (platform, filter_budget, crc_budget, shuffle_budget) in budgets {
        let (short, long) = (100_000, 300_000);
        let filter = slope(platform, short, long, |spec| {
            run_filter_agg_hll(spec);
        });
        let crc = slope(platform, short, long, |spec| {
            run_crcverify_shuffle(spec);
        });
        let shuffle = shuffle_slope(platform, 50_000, 150_000);
        println!(
            "{platform:?}: peak live bytes per tuple: filter chain {filter:.2}, CRC chain {crc:.2}"
        );
        println!("{platform:?}: peak live bytes per shuffled value: {shuffle:.2}");
        assert!(
            filter <= filter_budget,
            "{platform:?}: filter chain holds {filter:.2} B per tuple"
        );
        assert!(
            crc <= crc_budget,
            "{platform:?}: CRC chain holds {crc:.2} B per tuple"
        );
        assert!(
            shuffle <= shuffle_budget,
            "{platform:?}: the shuffle holds {shuffle:.2} B per value"
        );
    }
}
