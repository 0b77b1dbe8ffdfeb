//! A counting wrapper around the system allocator: live and peak bytes,
//! and how many allocations were made.
//!
//! `VmHWM` includes whatever the allocator keeps back from the kernel,
//! which made `kv_serve`'s peak bimodal from seed to seed (28 or 34 MiB)
//! and the incasts' four times their live memory. Live bytes are what the
//! simulator asked for: they repeat exactly at one seed and move smoothly
//! between seeds, and allocations per op is the count a later change to
//! per-frame allocation should move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The process's allocator: `System`, counted.
pub struct Counting;

/// The counters. Statistics only — no other data is published through
/// them — so every access is `Relaxed`, and updates are a plain load and
/// store rather than a locked read-modify-write, which would add 3–8 % to
/// a unit's wall time. They are therefore exact only while one thread
/// allocates, which holds for the benchmark: one thread per process.
struct Counters {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocations: AtomicUsize,
    allocated: AtomicUsize,
}

fn add(counter: &AtomicUsize, n: usize) -> usize {
    let v = counter.load(Relaxed).wrapping_add(n);
    counter.store(v, Relaxed);
    v
}

impl Counters {
    const fn new() -> Counters {
        Counters {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocations: AtomicUsize::new(0),
            allocated: AtomicUsize::new(0),
        }
    }

    fn grew(&self, size: usize) {
        let live = add(&self.live, size);
        if live > self.peak.load(Relaxed) {
            self.peak.store(live, Relaxed);
        }
        add(&self.allocations, 1);
        add(&self.allocated, size);
    }

    fn shrank(&self, size: usize) {
        add(&self.live, size.wrapping_neg());
    }

    fn read(&self) -> Reading {
        Reading {
            peak_live: self.peak.load(Relaxed),
            allocations: self.allocations.load(Relaxed),
            allocated: self.allocated.load(Relaxed),
        }
    }
}

static COUNTERS: Counters = Counters::new();

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            COUNTERS.grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            COUNTERS.grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        COUNTERS.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            COUNTERS.shrank(layout.size());
            COUNTERS.grew(new_size);
        }
        new
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    /// Highest number of bytes allocated at once since process start.
    pub peak_live: usize,
    /// Allocations (and reallocations) made since process start.
    pub allocations: usize,
    /// Bytes those allocations asked for.
    pub allocated: usize,
}

/// The process-wide counters' reading.
pub fn read() -> Reading {
    COUNTERS.read()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_live_peak_and_totals() {
        let c = Counters::new();
        c.grew(10);
        c.grew(5);
        c.shrank(10);
        c.grew(2);
        assert_eq!(c.live.load(Relaxed), 7);
        assert_eq!(
            c.read(),
            Reading {
                peak_live: 15,
                allocations: 3,
                allocated: 17
            }
        );
    }

    #[test]
    fn the_process_allocator_is_counted() {
        // Other tests allocate on their own threads meanwhile, which can
        // only add to (or, rarely, lose) counts: check the direction.
        let before = read();
        let block = std::hint::black_box(vec![1u8; 3 << 20]);
        assert!(read().peak_live >= 3 << 20);
        assert!(read().allocations != before.allocations);
        drop(block);
    }
}
