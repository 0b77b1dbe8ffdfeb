//! The rule that keeps allocation counts single-threaded, held in CI.
//!
//! The chain drivers run the part of their host reference that reads only
//! the drawn tuples on a second thread, beside the simulation
//! (`strom::sim::beside`). That thread must neither allocate nor free: the
//! benchmark counts live bytes with plain loads and stores, which is exact
//! only while one thread allocates at a time. This binary's allocator
//! counts every call made off the test's own thread. Its one test runs
//! both chain drivers at two stream lengths, and the off-thread count must
//! be the same at both, so nothing beside a run allocates per tuple.
//!
//! The binary holds a single test on purpose: a second test would run on
//! a thread of its own and its allocations would count here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use strom::nic::{run_crcverify_shuffle, run_filter_agg_hll, ChainSpec};
use strom::sim::beside;

thread_local! {
    /// Set on the test's own thread.
    static ON_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Allocator calls made on any other thread.
static OFF_THREAD: AtomicU64 = AtomicU64::new(0);

fn count() {
    // `try_with`: a thread being torn down may still free, off the
    // test's thread.
    if !ON_TEST_THREAD.try_with(Cell::get).unwrap_or(false) {
        OFF_THREAD.fetch_add(1, Ordering::Relaxed);
    }
}

/// `System`, with its calls off the test's thread counted.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract. The flag is a
// const-initialized thread-local `Cell` without a destructor and the
// counter is a static atomic: touching either never allocates and never
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls made off the test's thread while `f` runs.
fn off_thread_calls(f: impl FnOnce()) -> u64 {
    let before = OFF_THREAD.load(Ordering::SeqCst);
    f();
    OFF_THREAD.load(Ordering::SeqCst) - before
}

/// Off-thread calls during one run of each chain driver at `tuples`.
fn chain_runs(tuples: usize) -> [u64; 2] {
    let spec = ChainSpec::new(tuples, 7);
    [
        off_thread_calls(|| {
            run_filter_agg_hll(&spec);
        }),
        off_thread_calls(|| {
            run_crcverify_shuffle(&spec);
        }),
    ]
}

#[test]
fn nothing_beside_a_chain_run_allocates_per_tuple() {
    ON_TEST_THREAD.with(|on| on.set(true));

    // The counter sees a helper thread that does allocate: one
    // allocation and one free more than the thread's own start and exit.
    let idle = off_thread_calls(|| beside(|| (), || ()).0);
    let allocating = off_thread_calls(|| {
        beside(|| drop(std::hint::black_box(vec![0u8; 64])), || ());
    });
    assert_eq!(allocating, idle + 2, "an idle helper makes {idle} calls");

    // A first pair of runs takes whatever the process does once.
    chain_runs(20_000);
    let (short, long) = (chain_runs(20_000), chain_runs(80_000));
    println!("off-thread allocator calls per run: {short:?} at 20 000 tuples, {long:?} at 80 000");
    assert_eq!(
        short, long,
        "off-thread allocator calls grew with the stream (filter chain, CRC chain)"
    );
}
