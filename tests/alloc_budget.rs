//! The datapath's allocation budget, held in CI.
//!
//! A counting global allocator forwards to `System` and counts every
//! allocation and reallocation made on the calling thread. A budget is a
//! slope: one scenario run at two lengths, the difference in allocations
//! over the difference in ops, so setup (pinning, table builds, bring-up)
//! does not count — only what each further request or message costs.
//! The budgets sit a small margin above what the datapath spends today;
//! a change that puts an allocation back on a per-packet path fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use strom::nic::cluster_incast::{run_incast, IncastSpec};
use strom::nic::{run_kv_serve, KvSpec, Platform};
use strom::sim::time::{MICROS, SECS};
use strom::sim::EcnConfig;

thread_local! {
    /// Allocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// `System`, counted.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract. The counter is a
// const-initialized thread-local `Cell` without a destructor: touching it
// never allocates and never re-enters the allocator.
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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations per op: `run(ops)` at two lengths, difference over
/// difference.
fn slope(short: usize, long: usize, run: impl Fn(usize)) -> f64 {
    let (a, b) = (allocations(|| run(short)), allocations(|| run(long)));
    (b as f64 - a as f64) / (long - short) as f64
}

/// The `kv_serve` benchmark workload's tier, on a smaller shard: 4
/// servers, 4 clients, Zipf 0.99, 70 % GETs and 20 % PUTs of 64 B
/// values at 1 M requests/s.
fn kv_serve(requests: usize) {
    let mean_gap = SECS / 1_000_000;
    let mut spec = KvSpec::new(4, 4, mean_gap, 7);
    spec.platform = Platform::HundredGig;
    spec.keys_per_server = 256;
    spec.primary_entries = 64;
    spec.requests = requests;
    let out = run_kv_serve(&spec);
    assert_eq!(out.completed, requests as u64, "every request served");
}

/// The `incast_writes` benchmark workload's shape, shorter: 16 senders
/// of 8 KiB WRITEs under DCQCN with step-16 ECN marking.
fn incast(messages_per_sender: usize) {
    let mut spec = IncastSpec::new(16, 2, 7);
    spec.platform = Platform::HundredGig;
    spec.messages_per_sender = messages_per_sender;
    spec.switch.egress_capacity = 256;
    spec.switch.ecn = Some(EcnConfig::step(16));
    spec.cc = true;
    spec.retransmit_timeout = Some(1_000 * MICROS);
    let out = run_incast(&spec);
    let bytes: u64 = out.per_sender_bytes.iter().sum();
    assert_eq!(bytes, (16 * messages_per_sender) as u64 * (8 << 10));
}

#[test]
fn kv_serve_allocates_at_most_11_times_per_request() {
    let per_request = slope(1_000, 3_000, kv_serve);
    println!("kv_serve: {per_request:.2} allocations per request");
    assert!(
        per_request <= 11.0,
        "{per_request:.2} allocations per request"
    );
}

#[test]
fn incast_allocates_at_most_14_times_per_message() {
    // Past the first few messages, once DCQCN has settled.
    let per_message = slope(40, 120, incast) / 16.0;
    println!("incast: {per_message:.2} allocations per message");
    assert!(
        per_message <= 14.0,
        "{per_message:.2} allocations per message"
    );
}
