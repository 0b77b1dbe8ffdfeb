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
//! The binary has no libtest harness (`harness = false` in the root
//! `Cargo.toml`): the harness keeps threads of its own beside the test,
//! and whatever they allocate, which varies with the host's load, would
//! count here. Its `main` runs the one test on the main thread and speaks
//! just enough of the harness's command line and output for `cargo test`
//! to list, filter and report it by name.

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

fn nothing_beside_a_chain_run_allocates_per_tuple() {
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

/// The test's name, as the harness would report it.
const NAME: &str = "nothing_beside_a_chain_run_allocates_per_tuple";

/// Options of the harness's command line that take a value.
const WITH_VALUE: [&str; 6] = [
    "--test-threads",
    "--format",
    "--color",
    "--logfile",
    "--skip",
    "-Z",
];

fn main() {
    ON_TEST_THREAD.with(|on| on.set(true));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let mut args_left = args.iter().map(String::as_str);
    while let Some(arg) = args_left.next() {
        // An option's value follows it, or is joined to it by '='.
        let (option, joined) = match arg.split_once('=') {
            Some((option, value)) if arg.starts_with('-') => (option, Some(value)),
            _ => (arg, None),
        };
        if WITH_VALUE.contains(&option) {
            let value = joined.or_else(|| args_left.next());
            if option == "--skip" {
                skips.extend(value);
            }
        } else if !arg.starts_with('-') {
            filters.push(arg);
        }
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let matches = |f: &str| {
        if flag("--exact") {
            f == NAME
        } else {
            NAME.contains(f)
        }
    };
    let selected = (filters.is_empty() || filters.iter().any(|f| matches(f)))
        && !skips.iter().any(|s| matches(s))
        && !flag("--ignored");
    if flag("--list") {
        if selected {
            println!("{NAME}: test");
        }
        return;
    }
    let (ran, filtered) = if selected { (1, 0) } else { (0, 1) };
    println!("\nrunning {ran} test{}", if ran == 1 { "" } else { "s" });
    let start = std::time::Instant::now();
    let passed = !selected
        || std::panic::catch_unwind(nothing_beside_a_chain_run_allocates_per_tuple).is_ok();
    if selected {
        let outcome = if passed { "ok" } else { "FAILED" };
        println!("test {NAME} ... {outcome}");
    }
    let (result, failed) = if passed { ("ok", 0) } else { ("FAILED", 1) };
    println!(
        "\ntest result: {result}. {} passed; {failed} failed; 0 ignored; 0 measured; \
         {filtered} filtered out; finished in {:.2}s\n",
        ran - failed,
        start.elapsed().as_secs_f64()
    );
    if !passed {
        std::process::exit(101);
    }
}
