//! Deterministic fan-out across OS threads for embarrassingly parallel
//! sweeps (multi-seed chaos soaks, multi-point figure experiments), and
//! one helper thread beside a single run ([`beside`]).
//!
//! Each item runs one fully independent simulation — its own testbed,
//! its own seeded RNG, no shared mutable state — so host-side scheduling
//! cannot perturb simulated time. [`parallel_map`] only changes *when*
//! (in wall-clock) each item runs, never *what* it computes, and results
//! are returned in input order, so a parallel sweep's output is
//! bit-identical to running the same closure in a sequential loop.

use std::sync::{Condvar, Mutex};

/// Maps `f` over `items` on up to `max_workers` scoped threads,
/// returning results in input order.
///
/// The closure must be self-contained per item (the usual shape: build a
/// simulation from a seed, run it, return its report). Workers take
/// `(index, item)` pairs one at a time from a shared iterator and hand
/// back their `(index, result)` pairs when they finish; results are put
/// in index order after the join, so thread count and scheduling affect
/// only wall-clock time. The one lock is held for a single `next()` per
/// item, and an item is a whole simulation. A panic in any worker
/// propagates to the caller once every worker has stopped; unclaimed
/// items and finished results are dropped, not leaked.
///
/// With one worker (or one item) this degenerates to a plain sequential
/// loop on the calling thread — handy for determinism A/B tests.
pub fn parallel_map<T, R, F>(items: Vec<T>, max_workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = max_workers.max(1).min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let worker = || {
        let mut done = Vec::new();
        loop {
            // The guard is a temporary: released before `f` runs.
            let next = queue
                .lock()
                .expect("no panic can happen under the lock: only `next()` runs there")
                .next();
            let Some((i, item)) = next else { break done };
            done.push((i, f(item)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut done = Vec::with_capacity(n);
    for worker_done in joined {
        match worker_done {
            Ok(pairs) => done.extend(pairs),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A sensible worker count for [`parallel_map`]: the machine's available
/// parallelism, bounded so sweeps do not oversubscribe small CI runners.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs `side` on a scoped helper thread while `main` runs on the
/// calling thread, and returns both results.
///
/// This is for work beside one simulation that must not run inside it —
/// a driver's host reference, say — while the simulation keeps its one
/// thread. The helper is started first, and `main` begins only once the
/// helper has signalled that it runs, so the thread's start-up happens
/// while the caller waits. After `main` returns (or unwinds), a drop
/// guard releases the helper, and only then is it joined: its exit, too,
/// happens while the caller waits. A panic in `main` therefore cannot
/// leave the helper waiting; it re-raises once the helper is joined. A
/// panic in `side` re-raises after `main` returns.
///
/// The borrow checker keeps `side` off whatever `main` mutates, so each
/// result depends only on its own inputs, exactly as if the two ran one
/// after the other. `side` must neither allocate nor free: size its
/// buffers on the caller first and lend them to it. Then every allocator
/// call during `main` stays on the calling thread, which keeps a
/// single-threaded allocation count (the benchmark's live-byte counter)
/// exact.
///
/// ```
/// let values: Vec<u64> = (0..1_000).collect();
/// let (sum, len) = strom_sim::beside(|| values.iter().sum::<u64>(), || values.len());
/// assert_eq!((sum, len), (499_500, 1_000));
/// ```
pub fn beside<A, B, S, M>(side: S, main: M) -> (A, B)
where
    A: Send,
    S: FnOnce() -> A + Send,
    M: FnOnce() -> B,
{
    let (mut side, mut main) = (Some(side), Some(main));
    let (mut a, mut b) = (None, None);
    let mut run_side = || a = side.take().map(|f| f());
    let mut run_main = || b = main.take().map(|f| f());
    beside_dyn(&mut run_side, &mut run_main);
    (a.expect("side ran once"), b.expect("main ran once"))
}

/// [`beside`] behind trait objects, so the thread machinery is compiled
/// once, here, and not into every caller. Generic all the way down, it
/// put `std`'s thread-spawn code into `strom-nic`, which changed how the
/// compiler split and inlined that crate's event loop; `kv_serve`, which
/// never calls `beside`, lost about 9 % of its wall time to that.
fn beside_dyn(side: &mut (dyn FnMut() + Send), main: &mut dyn FnMut()) {
    let (started, released) = (Gate::new(), Gate::new());
    std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            started.open();
            side();
            released.wait();
        });
        started.wait();
        {
            let _release = OpenOnDrop(&released);
            main();
        }
        if let Err(panic) = helper.join() {
            std::panic::resume_unwind(panic);
        }
    });
}

const UNPOISONED: &str = "no panic can happen under a gate's lock: only a flag is read or set";

/// A one-shot latch: once opened, every wait returns.
struct Gate {
    open: Mutex<bool>,
    changed: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            open: Mutex::new(false),
            changed: Condvar::new(),
        }
    }

    fn open(&self) {
        *self.open.lock().expect(UNPOISONED) = true;
        self.changed.notify_all();
    }

    fn wait(&self) {
        let open = self.open.lock().expect(UNPOISONED);
        let _open = self.changed.wait_while(open, |open| !*open);
    }
}

/// Opens its gate when dropped, on return and on unwind alike.
struct OpenOnDrop<'a>(&'a Gate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        let out = parallel_map((0..100u64).collect(), 8, |i| i * i);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn matches_the_sequential_loop_bit_for_bit() {
        // Per-item deterministic work (a seeded RNG stream) must not be
        // perturbed by which worker runs it.
        let work = |seed: u64| {
            let mut rng = crate::SimRng::seed(seed);
            (0..1000)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let seeds: Vec<u64> = (0..24).collect();
        let sequential: Vec<u64> = seeds.iter().map(|&s| work(s)).collect();
        let parallel = parallel_map(seeds, 6, work);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn many_more_items_than_workers_are_each_mapped_exactly_once() {
        // Every worker goes back to the queue thousands of times; every
        // item must be mapped exactly once and come back in its own place.
        let out = parallel_map((0..10_000u64).collect(), 4, |i| i + 1);
        assert_eq!(out, (1..=10_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn non_copy_items_and_results_round_trip() {
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let expect: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        let out = parallel_map(items, 3, |s| format!("{s}!"));
        assert_eq!(out, expect);
    }

    #[test]
    fn single_worker_and_empty_inputs_degenerate() {
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |i| i + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(Vec::<u64>::new(), 8, |i| i), Vec::<u64>::new());
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(vec![0u64, 1, 2, 3], 2, |i| {
                assert_ne!(i, 2, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }

    /// Counts its own drops in the slot it was handed.
    struct Counted<'a>(&'a AtomicUsize);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_worker_panic_drops_every_item_and_result_exactly_once() {
        const N: usize = 16;
        let counters = || (0..N).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>();
        let (item_drops, result_drops, produced) = (counters(), counters(), counters());
        let items: Vec<_> = item_drops.iter().map(Counted).enumerate().collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(items, 3, |(i, _item)| {
                assert_ne!(i, 5, "boom");
                produced[i].fetch_add(1, Ordering::SeqCst);
                Counted(&result_drops[i])
            })
        }));
        assert!(caught.is_err());
        for i in 0..N {
            let count = |c: &[AtomicUsize]| c[i].load(Ordering::SeqCst);
            assert_eq!(count(&item_drops), 1, "item {i}");
            assert_eq!(count(&result_drops), count(&produced), "result {i}");
        }
        assert_eq!(produced[5].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn beside_returns_both_results() {
        let values: Vec<u64> = (1..=100).collect();
        let mut squares = vec![0u64; values.len()];
        let (sum, len) = beside(
            || {
                for (square, v) in squares.iter_mut().zip(&values) {
                    *square = v * v;
                }
                values.iter().sum::<u64>()
            },
            || values.len(),
        );
        assert_eq!((sum, len), (5_050, 100));
        assert_eq!(squares.iter().sum::<u64>(), 338_350);
    }

    #[test]
    fn side_runs_while_main_runs() {
        // `main` waits for a flag only `side` sets: a helper that ran
        // before or after `main` instead of beside it would never set it
        // in time.
        let flag = AtomicUsize::new(0);
        let ((), seen) = beside(
            || flag.store(1, Ordering::SeqCst),
            || {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while flag.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                flag.load(Ordering::SeqCst)
            },
        );
        assert_eq!(seen, 1);
    }

    #[test]
    fn a_panic_in_main_releases_the_helper_and_re_raises() {
        let side_ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            beside(
                || {
                    side_ran.fetch_add(1, Ordering::SeqCst);
                },
                || panic!("main failed"),
            )
        }));
        let payload = caught.expect_err("main's panic must re-raise");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"main failed"));
        assert_eq!(side_ran.load(Ordering::SeqCst), 1, "the helper was joined");
    }

    #[test]
    fn a_panic_in_side_re_raises_after_main_returns() {
        let main_returned = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            beside(
                || panic!("side failed"),
                || {
                    main_returned.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let payload = caught.expect_err("side's panic must re-raise");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"side failed"));
        assert_eq!(main_returned.load(Ordering::SeqCst), 1);
    }
}
