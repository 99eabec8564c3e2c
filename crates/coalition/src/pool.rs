//! Scoped fan-out for the decision front-end.
//!
//! [`run_indexed`] runs a borrowed closure over the indices `0..n` on
//! `max_workers − 1` scoped threads plus the calling thread, all claiming
//! indices from one shared counter. [`std::thread::scope`] joins every
//! helper before returning, so the closure may borrow the caller's stack
//! and a helper's panic is re-raised on the caller. Fan-outs may nest: each
//! call owns its threads.
//!
//! Behind
//! [`CoalitionServer::verify_batch`](crate::server::CoalitionServer::verify_batch)
//! and [`ShardedCoalition::decide_batch`](crate::shard::ShardedCoalition::decide_batch).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Available cores, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f(i)` for every `i in 0..n` on `min(max_workers, n, cores)`
/// threads (the caller is one of them) and returns the results in index
/// order.
///
/// # Panics
///
/// Re-raises any panic that escaped `f`, on the caller's share or a
/// helper's.
pub(crate) fn run_indexed<T, F>(n: usize, max_workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = cores().min(max_workers.max(1)).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let share = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return out;
            }
            out.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(share)).collect();
        let mut place = |pairs: Vec<(usize, T)>| {
            for (i, out) in pairs {
                slots[i] = Some(out);
            }
        };
        place(share());
        for helper in helpers {
            match helper.join() {
                Ok(pairs) => place(pairs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn run_indexed_returns_results_in_order() {
        let base = 7usize;
        // Borrows from the caller's stack — the scope joins every helper.
        let out = run_indexed(100, 4, |i| base + i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, base + i * 2);
        }
    }

    #[test]
    fn run_indexed_caps_workers_and_handles_tiny_inputs() {
        assert!(run_indexed(0, 8, |i| i).is_empty());
        assert_eq!(run_indexed(1, 8, |i| i), vec![0]);
        assert_eq!(run_indexed(3, 1, |i| i * i), vec![0, 1, 4]);
    }

    #[test]
    fn run_indexed_survives_many_batches() {
        for round in 0..50 {
            let out = run_indexed(17, 3, move |i| i + round);
            assert_eq!(out[16], 16 + round);
        }
    }

    #[test]
    fn worker_panic_is_propagated() {
        // One worker panics on the caller's own share; two may panic on
        // either the caller's share or a helper's.
        for workers in [1, 2] {
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_indexed(8, workers, |i| {
                    assert!(i != 5, "boom");
                    i
                })
            }));
            assert!(res.is_err(), "{workers} worker(s)");
        }
        // Fan-outs after a panic run normally.
        assert_eq!(run_indexed(2, 2, |i| i), vec![0, 1]);
    }
}
