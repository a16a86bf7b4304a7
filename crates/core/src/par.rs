//! Tiny data-parallel helper for per-node round computation.
//!
//! Protocol drivers run every node's round-`k` computation before any
//! node's round-`k+1` (lockstep rounds, exactly the paper's model). Within
//! a round the nodes are independent, so the driver fans the slice of node
//! states across scoped threads — on the big sweeps (`n = 500`, SSN's
//! `2n+4` exponentiations per node) this is the difference between minutes
//! and seconds of wall-clock.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every element, in parallel across up to
/// [`worker_count`] scoped threads. Indexes are the element positions.
///
/// Work is distributed by atomic work-stealing counter rather than fixed
/// chunks: protocol roles are asymmetric (the controller does more), so
/// static chunking would leave threads idle.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = worker_count().min(items.len().max(1));
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    // Hand out &mut T cells through a Vec of Options guarded by the atomic
    // ticket: each index is claimed exactly once, so the unsafe-free way is
    // to wrap items in Mutexes — but that serializes nothing here since
    // each lock is taken once. parking_lot would do; std Mutex suffices.
    let cells: Vec<std::sync::Mutex<&mut T>> =
        items.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let mut guard = cells[i].lock().expect("ticketed lock is uncontended");
                    f(i, &mut guard);
                })
            })
            .collect();
        // Join every worker, then re-raise the first panic with its own
        // payload: left to `scope`, it would become "a scoped thread
        // panicked" and lose the message callers (and tests) match on.
        let mut first_panic = None;
        for worker in workers {
            if let Err(payload) = worker.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });
}

/// Number of worker threads used for per-node fan-out (the machine's
/// available parallelism, falling back to 1).
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_to_every_element_once() {
        let mut v: Vec<u64> = (0..1000).collect();
        par_for_each_mut(&mut v, |i, x| {
            assert_eq!(*x, i as u64);
            *x += 1;
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));
    }

    #[test]
    fn handles_empty_and_single() {
        let mut empty: Vec<u32> = vec![];
        par_for_each_mut(&mut empty, |_, _| unreachable!());
        let mut one = vec![7u32];
        par_for_each_mut(&mut one, |_, x| *x = 8);
        assert_eq!(one, vec![8]);
    }

    #[test]
    #[should_panic(expected = "worker 3 failed")]
    fn worker_panic_keeps_its_payload() {
        let mut v = vec![0u8; 16];
        par_for_each_mut(&mut v, |i, _| assert!(i != 3, "worker {i} failed"));
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Element 0 is much heavier; the ticket counter keeps other threads
        // busy with the rest. (Correctness check, not a timing assertion.)
        let mut v = vec![0u64; 64];
        par_for_each_mut(&mut v, |i, x| {
            let spins = if i == 0 { 100_000 } else { 100 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k);
            }
            *x = acc;
        });
        assert!(v.iter().all(|&x| x > 0));
    }
}
