//! The fleet's two worker pools: a bounded batched job queue for
//! campaigns whose backlog changes mid-run, and [`par_map_ordered`] for
//! fixed batches.
//!
//! [`FleetQueue`]: the coordinator pushes jobs into a bounded
//! *injector*; each worker drains a private local deque, refilling it in
//! batches from the injector. The local deques sit behind the same lock
//! as the injector, so every [`FleetQueue::next`] takes that lock;
//! batching only saves `not_full` wake-ups of a blocked coordinator. Its
//! cost is that one worker can hold up to `batch - 1` unstarted jobs that
//! idle workers cannot take. The queue is dynamic because the coordinator
//! re-queues evicted boards while the run is in flight, and a dying
//! worker hands its batch back.
//!
//! The queue only decides *which worker runs which job when* — job
//! results are pure functions of the job, and the aggregation layer
//! sorts before folding — so none of the (intentionally racy) dispatch
//! order here can leak into campaign output.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;

/// Maps `f` over `items` on a pool of scoped threads and returns the
/// results in input order.
///
/// Runs `workers.clamp(1, items.len().max(1))` threads, each claiming
/// the next unclaimed index until none is left, so a slow item never
/// holds up a fixed share of the others. Work runs on spawned threads
/// even for one worker, so `f` never reports into the caller's
/// thread-local telemetry context. Results are reassembled by index,
/// so which worker ran which item never shows in the output.
///
/// # Panics
///
/// A panic in `f` propagates to the caller with its original payload.
pub fn par_map_ordered<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Counters describing how work actually flowed through the queue.
/// Execution-side diagnostics only: never part of deterministic output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs pushed by the coordinator.
    pub pushed: u64,
    /// Batch refills from the injector into a worker's local deque.
    pub batches: u64,
    /// Jobs surrendered back to the injector by retiring workers.
    pub returned: u64,
}

#[derive(Debug)]
struct Shared<T> {
    injector: VecDeque<T>,
    locals: Vec<VecDeque<T>>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded multi-producer batched job queue for `workers` consumers.
#[derive(Debug)]
pub struct FleetQueue<T> {
    shared: Mutex<Shared<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    batch: usize,
}

impl<T> FleetQueue<T> {
    /// Creates a queue for `workers` consumers with a bounded injector.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `capacity` or `batch` is zero.
    pub fn new(workers: usize, capacity: usize, batch: usize) -> Self {
        assert!(workers > 0, "queue needs at least one worker");
        assert!(capacity > 0, "queue needs positive capacity");
        assert!(batch > 0, "dispatch batch must be positive");
        FleetQueue {
            shared: Mutex::new(Shared {
                injector: VecDeque::new(),
                locals: (0..workers).map(|_| VecDeque::new()).collect(),
                closed: false,
                stats: QueueStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            batch,
        }
    }

    /// Pushes one job, blocking while the injector is at capacity.
    /// Pushing after [`close`](Self::close) is a no-op (the job is
    /// dropped); the orchestrator never does this.
    pub fn push(&self, job: T) {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        while shared.injector.len() >= self.capacity && !shared.closed {
            shared = self.not_full.wait(shared).expect("fleet queue poisoned");
        }
        if shared.closed {
            return;
        }
        shared.injector.push_back(job);
        shared.stats.pushed += 1;
        drop(shared);
        self.not_empty.notify_all();
    }

    /// Takes the next job for `worker`, blocking until one is available
    /// or the queue is closed and fully drained (then `None`).
    ///
    /// Preference order: own local deque, then a batch refill from the
    /// injector.
    pub fn next(&self, worker: usize) -> Option<T> {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        loop {
            if let Some(job) = shared.locals[worker].pop_front() {
                return Some(job);
            }
            if !shared.injector.is_empty() {
                let take = self.batch.min(shared.injector.len());
                let Shared {
                    injector, locals, ..
                } = &mut *shared;
                locals[worker].extend(injector.drain(..take));
                shared.stats.batches += 1;
                self.not_full.notify_all();
                continue;
            }
            if shared.closed {
                return None;
            }
            shared = self.not_empty.wait(shared).expect("fleet queue poisoned");
        }
    }

    /// Retires `worker`: the rest of its batch goes back to the *front*
    /// of the injector exactly once, preserving dispatch order, and other
    /// workers are woken to pick the returned items up. A retired
    /// worker that calls [`next`](Self::next) again just competes for
    /// work normally (its deque is empty, not poisoned); the
    /// orchestrator's dead-worker path never does.
    ///
    /// Returns how many items the dying worker surrendered.
    pub fn retire(&self, worker: usize) -> usize {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        let held = std::mem::take(&mut shared.locals[worker]);
        let returned = held.len();
        // Front-of-injector, original order: the first surrendered item
        // was the next one the worker would have run.
        for job in held.into_iter().rev() {
            shared.injector.push_front(job);
        }
        shared.stats.returned += returned as u64;
        drop(shared);
        if returned > 0 {
            self.not_empty.notify_all();
        }
        returned
    }

    /// Closes the queue: blocked consumers drain the remaining jobs and
    /// then observe `None`; blocked producers unblock.
    pub fn close(&self) {
        let mut shared = self.shared.lock().expect("fleet queue poisoned");
        shared.closed = true;
        drop(shared);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current flow counters.
    pub fn stats(&self) -> QueueStats {
        self.shared.lock().expect("fleet queue poisoned").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn drains_in_fifo_order_for_a_single_worker() {
        let queue = FleetQueue::new(1, 8, 3);
        for job in 0..5 {
            queue.push(job);
        }
        queue.close();
        let drained: Vec<i32> = std::iter::from_fn(|| queue.next(0)).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        let stats = queue.stats();
        assert_eq!(stats.pushed, 5);
        assert!(stats.batches >= 2, "batch of 3 needs two refills");
    }

    #[test]
    fn close_unblocks_an_idle_consumer() {
        let queue = Arc::new(FleetQueue::<u32>::new(2, 4, 2));
        let waiter = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.next(1))
        };
        queue.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn a_bounded_injector_backpressures_the_producer() {
        let queue = Arc::new(FleetQueue::new(1, 2, 1));
        queue.push(1);
        queue.push(2);
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || queue.push(3)) // blocks: injector full
        };
        assert_eq!(queue.next(0), Some(1));
        producer.join().unwrap();
        queue.close();
        assert_eq!(queue.next(0), Some(2));
        assert_eq!(queue.next(0), Some(3));
        assert_eq!(queue.next(0), None);
    }

    #[test]
    fn a_retiring_worker_returns_its_batch_exactly_once() {
        let queue = FleetQueue::new(2, 16, 4);
        for job in 0..8 {
            queue.push(job);
        }
        queue.close();
        // Worker 0 refills with jobs 0..4 and worker 1 with 4..8; worker 1
        // then dies holding the rest of its batch.
        assert_eq!(queue.next(0), Some(0));
        assert_eq!(queue.next(1), Some(4));
        assert_eq!(queue.retire(1), 3, "the dead worker held 5, 6 and 7");
        assert_eq!(queue.stats().returned, 3);
        // Retiring again surrenders nothing: the return happened once.
        assert_eq!(queue.retire(1), 0);
        assert_eq!(queue.stats().returned, 3);
        // The survivor finishes its own batch, then finds the surrendered
        // one at the front of the injector, in order — none lost, none
        // duplicated.
        let drained: Vec<i32> = std::iter::from_fn(|| queue.next(0)).collect();
        assert_eq!(drained, vec![1, 2, 3, 5, 6, 7]);
    }

    #[test]
    fn par_map_ordered_matches_a_sequential_map() {
        for len in [0u64, 1, 37] {
            let items: Vec<u64> = (0..len).collect();
            // Uneven item costs, so workers finish out of input order.
            let f = |&x: &u64| (0..(x % 5) * 1000).fold(x, |acc, k| acc.wrapping_mul(31) ^ k);
            let expected: Vec<u64> = items.iter().map(f).collect();
            for workers in [1, 2, 8] {
                assert_eq!(par_map_ordered(workers, &items, f), expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panic_inside_par_map_ordered_reaches_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        par_map_ordered(2, &items, |&x| {
            assert_ne!(x, 5, "item 5 failed");
            x
        });
    }

    #[test]
    fn retiring_an_idle_worker_is_a_no_op() {
        let queue = FleetQueue::<u32>::new(2, 4, 2);
        assert_eq!(queue.retire(0), 0);
        assert_eq!(queue.stats().returned, 0);
    }

    #[test]
    fn all_jobs_arrive_exactly_once_under_contention() {
        let workers = 4;
        let queue = Arc::new(FleetQueue::new(workers, 8, 2));
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(job) = queue.next(w) {
                        seen.push(job);
                    }
                    seen
                })
            })
            .collect();
        for job in 0..200u32 {
            queue.push(job);
        }
        queue.close();
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }
}
