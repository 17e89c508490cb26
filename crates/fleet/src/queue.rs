//! The fleet's two worker pools: [`FleetQueue`], one bounded FIFO for
//! work that arrives while the pool runs, and [`par_map_ordered`] for a
//! fixed set of items.
//!
//! [`FleetQueue`] is a `Mutex` over a `VecDeque` and a closed flag, with
//! one condvar for "not empty" and one for "not full". Every
//! [`FleetQueue::next`] pops the front item, so no consumer ever holds
//! an item another could run. The fleet coordinator pushes jobs into an
//! unbounded one (it holds every pending job anyway, and a push must
//! never wait on workers that may all have died), re-queues evicted
//! boards while the run is in flight, and re-queues the one job a dying
//! worker held. The control plane's acceptor queues connections in one
//! with [`FleetQueue::try_push`], which hands a connection back when the
//! queue is full so the acceptor can shed it.
//!
//! The queue only decides *which worker runs which job when* — job
//! results are pure functions of the job, and the aggregation layer
//! sorts before folding — so none of the (intentionally racy) dispatch
//! order here can leak into campaign output.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

#[derive(Debug)]
struct Shared<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer, multi-consumer FIFO.
///
/// A push or a pop changes the queue by one item, so it wakes one waiter
/// on the other side; [`close`](Self::close) wakes every waiter.
#[derive(Debug)]
pub struct FleetQueue<T> {
    shared: Mutex<Shared<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> FleetQueue<T> {
    /// Creates a queue that holds at most `capacity` items.
    ///
    /// `_workers` and `_batch` do nothing: any consumer takes the front
    /// item. They stay so the benchmark package keeps compiling; the next
    /// change to the benchmark removes them.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(_workers: usize, capacity: usize, _batch: usize) -> Self {
        assert!(capacity > 0, "queue needs positive capacity");
        FleetQueue {
            shared: Mutex::new(Shared {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Every critical section leaves the deque and the flag whole, so a
    /// panic that poisoned the lock left nothing half-updated.
    fn lock(&self) -> MutexGuard<'_, Shared<T>> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `item`, blocking while the queue holds `capacity` items.
    /// After [`close`](Self::close) the item is dropped; the
    /// orchestrator never pushes after closing.
    pub fn push(&self, item: T) {
        let mut shared = self
            .not_full
            .wait_while(self.lock(), |s| s.items.len() >= self.capacity && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        if !shared.closed {
            shared.items.push_back(item);
            drop(shared);
            self.not_empty.notify_one();
        }
    }

    /// Appends `item` without blocking, or hands it back when the queue
    /// is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut shared = self.lock();
        if shared.closed || shared.items.len() >= self.capacity {
            return Err(item);
        }
        shared.items.push_back(item);
        drop(shared);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pops the front item, blocking until one arrives; `None` once the
    /// queue is closed and empty. `_worker` does nothing and goes with
    /// the next change to the benchmark, like [`new`](Self::new)'s
    /// `_workers` and `_batch`.
    pub fn next(&self, _worker: usize) -> Option<T> {
        let mut shared = self
            .not_empty
            .wait_while(self.lock(), |s| s.items.is_empty() && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        let item = shared.items.pop_front();
        drop(shared);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: consumers drain the remaining items and then
    /// get `None`; blocked producers return.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
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
    }

    #[test]
    fn an_idle_worker_takes_the_next_queued_job() {
        let queue = FleetQueue::new(2, 16, 4);
        for job in 0..8 {
            queue.push(job);
        }
        queue.close();
        // No worker holds jobs it has not started: worker 1 gets the job
        // right behind worker 0's.
        assert_eq!(queue.next(0), Some(0));
        assert_eq!(queue.next(1), Some(1));
    }

    #[test]
    fn try_push_hands_the_item_back_when_full_or_closed() {
        let queue = FleetQueue::new(1, 2, 1);
        assert_eq!(queue.try_push(1), Ok(()));
        assert_eq!(queue.try_push(2), Ok(()));
        assert_eq!(queue.try_push(3), Err(3), "full");
        assert_eq!(queue.next(0), Some(1));
        assert_eq!(queue.try_push(3), Ok(()), "a pop frees a slot");
        queue.close();
        assert_eq!(queue.try_push(4), Err(4), "closed");
        let drained: Vec<i32> = std::iter::from_fn(|| queue.next(0)).collect();
        assert_eq!(drained, vec![2, 3]);
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
