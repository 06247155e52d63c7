//! Offline shim for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel`'s multi-producer **multi-consumer**
//! unbounded channel — the property the worker pool relies on that
//! `std::sync::mpsc` does not offer (std receivers cannot be cloned).
//! Implemented as a `Mutex<VecDeque>` + `Condvar`; throughput is far below
//! the real crossbeam but the blocking/disconnection semantics match.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The channel stayed empty for the whole timeout.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on an empty channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// The sending half; clonable across threads.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; clonable across threads (multi-consumer).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only if all receivers are dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut q = self
                .chan
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            q.push_back(value);
            drop(q);
            self.chan.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake all blocked receivers so they observe
                // the disconnection. A receiver checks `senders` and goes
                // to sleep under the queue lock, so taking that lock
                // first orders this wake-up after any receiver that saw a
                // live sender is asleep; notifying without it can land in
                // between and leave that receiver blocked forever.
                drop(
                    self.chan
                        .queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner),
                );
                self.chan.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues a value, blocking while the channel is empty; fails
        /// once it is empty *and* all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self
                .chan
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self
                    .chan
                    .ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Dequeues a value, blocking at most `timeout` while the channel
        /// is empty. Distinguishes an elapsed timeout from disconnection
        /// (all senders gone), matching crossbeam's semantics.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut q = self
                .chan
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.chan.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, wait) = self
                    .chan
                    .ready
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
                if wait.timed_out() && q.is_empty() {
                    if self.chan.senders.load(Ordering::Acquire) == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Non-blocking dequeue.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self
                .chan
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.chan.senders.load(Ordering::Acquire) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Blocking iterator over received values; ends on disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError, TryRecvError};

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnection_is_observed() {
        let (tx, rx) = unbounded::<i32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn multiple_consumers_partition_the_stream() {
        let (tx, rx) = unbounded::<u32>();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().count())
            })
            .collect();
        drop(rx);
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = workers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }
}
