//! Bounded MPMC channels with explicit backpressure, mirroring the
//! `crossbeam-channel` API surface the workspace uses: `bounded`,
//! `unbounded`, `Sender::send`/`try_send`, `Receiver::recv`/`try_recv`/
//! `recv_timeout`, and the matching error types.
//!
//! Implementation: a `VecDeque` under a mutex with two condvars (readers
//! wait on `not_empty`, writers on `not_full`). Disconnection is tracked
//! with sender/receiver reference counts. As in `crossbeam-channel`,
//! dropping the last receiver drops every message still queued, so
//! whatever those messages own (a reply `Sender`, say) is released.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity; the caller owns the message again.
    Full(T),
    /// Every receiver was dropped.
    Disconnected(T),
}

/// Error returned by [`Sender::send`] when every receiver was dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`]: the channel is empty and every
/// sender was dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and every sender was dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and every sender was dropped.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// `None` capacity = unbounded.
    capacity: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// The sending half of a channel. Clonable (multi-producer).
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half of a channel. Clonable (multi-consumer).
pub struct Receiver<T>(Arc<Shared<T>>);

/// Creates a bounded channel of the given capacity (> 0).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "bounded channel capacity must be positive");
    make(Some(cap))
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make(None)
}

fn make<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(shared.clone()), Receiver(shared))
}

impl<T> Sender<T> {
    /// Sends, blocking while the channel is full.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.0.state.lock().unwrap();
        loop {
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            match self.0.capacity {
                Some(cap) if state.queue.len() >= cap => {
                    state = self.0.not_full.wait(state).unwrap();
                }
                _ => break,
            }
        }
        state.queue.push_back(msg);
        drop(state);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Attempts to send without blocking; a `Full` result is the
    /// backpressure signal.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut state = self.0.state.lock().unwrap();
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if let Some(cap) = self.0.capacity {
            if state.queue.len() >= cap {
                return Err(TrySendError::Full(msg));
            }
        }
        state.queue.push_back(msg);
        drop(state);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.0.state.lock().unwrap().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Receives, blocking while the channel is empty.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.0.state.lock().unwrap();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.0.not_empty.wait(state).unwrap();
        }
    }

    /// Attempts to receive without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.0.state.lock().unwrap();
        if let Some(msg) = state.queue.pop_front() {
            drop(state);
            self.0.not_full.notify_one();
            return Ok(msg);
        }
        if state.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Receives, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.0.state.lock().unwrap();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                drop(state);
                self.0.not_full.notify_one();
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (s, _) = self
                .0
                .not_empty
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = s;
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.0.state.lock().unwrap().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.0.state.lock().unwrap().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.0.state.lock().unwrap().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap();
        state.senders -= 1;
        if state.senders == 0 {
            drop(state);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap();
        state.receivers -= 1;
        if state.receivers == 0 {
            // Nobody can receive these any more; drop them outside the
            // lock, since a message's destructor may touch other channels.
            let undelivered = std::mem::take(&mut state.queue);
            drop(state);
            self.0.not_full.notify_all();
            drop(undelivered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_backpressure_and_fifo() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_is_observable() {
        let (tx, rx) = bounded::<i32>(1);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn dropping_the_last_receiver_drops_queued_messages() {
        let (reply_tx, reply_rx) = bounded::<i32>(1);
        let (tx, rx) = bounded(2);
        assert!(tx.send(reply_tx).is_ok());
        let extra = rx.clone();
        drop(rx);
        assert_eq!(
            reply_rx.try_recv(),
            Err(TryRecvError::Empty),
            "one receiver is left"
        );
        drop(extra);
        assert_eq!(
            reply_rx.recv(),
            Err(RecvError),
            "the queued sender was dropped"
        );
    }

    #[test]
    fn blocking_send_wakes_on_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = bounded::<i32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
