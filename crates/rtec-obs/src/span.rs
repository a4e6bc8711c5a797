//! Scope timing with per-thread span stacks.
//!
//! A [`SpanGuard`] marks a named region of work on the current thread.
//! Guards nest: the active path (`tick/fluent_eval`, say) is attached
//! to every event emitted while the guard is alive, and a *timed* span
//! records its wall-clock duration into a histogram when dropped.

use crate::metrics::Histogram;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The current thread's span path (`outer/inner`), if any span is open.
pub fn current_path() -> Option<String> {
    STACK.with(|stack| {
        let stack = stack.borrow();
        (!stack.is_empty()).then(|| stack.join("/"))
    })
}

/// An open span; closes (and records, if timed) on drop.
#[must_use = "a span is closed when the guard drops"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    histogram: Option<Arc<Histogram>>,
}

/// Opens an (untimed) span on the current thread.
pub fn span(name: &'static str) -> SpanGuard {
    STACK.with(|stack| stack.borrow_mut().push(name));
    SpanGuard {
        name,
        start: Instant::now(),
        histogram: None,
    }
}

/// Opens a span whose duration is recorded into `histogram`
/// (microseconds) when the guard drops.
pub fn timed_span(name: &'static str, histogram: &Arc<Histogram>) -> SpanGuard {
    let mut guard = span(name);
    guard.histogram = Some(Arc::clone(histogram));
    guard
}

impl SpanGuard {
    /// Elapsed time since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let us = self.elapsed_us();
        if let Some(h) = &self.histogram {
            h.observe(us);
        }
        if crate::event::enabled(crate::event::Level::Debug) {
            crate::event::debug(
                "span.close",
                &[("name", self.name.into()), ("duration_us", us.into())],
            );
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop this span; tolerate out-of-order drops by removing the
            // last occurrence of the name instead of blind-popping.
            if let Some(i) = stack.iter().rposition(|n| *n == self.name) {
                stack.remove(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        assert_eq!(current_path(), None);
        let h = Arc::new(Histogram::new());
        {
            let _outer = span("outer");
            assert_eq!(current_path().as_deref(), Some("outer"));
            {
                let _inner = timed_span("inner", &h);
                assert_eq!(current_path().as_deref(), Some("outer/inner"));
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            assert_eq!(current_path().as_deref(), Some("outer"));
        }
        assert_eq!(current_path(), None);
        assert_eq!(h.count(), 1);
        assert!(h.max() > 0);
    }

    /// Span stacks are per-thread: a span opened on one thread is
    /// invisible to `current_path()` on another, and concurrent stacks
    /// never interleave.
    #[test]
    fn span_stacks_are_thread_isolated() {
        let _outer = span("main_thread");
        assert_eq!(current_path().as_deref(), Some("main_thread"));
        let handle = std::thread::spawn(|| {
            // Fresh thread: no inherited path.
            assert_eq!(current_path(), None);
            let _worker = span("worker");
            assert_eq!(current_path().as_deref(), Some("worker"));
            {
                let _step = span("step");
                assert_eq!(current_path().as_deref(), Some("worker/step"));
            }
            current_path()
        });
        // The worker's spans never leak into this thread's path.
        assert_eq!(current_path().as_deref(), Some("main_thread"));
        assert_eq!(handle.join().unwrap().as_deref(), Some("worker"));
        assert_eq!(current_path().as_deref(), Some("main_thread"));
    }

    /// A `SpanGuard` closes (pops the stack, records its histogram)
    /// even when the scope unwinds via panic — shard workers rely on
    /// this so a panic they recover from leaves no stale span frames.
    #[test]
    fn span_guard_closes_under_unwinding() {
        let h = Arc::new(Histogram::new());
        let h2 = Arc::clone(&h);
        let result = std::panic::catch_unwind(move || {
            let _timed = timed_span("doomed", &h2);
            assert_eq!(current_path().as_deref(), Some("doomed"));
            std::thread::sleep(std::time::Duration::from_micros(200));
            panic!("injected");
        });
        assert!(result.is_err());
        // The unwound guard popped its frame and recorded its duration.
        assert_eq!(current_path(), None);
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 200, "recorded {}us", h.max());
    }

    /// `timed_span` records into the log2 bucket covering its duration:
    /// the single non-empty bucket's `[2^(i-1), 2^i)` range contains the
    /// observed value.
    #[test]
    fn timed_span_records_into_the_right_bucket() {
        use crate::metrics::HistogramSnapshot;
        let h = Arc::new(Histogram::new());
        {
            let _s = timed_span("bucketed", &h);
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
        assert_eq!(h.count(), 1);
        let us = h.max();
        assert!(us >= 300, "slept at least 300us, recorded {us}");
        let snap = h.snapshot();
        let nonzero: Vec<usize> = snap
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonzero.len(), 1, "exactly one bucket recorded: {snap:?}");
        let bucket = nonzero[0];
        assert_eq!(snap.counts[bucket], 1);
        if let Some(upper) = HistogramSnapshot::upper_bound(bucket) {
            assert!(us < upper, "{us}us at or over bucket bound {upper}");
        }
        assert!(bucket >= 1, "a 300us sleep cannot land in bucket 0");
        let floor = HistogramSnapshot::upper_bound(bucket - 1).unwrap();
        assert!(us >= floor, "{us}us under bucket floor {floor}");
    }
}
