//! Periodic background threads that stop at once.
//!
//! The `--progress` reporter, the run-journal recorder and a fleet
//! worker's lease renewal each run a loop on a side thread at a fixed
//! cadence. A [`Heartbeat`] owns such a thread: its body waits between
//! beats on a stop channel ([`Pulse::wait`]), so stopping the heartbeat
//! drops the channel's sender and wakes the thread immediately instead
//! of after the rest of a period.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A side thread beating every period until stopped or dropped.
pub(crate) struct Heartbeat {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

/// What a heartbeat's body waits on between beats.
pub(crate) struct Pulse {
    stop: Receiver<()>,
    period: Duration,
}

impl Pulse {
    /// Waits one period. `false` once the heartbeat was stopped — at
    /// the moment it was stopped, not at the end of the period.
    pub(crate) fn wait(&self) -> bool {
        matches!(
            self.stop.recv_timeout(self.period),
            Err(RecvTimeoutError::Timeout)
        )
    }
}

impl Heartbeat {
    /// Runs `body` on a new thread; the body beats and calls
    /// [`Pulse::wait`] between beats, returning when it says `false`.
    pub(crate) fn start(period: Duration, body: impl FnOnce(Pulse) + Send + 'static) -> Heartbeat {
        let (stop, rx) = channel();
        let thread = std::thread::spawn(move || body(Pulse { stop: rx, period }));
        Heartbeat {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Wakes the thread and waits for its body to return. Idempotent.
    pub(crate) fn stop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn stopping_wakes_a_long_period_at_once() {
        let beats = Arc::new(AtomicUsize::new(0));
        let mut heartbeat = {
            let beats = Arc::clone(&beats);
            Heartbeat::start(Duration::from_secs(3600), move |pulse| loop {
                beats.fetch_add(1, Ordering::Relaxed);
                if !pulse.wait() {
                    break;
                }
            })
        };
        while beats.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let start = Instant::now();
        heartbeat.stop();
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "stop waited out the period"
        );
        assert_eq!(beats.load(Ordering::Relaxed), 1);
        heartbeat.stop();
    }

    #[test]
    fn short_periods_keep_beating() {
        let beats = Arc::new(AtomicUsize::new(0));
        let heartbeat = {
            let beats = Arc::clone(&beats);
            Heartbeat::start(Duration::from_millis(1), move |pulse| loop {
                beats.fetch_add(1, Ordering::Relaxed);
                if !pulse.wait() {
                    break;
                }
            })
        };
        while beats.load(Ordering::Relaxed) < 3 {
            std::thread::yield_now();
        }
        drop(heartbeat);
    }
}
