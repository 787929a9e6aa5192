//! Open-loop pacing for `pipeline-live`: item `i` is due at
//! `start + i · period`, and is never released before it is due.

use std::time::{Duration, Instant};

/// Waits shorter than this spin instead of calling the idle hook, so the
/// hook cannot push a release far past its due time.
const IDLE_MIN: Duration = Duration::from_nanos(300);

pub struct Pacer {
    start: Instant,
    period_ns: u64,
}

impl Pacer {
    /// `rate` items per second from `start`.
    pub fn new(start: Instant, rate: u64) -> Self {
        Self {
            start,
            period_ns: 1_000_000_000 / rate.max(1),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// When item `i` is due.
    #[inline]
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(i * self.period_ns)
    }

    /// Wait until item `i` is due, calling `idle` while the remaining
    /// wait is long. Returns the release time, which is never before the
    /// due time.
    #[inline]
    pub fn wait(&self, i: u64, mut idle: impl FnMut()) -> Instant {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return now;
            }
            if due - now > IDLE_MIN {
                idle();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_item_leaves_before_it_is_due() {
        let pacer = Pacer::new(Instant::now(), 1_000_000);
        let mut idles = 0u64;
        let mut last = pacer.start();
        for i in 0..20_000u64 {
            let released = pacer.wait(i, || idles += 1);
            assert!(released >= pacer.due(i), "item {i} released early");
            assert!(released >= last, "releases out of order at item {i}");
            last = released;
        }
        // 20k items at 1 M/s take at least 20 ms, and the hook ran while
        // the generator waited.
        assert!(last - pacer.start() >= Duration::from_micros(19_999));
        assert!(idles > 0);
    }

    #[test]
    fn a_slow_hook_delays_but_never_advances_a_release() {
        let pacer = Pacer::new(Instant::now(), 100_000);
        for i in 0..200u64 {
            let released = pacer.wait(i, || std::thread::sleep(Duration::from_micros(30)));
            assert!(released >= pacer.due(i));
        }
    }
}
