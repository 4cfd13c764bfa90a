//! A cycle-counter clock for timing individual calls.
//!
//! Every op (and, in the traced run, every layer call) is timed, so the
//! clock read must cost a few nanoseconds, not the ~20 ns of a vDSO
//! `clock_gettime`. On x86-64 the time-stamp counter is read directly and
//! converted to nanoseconds with a rate calibrated against
//! [`std::time::Instant`] at start-up; elsewhere ticks are nanoseconds
//! since the first read.

use std::time::{Duration, Instant};

/// Reads the tick counter.
#[inline(always)]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no memory effects and is available on every
        // x86-64 CPU.
        #[allow(unused_unsafe)]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Converts tick differences to nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    ticks_per_ns: f64,
}

impl Clock {
    /// Measures the tick rate against the monotonic clock over `window`.
    pub fn calibrate(window: Duration) -> Clock {
        let (t0, i0) = (now(), Instant::now());
        while i0.elapsed() < window {
            std::hint::spin_loop();
        }
        let (t1, elapsed) = (now(), i0.elapsed());
        Clock {
            ticks_per_ns: (t1 - t0) as f64 / elapsed.as_nanos() as f64,
        }
    }

    /// Ticks per nanosecond (1.0 where ticks already are nanoseconds).
    pub fn ticks_per_ns(&self) -> f64 {
        self.ticks_per_ns
    }

    /// `ticks` in nanoseconds.
    pub fn ns(&self, ticks: f64) -> f64 {
        ticks / self.ticks_per_ns
    }

    /// Nanoseconds in ticks.
    pub fn ticks(&self, ns: f64) -> u64 {
        (ns * self.ticks_per_ns) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_clock_tracks_wall_time() {
        let clock = Clock::calibrate(Duration::from_millis(20));
        let (t0, i0) = (now(), Instant::now());
        std::thread::sleep(Duration::from_millis(30));
        let (ticks, wall) = (now() - t0, i0.elapsed().as_nanos() as f64);
        let ratio = clock.ns(ticks as f64) / wall;
        assert!((0.8..1.25).contains(&ratio), "tick clock off by {ratio}");
    }
}
