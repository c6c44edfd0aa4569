//! Monotonic timing: a [`Timer`] wraps [`std::time::Instant`].

/// A monotonic stopwatch started at construction.
///
/// ```
/// let t = certus::obs::Timer::start();
/// let _ns = t.elapsed_ns();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: std::time::Instant,
}

impl Timer {
    /// Start the stopwatch.
    #[inline]
    pub fn start() -> Timer {
        Timer { start: std::time::Instant::now() }
    }

    /// Nanoseconds elapsed since [`Timer::start`], saturated to `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Render a nanosecond quantity human-readably (`412ns`, `3.1µs`, `12.4ms`,
/// `1.07s`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotone() {
        let t = Timer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(3_100), "3.1µs");
        assert_eq!(fmt_ns(12_400_000), "12.4ms");
        assert_eq!(fmt_ns(1_070_000_000), "1.07s");
    }
}
