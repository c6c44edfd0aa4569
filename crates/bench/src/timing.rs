//! Small timing utilities shared by the experiment binaries.

use std::time::Instant;

/// Time a closure, returning its result and the elapsed seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run a closure `reps` times and return the mean elapsed seconds of the runs.
pub fn time_mean<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps > 0);
    let mut total = 0.0;
    for _ in 0..reps {
        let (_, t) = time(&mut f);
        total += t;
    }
    total / reps as f64
}

/// Format a ratio compactly (scientific notation below 0.01).
pub fn fmt_ratio(r: f64) -> String {
    if r < 0.01 {
        format!("{r:.1e}")
    } else {
        format!("{r:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_result_and_duration() {
        let (v, t) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn time_mean_averages() {
        let t = time_mean(3, || std::hint::black_box(1 + 1));
        assert!(t >= 0.0);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(0.5), "0.500");
        assert!(fmt_ratio(0.0004).contains('e'));
    }
}
