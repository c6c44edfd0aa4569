//! The open-loop clock: requests are due on a fixed schedule whether or not
//! the system keeps up.
//!
//! Latency is measured from the moment a request was *due*, not from when the
//! generator got around to sending it, so a stall is charged to every request
//! it delayed. How late the generator itself ran is reported beside it.

use std::time::{Duration, Instant};

/// A fixed-interval schedule: request `i` is due at `i * interval`.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub interval_ns: u64,
}

/// What one request cost, in nanoseconds since the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Completion minus due time: what a user on the schedule waited.
    pub latency_ns: u64,
    /// Send minus due time: how late the generator ran.
    pub lateness_ns: u64,
}

impl OpenLoop {
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }

    /// Account for request `i`, sent at `sent_ns` and completed at `done_ns`.
    pub fn account(&self, i: u64, sent_ns: u64, done_ns: u64) -> Timing {
        let due = self.due_ns(i);
        Timing { latency_ns: done_ns.saturating_sub(due), lateness_ns: sent_ns.saturating_sub(due) }
    }

    /// Block until request `i` is due (returns at once when already late).
    pub fn wait_until_due(&self, start: Instant, i: u64) {
        let due = start + Duration::from_nanos(self.due_ns(i));
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-connection generator: it can only send the next request
    /// once the previous one completed and the next is due.
    fn drive(clock: &OpenLoop, service_ns: &[u64]) -> Vec<Timing> {
        let mut free_at = 0u64;
        service_ns
            .iter()
            .enumerate()
            .map(|(i, &service)| {
                let sent = free_at.max(clock.due_ns(i as u64));
                free_at = sent + service;
                clock.account(i as u64, sent, free_at)
            })
            .collect()
    }

    #[test]
    fn on_time_requests_cost_their_service_time() {
        let clock = OpenLoop { interval_ns: 50 };
        let timings = drive(&clock, &[4, 4, 4]);
        assert!(timings.iter().all(|t| *t == Timing { latency_ns: 4, lateness_ns: 0 }));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let clock = OpenLoop { interval_ns: 50 };
        // Request 1 stalls for 120: requests 2 and 3 were due at 100 and 150
        // but can only be sent at 170 and 174.
        let timings = drive(&clock, &[4, 120, 4, 4, 4]);
        assert_eq!(timings[1], Timing { latency_ns: 120, lateness_ns: 0 });
        assert_eq!(timings[2], Timing { latency_ns: 74, lateness_ns: 70 });
        assert_eq!(timings[3], Timing { latency_ns: 28, lateness_ns: 24 });
        // The backlog has drained by request 4.
        assert_eq!(timings[4], Timing { latency_ns: 4, lateness_ns: 0 });
        // A closed-loop clock (latency from send time) would have hidden it.
        assert!(timings[2].latency_ns - timings[2].lateness_ns == 4);
    }
}
