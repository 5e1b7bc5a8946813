//! Open-loop scheduling: op `k` is due at `start + k × period`, whether
//! or not earlier ops have finished. Latency runs from the due time, so
//! a stall also charges the ops that queued behind it.

use std::time::{Duration, Instant};

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn new(start: Instant, ops_per_second: f64) -> Schedule {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / ops_per_second),
        }
    }

    /// When op `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.start + self.period * k as u32
    }

    /// Sleep until op `k` is due; return at once when it is overdue.
    pub fn wait_for(&self, k: usize) -> Instant {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        due
    }
}

/// The three instants of one open-loop op.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    pub due: Instant,
    pub sent: Instant,
    pub acked: Instant,
}

impl OpTiming {
    /// How late the generator sent the op, in ms.
    pub fn send_lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Latency from the due time to the acknowledgement, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.acked.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_from_the_due_time() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let s = Schedule::new(t0, 10.0);
        assert_eq!(s.due(3), ms(300));
        // Op 0 stalls for 250 ms; op 1, due at 100 ms, can only be sent
        // at 250 ms and is acked 10 ms later.
        let stalled = OpTiming {
            due: s.due(0),
            sent: ms(0),
            acked: ms(250),
        };
        let queued = OpTiming {
            due: s.due(1),
            sent: ms(250),
            acked: ms(260),
        };
        assert_eq!(stalled.latency_ms(), 250.0);
        assert_eq!(stalled.send_lag_ms(), 0.0);
        assert_eq!(queued.send_lag_ms(), 150.0);
        // 160 ms from due, not the 10 ms the server spent on it.
        assert_eq!(queued.latency_ms(), 160.0);
    }

    #[test]
    fn waiting_returns_the_due_time_not_the_wake_time() {
        let s = Schedule::new(Instant::now(), 1000.0);
        let due = s.wait_for(2);
        assert_eq!(due, s.due(2));
        assert!(Instant::now() >= due);
    }
}
