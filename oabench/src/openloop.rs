//! Open-loop load accounting.
//!
//! Request `i` is *due* at `i · interval` after the loop starts,
//! whether or not the service has finished earlier requests, and its
//! latency runs from when it was due, not from when it was sent. A
//! request that stalls the single-threaded service therefore shows up
//! in the latency of every request queued behind it.

use std::time::Instant;

/// Live open-loop pacing and accounting for one run.
#[derive(Debug)]
pub struct OpenLoop {
    t0: Instant,
    interval: f64,
    prev_end: f64,
    /// Latency of each request from its due time, seconds.
    pub latency: Vec<f64>,
    /// Time the service spent on each request, seconds.
    pub service: Vec<f64>,
    /// Largest delay between a request being sendable (due, with the
    /// service idle) and the generator sending it, seconds.
    pub late_max: f64,
    /// Most requests ever due but not yet sent.
    pub backlog_max: u64,
}

impl OpenLoop {
    /// Starts the clock for requests offered at `rate` per second.
    pub fn start(rate: f64) -> Self {
        Self {
            t0: Instant::now(),
            interval: 1.0 / rate,
            prev_end: 0.0,
            latency: Vec::new(),
            service: Vec::new(),
            late_max: 0.0,
            backlog_max: 0,
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// The instant the loop started; due times count from it.
    pub fn origin(&self) -> Instant {
        self.t0
    }

    /// When request `i` is due, seconds after the loop started.
    pub fn due(&self, i: usize) -> f64 {
        i as f64 * self.interval
    }

    /// Seconds until request `i` is due; negative once it is overdue.
    pub fn slack(&self, i: usize) -> f64 {
        self.due(i) - self.now()
    }

    /// Spins until request `i` is due (returns at once when it is
    /// already overdue) and returns the send instant. Spinning rather
    /// than sleeping keeps wake-up delays, which reach milliseconds on
    /// a loaded machine, out of the latencies.
    pub fn wait_due(&self, i: usize) -> f64 {
        let due = self.due(i);
        loop {
            let now = self.now();
            if now >= due {
                return now;
            }
            std::hint::spin_loop();
        }
    }

    /// Records request `i`, sent at `start` and answered at `end`
    /// (seconds since the loop started).
    pub fn record(&mut self, i: usize, start: f64, end: f64) {
        let due = self.due(i);
        let sendable = due.max(self.prev_end);
        self.late_max = self.late_max.max(start - sendable);
        let due_by_start = (start / self.interval).floor() as u64 + 1;
        self.backlog_max = self
            .backlog_max
            .max(due_by_start.saturating_sub(i as u64 + 1));
        self.latency.push(end - due);
        self.service.push(end - start);
        self.prev_end = end;
    }

    /// Times `f` as request `i`: waits until it is due, runs it, and
    /// records it. Returns what `f` returned.
    pub fn issue<R>(&mut self, i: usize, f: impl FnOnce() -> R) -> R {
        let start = self.wait_due(i);
        let out = f();
        let end = self.now();
        self.record(i, start, end);
        out
    }
}

/// Latencies a single first-in-first-out server with the given
/// per-request service times would give at one request per
/// `interval`, each measured from its due time (Lindley's recursion).
pub fn fifo_latencies(service: &[f64], interval: f64) -> Vec<f64> {
    let mut free_at = 0.0f64;
    service
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let due = i as f64 * interval;
            free_at = free_at.max(due) + s;
            free_at - due
        })
        .collect()
}

/// Whether replaying `service` at `rate` keeps up: the offered load
/// stays below the capacity the service times imply (so the backlog
/// cannot grow) and the tail latency stays within `limit` seconds.
pub fn sustains(service: &[f64], rate: f64, limit: f64) -> bool {
    let busy: f64 = service.iter().sum();
    let span = service.len() as f64 / rate;
    if busy >= span {
        return false;
    }
    let lat = fifo_latencies(service, 1.0 / rate);
    crate::stats::tail(&lat).is_some_and(|t| t.value <= limit)
}

/// Rungs of the rate ladder: `1.001^k` per second, `k = 0..LADDER`,
/// from 1/s to about 4·10^8/s in steps of 0.1%.
const LADDER: u32 = 20_000;

/// Rate of rung `k` of the ladder, per second.
fn rung(k: u32) -> f64 {
    1.001f64.powi(k as i32)
}

/// The highest rate on the ladder at which replaying `service`
/// [`sustains`] a tail within `limit` seconds, or 0 if even 1/s does
/// not. A binary search: `sustains` holds up to some rate and fails
/// above it.
pub fn max_sustained(service: &[f64], limit: f64) -> f64 {
    if !sustains(service, rung(0), limit) {
        return 0.0;
    }
    // Rung `lo` sustains; every rung from `hi` up does not.
    let (mut lo, mut hi) = (0, LADDER);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if sustains(service, rung(mid), limit) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    rung(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_delays_every_request_queued_behind_it() {
        // One request per ms; request 2 takes 10 ms, the rest 0.1 ms.
        let mut service = vec![1e-4; 20];
        service[2] = 1e-2;
        let lat = fifo_latencies(&service, 1e-3);
        assert!((lat[1] - 1e-4).abs() < 1e-12, "before the stall");
        assert!((lat[2] - 1e-2).abs() < 1e-12, "the stall itself");
        // Request 3 was due 1 ms after request 2 started: it waits 9 ms.
        assert!((lat[3] - (9e-3 + 1e-4)).abs() < 1e-12);
        // Each later request waits 0.9 ms less, until the queue drains.
        for i in 4..12 {
            assert!(lat[i] < lat[i - 1] && lat[i] > 1e-4 + 1e-9, "request {i}");
        }
        assert!((lat[15] - 1e-4).abs() < 1e-12, "drained");
    }

    #[test]
    fn live_accounting_charges_the_wait_from_the_due_time() {
        let mut ol = OpenLoop::start(1000.0);
        // Request 0 runs 0–5.05 ms; requests 1 and 2 were due at 1 and
        // 2 ms but could only start when it ended.
        ol.record(0, 0.0, 5.05e-3);
        ol.record(1, 5.05e-3, 5.15e-3);
        ol.record(2, 5.15e-3, 5.25e-3);
        assert!((ol.latency[1] - 4.15e-3).abs() < 1e-12);
        assert!((ol.latency[2] - 3.25e-3).abs() < 1e-12);
        assert!((ol.service[1] - 1e-4).abs() < 1e-12);
        // When request 1 was sent, requests 0..=5 were due: 2..=5 waited.
        assert_eq!(ol.backlog_max, 4);
        // Queueing behind a busy service is not generator lateness.
        assert!(ol.late_max < 1e-12);
        // A send 0.3 ms after an idle due time is.
        ol.record(9, 9.3e-3, 9.4e-3);
        assert!((ol.late_max - 3e-4).abs() < 1e-12);
    }

    #[test]
    fn sustains_is_monotone_on_the_ladder_and_search_finds_its_top() {
        let mut service = vec![1e-4; 400];
        for i in (0..400).step_by(100) {
            service[i] = 0.05;
        }
        let ok: Vec<bool> = (0..LADDER)
            .map(|k| sustains(&service, rung(k), 0.03))
            .collect();
        let first_fail = ok.iter().position(|&b| !b).expect("overload fails");
        assert!(first_fail > 0, "the lowest rate passes");
        assert!(ok[first_fail..].iter().all(|&b| !b), "no pass above a fail");
        let top = rung(first_fail as u32 - 1);
        assert_eq!(max_sustained(&service, 0.03), top);
        assert_eq!(max_sustained(&[2.0; 20], 0.03), 0.0);
    }
}
