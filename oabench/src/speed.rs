//! Host speed, so that end-to-end times can be reported at one
//! reference speed.
//!
//! The benchmark runs on two vCPUs of a shared host whose speed drifts
//! with the other guests' load over seconds to minutes. In one 200 s
//! `sweep_uniform` run on that host, the mean request time of 25 s
//! windows varied by 6% (coefficient of variation), and 10 s windows
//! ranged from 0.84 to 1.20 of the run's mean. A fixed probe of this
//! module's own code, timed after every request, moved with the
//! program: over 10 s windows its time correlated with the request
//! time at 0.94, and dividing one by the other halved the variation
//! (6.1% to 2.9% over 25 s windows). Probes of a dependent add chain
//! (core frequency) and of random writes over 8 MiB (memory) followed
//! it less (correlation 0.6 and 0.7–0.9).
//!
//! So every workload times the probe between its operations, and every
//! end-to-end time is reported at the speed at which the probe takes
//! [`REFERENCE_PROBE_S`]. Each operation's wall time is multiplied by
//! the host speed around it: `REFERENCE_PROBE_S` over the median time
//! of the [`NEAR`] probes nearest to it in time (above 1 on a host
//! faster than the reference). Medians, tails and rates are then taken
//! over those times. Scaling each operation by the speed around it,
//! rather than the whole run by its median speed, keeps a slow phase
//! inside a run from setting the tail. The probe never runs inside a
//! timed operation and calls nothing of the program, so a change to the
//! program moves the reported times exactly as it moves the measured
//! ones. Every run prints its measured values and its host speed.
//!
//! The probe is a small discrete-event loop, like the engine: actors
//! pop and reschedule themselves on a binary heap and allocate a short
//! vector now and then. Its state stays within a few KiB, so it does
//! not evict the program's working set between requests. It runs once
//! untimed before each timed run: timed straight after a large request,
//! it read 13–17% slower than when timed back to back.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::stats::median;
use crate::{Report, Rng};

/// Median probe time on the reference machine (two vCPUs of a shared
/// Intel Xeon host), seconds. Only a unit: changing it rescales every
/// reported time and rate by one factor.
pub const REFERENCE_PROBE_S: f64 = 0.000_55;
/// Events per probe.
const EVENTS: u64 = 10_000;
/// Probes the host speed around an operation is taken from.
const NEAR: usize = 9;

/// Probe times of one run.
#[derive(Debug)]
pub struct Speed {
    t0: Instant,
    /// (start, duration) of each probe in seconds since `t0`, in time
    /// order.
    samples: Vec<(f64, f64)>,
}

impl Speed {
    /// No probes yet; times are seconds since `t0`.
    pub fn new(t0: Instant) -> Self {
        Self {
            t0,
            samples: Vec::new(),
        }
    }

    /// Times one probe; call it between timed operations. The probe
    /// runs once untimed first, so that the caches and allocator state
    /// the program left behind do not enter its time.
    pub fn probe(&mut self) {
        std::hint::black_box(events());
        let t = Instant::now();
        std::hint::black_box(events());
        let secs = t.elapsed().as_secs_f64();
        self.samples
            .push((t.duration_since(self.t0).as_secs_f64(), secs));
    }

    /// `REFERENCE_PROBE_S / median probe time` over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if no probe was taken.
    pub fn host_speed(&self) -> f64 {
        assert!(!self.samples.is_empty(), "host speed needs a probe");
        let secs: Vec<f64> = self.samples.iter().map(|&(_, d)| d).collect();
        REFERENCE_PROBE_S / median(&secs)
    }

    /// The host speed around `at` (seconds since `t0`), from the
    /// [`NEAR`] probes nearest to it in time.
    ///
    /// # Panics
    ///
    /// Panics if no probe was taken.
    pub fn around(&self, at: f64) -> f64 {
        assert!(!self.samples.is_empty(), "host speed needs a probe");
        let n = self.samples.len();
        let i = self.samples.partition_point(|&(t, _)| t < at);
        let hi = (i + NEAR / 2).max(NEAR).min(n);
        let lo = hi.saturating_sub(NEAR);
        let secs: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, d)| d).collect();
        REFERENCE_PROBE_S / median(&secs)
    }

    /// `secs[k]`, measured at `at[k]`, at the reference speed.
    pub fn at_reference(&self, at: &[f64], secs: &[f64]) -> Vec<f64> {
        at.iter()
            .zip(secs)
            .map(|(&t, &s)| s * self.around(t))
            .collect()
    }

    /// Hands the host speed over the run to `report`.
    pub fn finish(&self, report: &mut Report) {
        report.host_speed = Some((self.host_speed(), self.samples.len()));
    }
}

/// The probe's fixed work: 64 actors on a binary heap, [`EVENTS`]
/// events, a 16-word vector allocated every 16th event and the oldest
/// of 32 dropped.
fn events() -> u64 {
    let mut rng = Rng::new(0, 0x0073_7065_6564);
    let mut heap = BinaryHeap::new();
    for id in 0..64u64 {
        heap.push(Reverse((rng.below(1000), id)));
    }
    let mut log: Vec<Vec<u64>> = Vec::new();
    for step in 0..EVENTS {
        let Reverse((now, id)) = heap.pop().expect("64 actors always queued");
        if step % 16 == 0 {
            log.push((0..16).map(|k| now.rotate_left(k) ^ id).collect());
            if log.len() > 32 {
                log.swap_remove(0);
            }
        }
        heap.push(Reverse((now + 1 + rng.below(500), id)));
    }
    log.iter().map(|v| v[0]).fold(0, u64::wrapping_add)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(samples: &[(f64, f64)]) -> Speed {
        Speed {
            t0: Instant::now(),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn each_operation_is_scaled_by_the_probes_nearest_to_it() {
        // Ten probes at reference speed, then ten at half of it.
        let samples: Vec<(f64, f64)> = (0..20)
            .map(|k| {
                let d = if k < 10 { 1.0 } else { 2.0 };
                (f64::from(k), d * REFERENCE_PROBE_S)
            })
            .collect();
        let s = speed(&samples);
        assert_eq!(s.around(0.0), 1.0);
        assert_eq!(s.around(2.5), 1.0);
        assert_eq!(s.around(17.5), 0.5);
        assert_eq!(s.around(100.0), 0.5);
        // An operation that took 4 s in the slow phase takes 2 s at
        // reference speed; one in the fast phase keeps its time.
        assert_eq!(s.at_reference(&[1.0, 18.0], &[3.0, 4.0]), [3.0, 2.0]);
    }

    #[test]
    fn a_run_with_fewer_probes_than_near_uses_them_all() {
        let s = speed(&[(0.0, REFERENCE_PROBE_S), (1.0, 4.0 * REFERENCE_PROBE_S)]);
        // Nearest-rank median of the two.
        assert_eq!(s.around(0.0), 1.0);
        assert_eq!(s.host_speed(), 1.0);
    }
}
