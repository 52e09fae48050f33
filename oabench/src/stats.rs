//! Order statistics the benchmark reports.
//!
//! Every timing is reported as a median plus a *tail*: the highest
//! nearest-rank percentile that still leaves at least [`TAIL_BEYOND`]
//! samples beyond it, together with that percentile and the sample
//! count. A fixed "p99" would rest on fewer than ten samples in a short
//! run and jump from run to run.

/// Samples a reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice, `q` in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail of a sample set, by the [`TAIL_BEYOND`] rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported percentile.
    pub value: f64,
    /// The percentile, `100 · (n − TAIL_BEYOND) / n`.
    pub pct: f64,
    /// Samples strictly above the reported rank (always `TAIL_BEYOND`).
    pub beyond: usize,
    /// Samples in the set.
    pub n: usize,
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it; `None` when the set holds too few samples to
/// name one.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(samples);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: s[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=200 shuffled deterministically: the tail is the 190th
        // value, p95, with 10 larger samples.
        let samples: Vec<f64> = (0..200u64).map(|i| ((i * 37) % 200 + 1) as f64).collect();
        let t = tail(&samples).expect("enough samples");
        assert_eq!(t.value, 190.0);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.n, 200);
        assert_eq!(t.beyond, TAIL_BEYOND);
        assert_eq!(
            samples.iter().filter(|&&x| x > t.value).count(),
            TAIL_BEYOND
        );
        // The nearest-rank quantile at the reported percentile agrees.
        assert_eq!(quantile(&sorted(&samples), t.pct / 100.0), t.value);
    }

    #[test]
    fn tail_is_undefined_without_eleven_samples() {
        assert!(tail(&[1.0; 10]).is_none());
        let t = tail(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
