//! Order statistics and fingerprints over a run's samples.

/// 64-bit FNV-1a, the fingerprint the repository's examples print over
/// their serialized reports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Nearest-rank percentile `q` (0..=100) of `sorted`, which must be
/// sorted ascending; 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// A sorted copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentiles the tail statistic may report, highest first. There is no
/// p99.5 rung: with the 1000-2000 campaigns of a typical run's fast state
/// it would sit on the run's handful of host hiccups, where p99 keeps
/// 10-20 campaigns beyond it.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a sample set: the highest percentile of [`TAIL_LADDER`]
/// with at least ten samples strictly beyond its nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond that rank.
    pub beyond: usize,
    /// Samples in the set.
    pub n: usize,
}

/// See [`Tail`]. Falls back to the median when fewer than twenty samples
/// exist (`beyond` then reports how few lie past it).
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let beyond = |q: f64| n - (((q / 100.0) * n as f64).ceil() as usize).min(n);
    let q = TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| beyond(q) >= 10)
        .unwrap_or(50.0);
    Tail {
        q,
        value: percentile(&s, q),
        beyond: beyond(q),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.q, t.beyond, t.n), (99.0, 10, 1000));
        assert_eq!(t.value, 990.0);
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&small).q, 75.0);
        let mid: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(tail(&mid).q, 99.0, "p99.5 is not a rung");
        assert_eq!(tail(&small[..5]).q, 50.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
