//! The benchmark's own arithmetic: percentile selection, span self time,
//! and tracing overhead. Kept free of I/O so the unit tests below pin it.

/// Fewest samples that must lie strictly beyond a tail percentile before
/// it is reported; with fewer, the "tail" is a handful of outliers.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an ascending slice (mean of the middle two for even counts).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The p99 of an ascending slice, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie strictly above it.
pub fn tail_p99(sorted: &[f64]) -> Option<f64> {
    let p99 = percentile(sorted, 0.99)?;
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= p99);
    (beyond >= TAIL_MIN_BEYOND).then_some(p99)
}

/// Sorts a sample vector ascending (NaN-free by construction: durations).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Length of the union of half-open `[start, end)` intervals, each first
/// clipped to `within`. Overlapping intervals are counted once.
pub fn union_len(intervals: &[(u64, u64)], within: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the part of it its children
/// cover, overlapping children counted once.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - union_len(children, span)
}

/// Tracing overhead of one end-to-end metric: the traced reading minus the
/// untraced one, and that difference as a percentage of the untraced.
pub fn overhead(untraced: f64, traced: f64) -> (f64, f64) {
    let diff = traced - untraced;
    let pct = if untraced == 0.0 {
        0.0
    } else {
        100.0 * diff / untraced
    };
    (diff, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.50), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_p99() {
        // 1000 samples: p99 = 990, with exactly 10 samples above it.
        assert_eq!(tail_p99(&ramp(1000)), Some(990.0));
        // 999 samples: p99 = 990 (rank ceil(989.01) = 990), 9 above.
        assert_eq!(tail_p99(&ramp(999)), None);
        // A grid of 8 evaluations never resolves a p99.
        assert_eq!(tail_p99(&ramp(8)), None);
        // Ties at the p99 value are not "beyond" it.
        let mut ties = vec![1.0; 995];
        ties.extend(ramp(5).iter().map(|x| x + 1.0));
        assert_eq!(tail_p99(&ties), None);
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(union_len(&[], (0, 10)), 0);
        assert_eq!(union_len(&[(2, 4), (6, 8)], (0, 10)), 4);
        // Overlapping and nested children.
        assert_eq!(union_len(&[(2, 6), (4, 8), (5, 7)], (0, 10)), 6);
        // Touching intervals merge without double counting.
        assert_eq!(union_len(&[(2, 4), (4, 6)], (0, 10)), 4);
        // Children leaking past the parent are clipped to it.
        assert_eq!(union_len(&[(0, 5), (8, 20)], (2, 10)), 5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Two overlapping children (parallel work) are counted once.
        assert_eq!(self_time((0, 100), &[(10, 50), (30, 70)]), 40);
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 40)]), 0);
    }

    #[test]
    fn overhead_is_traced_minus_untraced() {
        assert_eq!(overhead(2.0, 2.5), (0.5, 25.0));
        assert_eq!(overhead(100.0, 90.0), (-10.0, -10.0));
        assert_eq!(overhead(0.0, 1.0), (1.0, 0.0));
    }
}
