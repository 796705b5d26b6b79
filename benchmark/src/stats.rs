//! The estimators: medians over rounds, percentiles over list positions,
//! quartile spreads, self times, and the comparison of two sets of runs.

/// Median (mean of the two middle values for an even count). Empty input
/// is a bug in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here are the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median; 0 for a zero median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Samples that lie beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile. A percentile is only worth reporting with at
/// least ten samples beyond it; `None` says the sample is too small.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || samples_beyond(values.len(), p) < 10 {
        return None;
    }
    Some(percentile_unchecked(values, p))
}

/// Nearest-rank percentile without the sample-size rule (`--quick` lists
/// are too short for it and say so).
pub fn percentile_unchecked(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// Per-position median across rounds: `rounds[r][i]` → median over `r`.
pub fn position_medians<R: AsRef<[f64]>>(rounds: &[R]) -> Vec<f64> {
    let rounds: Vec<&[f64]> = rounds.iter().map(AsRef::as_ref).collect();
    let n = rounds.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// A span as the self-time computation needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover. Children that overlap each other (parallel shards)
/// are counted once, and a child is clipped to its parent.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (start, end) = (span.start.max(spans[p].start), span.end.min(spans[p].end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, span.start);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end - span.start).saturating_sub(covered)
        })
        .collect()
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse set `b`'s median is than set `a`'s, as a share of
/// `a`'s: positive is worse, negative better, 0 when both are 0.
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!(
            (q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12,
            "{q1} {q3}"
        );
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(samples_beyond(120, 0.9), 12);
        assert_eq!(percentile(&v, 0.9), Some(108.0));
        assert_eq!(percentile(&v, 0.5), Some(60.0));
        assert_eq!(percentile(&v, 0.99), None, "p99 of 120 leaves one sample");
        assert_eq!(percentile(&v[..99], 0.9), None, "p90 of 99 leaves nine");
        assert_eq!(percentile_unchecked(&v[..12], 0.9), 11.0);
    }

    #[test]
    fn position_medians_take_each_position_across_rounds() {
        let rounds: [&[f64]; 3] = [&[1.0, 10.0], &[3.0, 30.0], &[2.0, 20.0]];
        assert_eq!(position_medians(&rounds), vec![2.0, 20.0]);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |parent, start, end| Interval { parent, start, end };
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50), // overlaps its sibling: 10..50 is covered once
            span(Some(2), 25, 45),
            span(Some(0), 90, 120), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 10, 20, 30]);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        let (a, b) = ([10.0, 10.0, 10.0], [11.0, 11.0, 12.0]);
        assert!((worsening(&a, &b, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(&a, &b, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(&[0.0], &[0.0], Better::Lower), 0.0);
    }
}
