//! Order statistics over host-time samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (its default
//! "exclusive" method) exactly, so the spreads `compare` prints agree with
//! the ones computed over a set of result files by any other tool.

/// The smallest sample (the best time); `None` when empty.
pub fn min(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile as `statistics.quantiles(samples, n=4)` gives
/// them; `None` with fewer than two samples (Python raises there).
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative for tiny counts, where Python extrapolates.
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Consecutive blocks a run's samples are split into by [`block_best`].
pub const BLOCKS: usize = 5;

/// The median, over [`BLOCKS`] consecutive blocks of `samples` (in the
/// order they were taken), of each block's smallest sample. A block's best
/// ignores host noise that slows some of its samples; the median ignores a
/// short stretch in which the host ran unusually fast, which would set a
/// plain best-of for the whole run. With fewer samples than blocks, each
/// sample is a block. `None` when empty.
pub fn block_best(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    let blocks = BLOCKS.min(n);
    let bests: Vec<f64> = (0..blocks)
        .filter_map(|b| min(&samples[b * n / blocks..(b + 1) * n / blocks]))
        .collect();
    median(&bests)
}

/// Nearest-rank percentile `p` (in `[0, 1]`): the smallest sample with at
/// least `p` of the samples at or below it; `None` when empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_picks_the_smallest_and_rejects_empty_input() {
        let samples = [3.0, 1.5, 2.25, 9.0];
        assert_eq!(min(&samples), Some(1.5));
        assert_eq!(min(&[]), None);
        assert_eq!(min(&[7.0]), Some(7.0));
    }

    #[test]
    fn block_best_is_the_median_of_block_minima() {
        // Blocks [5, 1] [4, 2] [3, 9] [8, 7] [6, 10]: minima 1 2 3 7 6.
        let ten = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0];
        assert_eq!(block_best(&ten), Some(3.0));
        // Seven samples: blocks [7] [6] [5, 1] [4] [3, 2], minima 7 6 1 4 2.
        let seven = [7.0, 6.0, 5.0, 1.0, 4.0, 3.0, 2.0];
        assert_eq!(block_best(&seven), Some(4.0));
        // A lone fast sample moves one block, not the result.
        let lucky = [10.0, 10.0, 1.0, 10.0, 10.0];
        assert_eq!(block_best(&lucky), Some(10.0));
        assert_eq!(block_best(&[2.0, 1.0]), Some(1.5));
        assert_eq!(block_best(&[]), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles_at_small_and_large_counts() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[8.0], 0.99), Some(8.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.50), Some(50.0));
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&hundred, 0.0), Some(1.0));
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&thousand, 0.99), Some(990.0));
    }
}
