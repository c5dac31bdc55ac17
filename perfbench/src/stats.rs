//! Summary statistics the benchmark reports: medians, the tail-percentile
//! rule and ratios that carry their base.

use std::time::{Duration, Instant};

/// Percentiles the tail metric may report, lowest first.  The tail is the
/// highest of these with at least [`TAIL_BEYOND`] samples above it; p99 is
/// the top rung because a rarer percentile would rest on a handful of
/// scheduler hiccups on a small shared machine.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples (`n > 0`).
fn rank(p: f64, n: usize) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Percentile `p` of already sorted samples by the nearest-rank rule.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len())]
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The tail percentile of `n` samples: the highest rung of [`TAIL_LADDER`]
/// with at least [`TAIL_BEYOND`] samples strictly beyond its rank, or
/// `None` when even the median has fewer beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= TAIL_BEYOND)
}

/// Wall-clock window the median is taken over.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Samples reserved up front: far more than any run takes, and untouched
/// capacity costs no resident memory, so the buffer never reallocates.
/// Samples are stored as `f32` (four bytes each), which keeps their share
/// of `peak_rss_mb` small even though it grows with the op count.
const RESERVED: usize = 1 << 21;

/// Most blocks the tail percentile is averaged over.
pub const TAIL_BLOCKS: usize = 8;

/// Blocks `count` samples split into for the tail at `p`: as many as keep
/// [`TAIL_BEYOND`] samples beyond `p` in the smallest block, at most
/// [`TAIL_BLOCKS`], at least one.
pub fn tail_blocks(count: usize, p: f64) -> usize {
    (1..=TAIL_BLOCKS)
        .rev()
        .find(|&blocks| {
            let size = count / blocks;
            size > 0 && size - 1 - rank(p, size) >= TAIL_BEYOND
        })
        .unwrap_or(1)
}

/// Latency samples of one workload in milliseconds, in the order taken,
/// grouped by the [`WINDOW`] each was taken in.
#[derive(Debug, Clone)]
pub struct Samples {
    values: Vec<f32>,
    /// `(window, index of its first sample)`, one entry per window.
    windows: Vec<(u32, usize)>,
    started: Option<Instant>,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            values: Vec::with_capacity(RESERVED),
            windows: Vec::new(),
            started: None,
        }
    }
}

/// The median and tail of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// Windows the samples fell in.
    pub windows: usize,
    /// Mean of the windows' medians.
    pub p50: f64,
    /// Tail value at [`tail_pct`](Summary::tail_pct).
    pub tail: f64,
    /// The percentile the tail was read at; the maximum when too few
    /// samples exist for any rung.
    pub tail_pct: Option<f64>,
    /// Consecutive blocks the tail was averaged over.
    pub tail_blocks: usize,
}

impl Samples {
    /// Records one sample taken now.
    pub fn push(&mut self, value: f64) {
        let started = *self.started.get_or_insert_with(Instant::now);
        let window = started.elapsed().as_nanos() / WINDOW.as_nanos();
        self.push_in(window as u32, value);
    }

    /// Records one sample taken in `window`; windows only move forward.
    pub fn push_in(&mut self, window: u32, value: f64) {
        if self.windows.last().is_none_or(|&(last, _)| last != window) {
            self.windows.push((window, self.values.len()));
        }
        self.values.push(value as f32);
    }

    /// Median and tail-rule summary.
    ///
    /// The machines this runs on switch between a fast and a slow state
    /// every second or so, and the ops close in time share the state.  A
    /// pooled statistic then jumps between the two states' values as the
    /// share of slow time crosses a threshold; averaged over stretches of
    /// time it moves with that share in proportion.  So the median is the
    /// mean of every [`WINDOW`]'s median, and the tail is the mean of the
    /// tail percentile over up to [`TAIL_BLOCKS`] consecutive blocks of
    /// samples, each large enough to keep [`TAIL_BEYOND`] samples beyond
    /// it.
    pub fn summary(&self) -> Summary {
        let count = self.values.len();
        let values: Vec<f64> = self.values.iter().map(|&v| f64::from(v)).collect();
        let medians: Vec<f64> = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, &(_, start))| {
                let end = self.windows.get(i + 1).map_or(count, |&(_, next)| next);
                median(&values[start..end])
            })
            .collect();
        let tail_pct = tail_percentile(count);
        let (tail, tail_blocks) = match tail_pct {
            Some(p) => {
                let blocks = tail_blocks(count, p);
                let size = count / blocks;
                let tails: Vec<f64> = (0..blocks)
                    .map(|b| {
                        let end = if b + 1 == blocks {
                            count
                        } else {
                            (b + 1) * size
                        };
                        let mut block = values[b * size..end].to_vec();
                        block.sort_by(f64::total_cmp);
                        percentile(&block, p)
                    })
                    .collect();
                (tails.iter().sum::<f64>() / blocks as f64, blocks)
            }
            None => (values.iter().copied().fold(0.0, f64::max), 1),
        };
        Summary {
            count,
            windows: medians.len(),
            p50: medians.iter().sum::<f64>() / medians.len().max(1) as f64,
            tail,
            tail_pct,
            tail_blocks,
        }
    }
}

/// A ratio with its base spelled out: `numerator ÷ denominator`, where the
/// denominator is what [`base`](Ratio::base) names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// The counted outcome.
    pub numerator: f64,
    /// The base the outcome is counted against.
    pub denominator: f64,
    /// What the denominator counts, in words.
    pub base: &'static str,
}

impl Ratio {
    /// A ratio of `numerator` over `denominator`, counted against `base`.
    pub fn of(numerator: f64, denominator: f64, base: &'static str) -> Ratio {
        Ratio {
            numerator,
            denominator,
            base,
        }
    }

    /// The ratio's value; zero over an empty base.
    pub fn value(&self) -> f64 {
        if self.denominator > 0.0 {
            self.numerator / self.denominator
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        // p99 needs 1,000 samples: the rank-990 sample has ten above it.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        // p95 of 200 leaves exactly ten; one fewer sample drops to p90.
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..3_000 {
            if let Some(p) = tail_percentile(n) {
                let beyond = n - 1 - rank(p, n);
                assert!(beyond >= TAIL_BEYOND, "n={n} p={p} beyond={beyond}");
            }
        }
    }

    #[test]
    fn the_tail_reads_the_chosen_rank() {
        let mut samples = Samples::default();
        for v in 1..=1_000 {
            samples.push_in(0, f64::from(v));
        }
        let summary = samples.summary();
        assert_eq!(summary.count, 1_000);
        assert_eq!(summary.p50, 500.0);
        assert_eq!(summary.tail_pct, Some(99.0));
        assert_eq!(summary.tail_blocks, 1);
        assert_eq!(summary.tail, 990.0);
        let beyond = (1..=1_000).filter(|&v| f64::from(v) > summary.tail).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn every_tail_block_keeps_ten_samples_beyond_it() {
        for count in [200, 999, 1_000, 2_000, 4_321, 8_000, 80_000, 1_000_000] {
            let p = tail_percentile(count).expect("enough samples");
            let blocks = tail_blocks(count, p);
            assert!((1..=TAIL_BLOCKS).contains(&blocks));
            let smallest = count / blocks;
            assert!(
                smallest - 1 - rank(p, smallest) >= TAIL_BEYOND,
                "{count}: {blocks} blocks"
            );
        }
        assert_eq!(tail_blocks(8_000, 99.0), TAIL_BLOCKS);
        assert_eq!(tail_blocks(7_999, 99.0), 7);
        assert_eq!(tail_blocks(80_000, 99.0), TAIL_BLOCKS);
        // Blocks are consecutive: a slow second half raises half the
        // blocks' tails, and the tail lands between the two halves' own.
        let mut samples = Samples::default();
        for i in 0..80_000 {
            let slow = if i < 40_000 { 1.0 } else { 2.0 };
            samples.push_in(0, slow * f64::from(i % 100 + 1));
        }
        let summary = samples.summary();
        assert_eq!(summary.tail_blocks, TAIL_BLOCKS);
        assert!((summary.tail - 1.5 * 99.0).abs() < 1e-9, "{summary:?}");
    }

    #[test]
    fn the_median_is_averaged_over_windows() {
        // A fast window and a slow one: the pooled median would be one
        // state's value, the windowed median sits between them.
        let mut samples = Samples::default();
        for v in [1.0, 1.0, 1.5] {
            samples.push_in(0, v);
        }
        for v in [2.0, 2.0, 2.5, 2.5, 3.0] {
            samples.push_in(1, v);
        }
        let summary = samples.summary();
        assert_eq!(summary.windows, 2);
        assert_eq!(summary.p50, 1.75, "{summary:?}");
        assert_eq!(summary.count, 8);
    }

    #[test]
    fn too_few_samples_report_the_maximum() {
        let mut samples = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            samples.push_in(0, v);
        }
        let summary = samples.summary();
        assert_eq!(summary.tail_pct, None);
        assert_eq!(summary.tail, 3.0);
        assert_eq!(summary.p50, 2.0);
    }

    #[test]
    fn a_ratio_over_an_empty_base_is_zero() {
        assert_eq!(Ratio::of(3.0, 4.0, "queries").value(), 0.75);
        assert_eq!(Ratio::of(3.0, 0.0, "queries").value(), 0.0);
    }
}
