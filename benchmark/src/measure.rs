//! Sample statistics, process accounting and the result line.
//!
//! Percentiles come from the benchmark's own raw samples, never from the
//! telemetry histograms (those are log2 buckets, exact only to 2×).

use fqbert_serve::Json;
use std::time::{Duration, Instant};

/// One reported metric: name, value as measured, unit.
pub type Metric = (String, f64, &'static str);

/// Builds a [`Metric`].
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// The `q`-quantile of `sorted` by linear interpolation between order
/// statistics. An empty slice yields 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts the samples and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the rule the benchmark contract measures run-to-run spread by.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let data = sorted(samples.to_vec());
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        data[j - 1] + (data[j] - data[j - 1]) * delta
    })
}

/// Runs `f` until `budget` has elapsed (at least `min_iters` times) and
/// returns the median time of one call in nanoseconds.
pub fn time_median_ns(budget: Duration, min_iters: usize, mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || begin.elapsed() < budget {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// From the C library `std` already links.
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, every thread, exited ones included) in
/// seconds, from `CLOCK_PROCESS_CPUTIME_ID`: nanosecond resolution, where
/// the ticks of `/proc/self/stat` are 2 % of a half-second block.
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec` for the whole call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// One block of a timed window: what completed between two marks.
pub struct Block {
    /// Latencies of the operations that completed in the block, ms.
    pub latencies: Vec<f64>,
    /// Sequences those operations answered.
    pub sequences: u64,
    pub wall_s: f64,
    /// Process CPU time spent during the block.
    pub cpu_s: f64,
}

/// Share of a run's blocks the timed metrics are computed from.
const QUIET_SHARE: f64 = 0.15;

/// The quietest [`QUIET_SHARE`] of `blocks` (at least one), ranked by their
/// mean latency.
///
/// The host is a few virtual CPUs of a shared machine. For seconds at a
/// time a neighbour makes every instruction slower or takes the virtual CPU
/// away for tens of milliseconds, and how much of a run that covers differs
/// from run to run by more than any bound allows. A neighbour only ever adds
/// time, so the blocks in which the program ran fastest are the ones that
/// measure the program; a slow-down of the program itself is in every block
/// and so in these too. The mean, not the median, ranks a block: one long
/// stall leaves a block's median where it was.
pub fn quiet(mut blocks: Vec<Block>) -> Vec<Block> {
    blocks.retain(|block| !block.latencies.is_empty());
    let mean = |block: &Block| block.latencies.iter().sum::<f64>() / block.latencies.len() as f64;
    blocks.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    let keep = ((blocks.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    blocks.truncate(keep);
    blocks
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over logit bit patterns: the `output_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds every logit's bits in, in order.
    pub fn update(&mut self, logits: &[f32]) {
        for value in logits {
            for byte in value.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Hex rendering.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` pair.
pub fn result_line(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn quiet_keeps_the_blocks_with_the_lowest_mean_latency() {
        let block = |latencies: &[f64]| Block {
            latencies: latencies.to_vec(),
            sequences: latencies.len() as u64,
            wall_s: 0.5,
            cpu_s: 0.4,
        };
        // Nine blocks that can be ranked: 15 % rounds up to two. The
        // stalled one has the lowest median and a high mean; the empty one
        // cannot be ranked.
        let mut blocks: Vec<Block> = (0..8).map(|i| block(&[5.0 + f64::from(i); 4])).collect();
        blocks.push(block(&[1.0, 1.0, 1.0, 90.0]));
        blocks.push(block(&[]));
        let kept = quiet(blocks);
        let means: Vec<f64> = kept.iter().map(|b| median(&b.latencies)).collect();
        assert_eq!(means, [5.0, 6.0]);
        assert_eq!(quiet(vec![block(&[3.0])]).len(), 1);
        assert!(quiet(Vec::new()).is_empty());
    }

    #[test]
    fn quantile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&data, 0.5), 25.0);
        assert_eq!(quantile(&data, 1.0), 40.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = Digest::new();
        a.update(&[1.0, 2.0]);
        let mut b = Digest::new();
        b.update(&[2.0, 1.0]);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::new();
        c.update(&[1.0]);
        c.update(&[2.0]);
        assert_eq!(a.hex(), c.hex());
    }
}
