//! Small helpers shared by the workloads: a seeded generator, process
//! memory, Prometheus text parsing and schedule digests.

use crate::stats::median;
use ftqc::compiler::CompiledProgram;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: the workload seed expands into every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an input `stream`, so each kind of input
    /// draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident memory of this process in MB, from `/proc/self/status`
/// (`VmHWM`); 0 where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of a compiled program's full schedule and metrics: equal
/// digests mean the same ops at the same times on the same layout.
pub fn schedule_digest(program: &CompiledProgram) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for item in program.schedule().items() {
        let _ = write!(h, "{item:?};");
    }
    let _ = write!(h, "{:?}", program.metrics());
    h.0
}

/// One sample of a Prometheus text exposition: the value of the first
/// series named exactly `name` whose labels contain `labels` (pass "" for
/// an unlabelled series); 0 when absent.
pub fn prom_value(text: &str, name: &str, labels: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let (series_name, series_labels) = match series.split_once('{') {
                Some((n, rest)) => (n, rest.trim_end_matches('}')),
                None => (series, ""),
            };
            (series_name == name && series_labels.contains(labels))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .unwrap_or(0.0)
}

/// The cumulative buckets of histogram `name` (`<name>_bucket` series),
/// as `(upper bound, cumulative count)` in exposition order; `+Inf` maps to
/// `f64::INFINITY`.
pub fn prom_buckets(text: &str, name: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (labels, value) = rest.rsplit_once(' ')?;
            let le = labels.split("le=\"").nth(1)?.split('"').next()?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, value.parse().ok()?))
        })
        .collect()
}

/// The upper-bound `q`-quantile (`0..=1`) of the observations a histogram
/// gained between two snapshots, or `None` when fewer than ten of them lie
/// beyond it (the same rule as [`crate::stats::percentile`]).
pub fn bucket_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> Option<f64> {
    let delta: Vec<(f64, f64)> = after
        .iter()
        .map(|&(bound, count)| {
            let was = before
                .iter()
                .find(|(b, _)| *b == bound)
                .map_or(0.0, |(_, c)| *c);
            (bound, count - was)
        })
        .collect();
    let total = delta.last().map_or(0.0, |(_, c)| *c);
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    if total - rank < crate::stats::MIN_BEYOND as f64 {
        return None;
    }
    delta
        .iter()
        .find(|(_, cumulative)| *cumulative >= rank)
        .map(|(bound, _)| *bound)
}

/// Median µs per item of `f`, which processes `items` items per call,
/// over enough calls to fill about 50 ms.
pub fn time_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::new();
    let started = Instant::now();
    while per_call.len() < 5
        || (started.elapsed() < Duration::from_millis(50) && per_call.len() < 1000)
    {
        let t0 = Instant::now();
        f();
        per_call.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&per_call).unwrap_or(0.0) / items.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# HELP x y\n\
        ftqc_requests_throttled_total 3\n\
        ftqc_stage_cache_hits_total{stage=\"map\"} 7\n\
        ftqc_stage_cache_hits_total{stage=\"prepare\"} 9\n\
        w_bucket{le=\"1\"} 0\n\
        w_bucket{le=\"2\"} 50\n\
        w_bucket{le=\"4\"} 90\n\
        w_bucket{le=\"+Inf\"} 100\n";

    #[test]
    fn reads_prometheus_series() {
        assert_eq!(prom_value(TEXT, "ftqc_requests_throttled_total", ""), 3.0);
        assert_eq!(
            prom_value(TEXT, "ftqc_stage_cache_hits_total", "stage=\"prepare\""),
            9.0
        );
        assert_eq!(prom_value(TEXT, "absent", ""), 0.0);
        let buckets = prom_buckets(TEXT, "w");
        assert_eq!(buckets.len(), 4);
        assert_eq!(bucket_quantile(&[], &buckets, 0.5), Some(2.0));
        assert_eq!(bucket_quantile(&[], &buckets, 0.9), Some(4.0));
        // 100 observations leave only one beyond p99.
        assert_eq!(bucket_quantile(&[], &buckets, 0.99), None);
        assert_eq!(bucket_quantile(&buckets, &buckets, 0.5), None);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
        assert_ne!(draw(1, 2), draw(2, 2));
    }
}
