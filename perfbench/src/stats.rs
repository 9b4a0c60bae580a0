//! Sample statistics, span self time and open-loop due-time accounting.

use std::time::Duration;

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (`0 < q < 100`) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail
/// read off a handful of points is noise, so it is missing, not a number.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 100.0) {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a small set (mean of the middle pair for even counts);
/// `None` for an empty set. For repeated whole measurements such as set-up
/// times, where [`percentile`]'s tail rule does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One recorded span: times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `compiler.map`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`>= start`).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to; shared by all spans of one request.
    pub request: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children (concurrent calls) are
/// merged first, and a child sticking out of its parent is clipped, so a
/// self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start.max(parent.start);
            let end = span.end.min(parent.end);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut open: Option<(u64, u64)> = None;
            for &(start, end) in kids.iter() {
                match open {
                    Some((s, e)) if start <= e => open = Some((s, e.max(end))),
                    Some((s, e)) => {
                        covered += e - s;
                        open = Some((start, end));
                    }
                    None => open = Some((start, end)),
                }
            }
            if let Some((s, e)) = open {
                covered += e - s;
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// When ticket `ticket` of an open-loop run at `rate_per_s` is due,
/// measured from the start of its window. Tickets are evenly spaced.
pub fn due_offset(ticket: u64, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(ticket as f64 / rate_per_s)
}

/// How many tickets fall due inside a window of `window` at `rate_per_s`.
pub fn tickets_in_window(window: Duration, rate_per_s: f64) -> u64 {
    (window.as_secs_f64() * rate_per_s).ceil() as u64
}

/// One open-loop request's timeline, offsets from its window's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// When the request was due to be sent.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
}

impl Timeline {
    /// Latency as a user sees it: from the due time, so a stall that
    /// delays later sends is charged to the requests it delayed.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// The exchange alone, from send to response.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Milliseconds in a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // p99 of 100 samples has one sample beyond it: missing.
        assert_eq!(percentile(&samples, 99.0), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 99.0), Some(990.0));
        assert_eq!(percentile(&[1.0; 19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=40).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0), Some(20.0));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_merges_overlapping_children_and_clips() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("late", 90, 130, Some(0)),
        ];
        // Covered: [10, 70) and [90, 100) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn due_times_are_evenly_spaced() {
        assert_eq!(due_offset(0, 100.0), Duration::ZERO);
        assert_eq!(due_offset(150, 100.0), Duration::from_millis(1500));
        assert_eq!(tickets_in_window(Duration::from_secs(2), 100.0), 200);
        assert_eq!(tickets_in_window(Duration::from_millis(1005), 100.0), 101);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Sent 30 ms late behind a stall, answered 5 ms after sending.
        let t = Timeline {
            due: Duration::from_millis(100),
            sent: Duration::from_millis(130),
            done: Duration::from_millis(135),
        };
        assert_eq!(t.lag(), Duration::from_millis(30));
        assert_eq!(t.service(), Duration::from_millis(5));
        assert_eq!(t.latency(), Duration::from_millis(35));
    }
}
