//! The benchmark's own metric arithmetic: order statistics, the tail
//! percentile rule, aggregation across models, open-loop pacing with
//! generator-lag accounting, and the peak-RSS read.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The least disturbed of repeated timings of the same work: the
/// smallest; `None` when empty. On a shared host, contention from other
/// tenants only ever adds time, and it comes and goes within seconds
/// while its average drifts by tens of percent over minutes. So the
/// fastest of several repeats tracks the program's own cost, where a
/// median tracks the host's load.
pub fn fastest(secs: &[f64]) -> Option<f64> {
    secs.iter().copied().reduce(f64::min)
}

/// The highest of repeated rates of the same work, the counterpart of
/// [`fastest`] for rates; `None` when empty.
pub fn best_rate(rates: &[f64]) -> Option<f64> {
    rates.iter().copied().reduce(f64::max)
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive. A 2x change in one of `k` inputs
/// moves it by `2^(1/k)`, so no single input dominates.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || !xs.iter().all(|&x| x > 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Nearest-rank quantile of an ascending slice at `per_mille` / 1000:
/// the value at 1-based rank `ceil(per_mille * n / 1000)`, in integers
/// so that e.g. p99 of 1 000 samples is exactly rank 990.
fn nearest_rank(sorted: &[f64], per_mille: usize) -> (usize, f64) {
    let n = sorted.len();
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    (rank, sorted[rank - 1])
}

/// Nearest-rank percentile of `xs` at `per_mille` / 1000, the rule
/// [`tail`] reads percentiles by; 0 when empty.
pub fn percentile(xs: &[f64], per_mille: usize) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, per_mille).1
}

/// A tail latency read by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in (0, 100).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// How many samples were taken.
    pub samples: usize,
}

/// Percentiles [`tail`] tries, highest first, in per mille. The tail
/// metrics are p99s, so the ladder starts there rather than at p99.9,
/// which a few host stalls set on their own.
const TAIL_LADDER: [usize; 5] = [990, 950, 900, 750, 500];

/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, and the sample count. `None` when
/// even the median has fewer than that many samples above it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&per_mille| {
        let (rank, value) = nearest_rank(&v, per_mille);
        let beyond = n - rank;
        (beyond >= MIN_BEYOND).then_some(Tail {
            percentile: per_mille as f64 / 10.0,
            value,
            beyond,
            samples: n,
        })
    })
}

/// An open-loop schedule: event `k` is due at `start + k * interval`,
/// whatever happened to earlier events. Lateness of each send against
/// its due time is the generator's lag.
#[derive(Debug, Clone)]
pub struct Pacer {
    start: Instant,
    interval: Duration,
    next: u64,
    lags: Vec<f64>,
}

impl Pacer {
    /// A schedule of `rate` events per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Pacer {
        Pacer {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
            next: 0,
            lags: Vec::new(),
        }
    }

    /// Due time of the next event.
    pub fn next_due(&self) -> Instant {
        self.start + self.interval.mul_f64(self.next as f64)
    }

    /// Marks the next event as sent at `sent` and returns its due time;
    /// the lag `sent - due` (0 when early) is recorded.
    pub fn mark_sent(&mut self, sent: Instant) -> Instant {
        let due = self.next_due();
        self.lags
            .push(sent.saturating_duration_since(due).as_secs_f64());
        self.next += 1;
        due
    }

    /// Passes over the next event without sending it; no lag is
    /// recorded.
    pub fn skip(&mut self) {
        self.next += 1;
    }

    /// Events sent or skipped so far.
    pub fn sent(&self) -> u64 {
        self.next
    }

    /// Lag of every sent event, seconds.
    pub fn lags(&self) -> &[f64] {
        &self.lags
    }
}

/// Latency of a response measured from when its request was *due*, not
/// when it was sent: a generator stall delays the send but not the due
/// time, so the stall is charged to the latency it caused.
pub fn latency_from_due(due: Instant, arrival: Instant) -> Duration {
    arrival.saturating_duration_since(due)
}

/// Reads a `kB` field of a `/proc/<pid>/status` text, in MB.
pub fn status_field_mb(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb / 1024.0)
    })
}

fn own_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field_mb(&status, field).unwrap_or(f64::NAN)
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    own_status_mb("VmHWM")
}

/// Current resident set size of this process (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    own_status_mb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        // 1..=1000: p99 sits at rank 990 with exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // More samples still read p99, with more beyond it.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 9900.0, 100));
    }

    #[test]
    fn percentile_reads_by_nearest_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 500), 2.0);
        assert_eq!(percentile(&xs, 1000), 4.0);
        assert_eq!(percentile(&[], 500), 0.0);
    }

    #[test]
    fn tail_falls_back_when_samples_are_few() {
        // 999 samples: p99 would leave only 9 beyond, so p95 it is.
        let xs: Vec<f64> = (1..=999).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.samples, 999);
        assert!(t.beyond >= MIN_BEYOND);
        // 24 samples: only the median has 10 beyond.
        let xs: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 50.0);
        // Too few for any percentile.
        assert_eq!(tail(&[1.0; 19]), None);
    }

    #[test]
    fn fastest_and_best_rate_take_the_least_disturbed_repeat() {
        assert_eq!(fastest(&[0.3, 0.2, 0.5]), Some(0.2));
        assert_eq!(best_rate(&[3.0, 5.0, 2.0]), Some(5.0));
        assert_eq!(fastest(&[]), None);
        assert_eq!(best_rate(&[]), None);
    }

    #[test]
    fn geomean_weights_every_input_equally() {
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        // Doubling one of five inputs moves the mean by 2^(1/5) ~ 15%.
        let base = geomean(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        let moved = geomean(&[20.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert!((moved / base - 2f64.powf(0.2)).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(5); // the generator stalled
        let arrival = sent + Duration::from_millis(1);
        assert_eq!(latency_from_due(due, arrival), Duration::from_millis(6));
        assert_eq!(arrival - sent, Duration::from_millis(1));
    }

    #[test]
    fn pacer_schedules_by_rate_and_records_lag() {
        let start = Instant::now();
        let mut p = Pacer::new(start, 1000.0);
        assert_eq!(p.next_due(), start);
        // On time, then 3 ms late, then early (clamped to 0).
        assert_eq!(p.mark_sent(start), start);
        let due1 = p.mark_sent(start + Duration::from_millis(4));
        assert_eq!(due1, start + Duration::from_millis(1));
        p.mark_sent(start);
        p.skip();
        assert_eq!(p.sent(), 4);
        let lags = p.lags();
        assert_eq!(lags.len(), 3);
        assert_eq!(lags[0], 0.0);
        assert!((lags[1] - 0.003).abs() < 1e-9);
        assert_eq!(lags[2], 0.0);
        // Neither a stall nor a skip shifts later due times.
        assert_eq!(p.next_due(), start + Duration::from_millis(4));
    }

    #[test]
    fn status_fields_parse_in_megabytes() {
        let status = "Name:\tetsc\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(status_field_mb(status, "VmHWM"), Some(2.0));
        assert_eq!(status_field_mb(status, "VmRSS"), Some(1.0));
        assert_eq!(status_field_mb(status, "VmSwap"), None);
        assert!(peak_rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb());
    }
}
