//! Summary statistics, metric naming and the result line.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MARGIN: usize = 10;

/// A tail latency picked by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (e.g. `99.0`).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile the tail metric reports.
pub const TAIL_CAP: f64 = 99.0;

/// The tail latency: the nearest-rank p99 when at least [`TAIL_MARGIN`]
/// samples lie beyond it, otherwise the highest percentile that leaves
/// that many beyond it; `None` when there are too few samples for any.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_MARGIN {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // nearest rank of p99, ceil(0.99 n), in integers
    let p99_rank = (99 * n).div_ceil(100);
    let (percentile, rank) = if n - TAIL_MARGIN >= p99_rank {
        (TAIL_CAP, p99_rank)
    } else {
        (100.0 * (n - TAIL_MARGIN) as f64 / n as f64, n - TAIL_MARGIN)
    };
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        samples: n,
    })
}

/// A fixed-size uniform sample of a stream (Algorithm R), so that a
/// run's memory does not grow with how many samples it sees.
#[derive(Debug)]
pub struct Reservoir {
    samples: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: StdRng,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Reservoir {
        // Write the whole buffer once, so that the resident set does not
        // grow while the reservoir fills.
        let mut samples = vec![f64::NAN; capacity];
        samples.clear();
        Reservoir {
            samples,
            capacity,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn add(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
        } else {
            let slot = self.rng.gen_range(0..self.seen);
            if let Ok(slot) = usize::try_from(slot) {
                if slot < self.capacity {
                    self.samples[slot] = value;
                }
            }
        }
    }

    /// How many values were offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
}

impl Metrics {
    /// Add a metric. Panics on an invalid or repeated name, or a value
    /// that is not finite: those are bugs in the benchmark itself.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_metric_name(&name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            self.list.iter().all(|m| m.name != name),
            "metric `{name}` added twice"
        );
        self.list.push(Metric { name, value, unit });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.list.iter()
    }
}

/// The final result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Names and units are checked ASCII without quotes or escapes.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_the_percentile() {
        let values: Vec<f64> = (1..=1010).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.samples, 1010);
        assert!((t.percentile - 99.0).abs() < 1e-9, "{t:?}");
        assert_eq!(t.value, 1000.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_stops_at_p99_on_many_samples() {
        let values: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 9900.0, 10_000));
    }

    #[test]
    fn tail_falls_back_to_a_lower_percentile_on_few_samples() {
        let values: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 30.0);
        assert!(tail(&values[..10]).is_none());
        assert_eq!(tail(&values[..11]).unwrap().value, 30.0);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_fixed_size_sample() {
        let mut small = Reservoir::new(8, 1);
        (0..5).for_each(|i| small.add(f64::from(i)));
        assert_eq!(small.into_samples(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let fill = |seed| {
            let mut r = Reservoir::new(100, seed);
            (0..10_000).for_each(|i| r.add(f64::from(i)));
            assert_eq!(r.seen(), 10_000);
            r.into_samples()
        };
        let sample = fill(3);
        assert_eq!(sample.len(), 100);
        assert_eq!(sample, fill(3));
        assert_ne!(sample, fill(4));
        // a uniform sample of 0..10000 has its median near 5000
        assert!((3000.0..7000.0).contains(&median(&sample)));
    }

    #[test]
    fn metric_names_use_the_restricted_charset() {
        for good in [
            "setup_s",
            "exec.ns_per_insn.fc4",
            "serve.compute_us.yield",
            "9-a",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "q\"uote",
            "slash/x",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.5, "s");
        m.add("latency_p50_ms", 1.25, "ms");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_bad_names() {
        Metrics::default().add("bad name", 1.0, "s");
    }
}
