//! Percentiles, the process's peak memory, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Latency samples in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Nearest-rank percentile (`p` in 0..=1).
    pub fn percentile(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Harrell–Davis estimate of the `p` quantile: the order statistics
    /// weighted by the Beta((n+1)p, (n+1)(1-p)) density (taken at each
    /// rank's midpoint, close enough from a hundred samples on). Wakeups
    /// on a tick-driven host make latencies cluster on multiples of the
    /// tick; the sample quantile then jumps from one cluster to the next
    /// between runs, while this estimate moves smoothly.
    pub fn quantile(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len() as f64;
        let (a, b) = ((n + 1.0) * p, (n + 1.0) * (1.0 - p));
        let log_w: Vec<f64> = (0..v.len())
            .map(|i| {
                let x = (i as f64 + 0.5) / n;
                (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
            })
            .collect();
        let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let w: Vec<f64> = log_w.iter().map(|l| (l - top).exp()).collect();
        v.iter().zip(&w).map(|(x, w)| x * w).sum::<f64>() / w.iter().sum::<f64>()
    }

    /// Samples strictly above the `p` percentile.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.percentile(p);
        self.0.iter().filter(|&&x| x > cut).count()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

/// The median of a few repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process in MiB: the most resident memory it has had.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for ms in 1..=100u64 {
            s.push(Duration::from_millis(ms));
        }
        assert!((s.percentile(0.5) - 50.0).abs() < 1e-9);
        assert!((s.percentile(0.9) - 90.0).abs() < 1e-9);
        assert_eq!(s.beyond(0.9), 10);
        assert!((s.quantile(0.5) - 50.5).abs() < 0.01);
        assert!((s.quantile(0.9) - 90.5).abs() < 0.2);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
