//! Sample summaries and the metric list every workload reports.

/// Linear-interpolation quantile of `v` (`q` in 0..=1); NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

/// One reported number: its value, unit, and how many samples it
/// summarizes (1 for a count or a single measurement).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Ordered metric collection of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Median of `v` under `name`.
    pub fn median(&mut self, name: &str, v: &[f64], unit: &'static str) {
        self.put(name, median(v), unit, v.len());
    }

    /// `name.p50` and `name.p90` of `v`.
    pub fn p50_p90(&mut self, name: &str, v: &[f64], unit: &'static str) {
        self.put(format!("{name}.p50"), quantile(v, 0.5), unit, v.len());
        self.put(format!("{name}.p90"), quantile(v, 0.9), unit, v.len());
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }
}
