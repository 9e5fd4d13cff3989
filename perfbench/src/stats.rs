//! Order statistics over samples.

/// Linear-interpolated quantile `q` in `[0, 1]`; `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p90 and p50 that leaves at least ten samples beyond it
/// (the median when neither does), with which percentile it is.
pub fn tail(samples: &[f64]) -> (f64, u32) {
    let p = if samples.len() >= 100 { 90 } else { 50 };
    (quantile(samples, f64::from(p) / 100.0), p)
}
