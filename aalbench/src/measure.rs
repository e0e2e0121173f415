//! Order statistics and the two `/proc` probes the metrics need.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice so an absent layer reads as zero.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile: the smallest value with at least `p` of the
/// samples at or below it. Returns the value and how many samples lie
/// strictly beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let v = sorted(values);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the driver's
/// spread is `(q3 - q1) / median` of these).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in ms.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), (60.0, 60));
        assert_eq!(percentile(&v, 0.9), (108.0, 12));
    }
}
