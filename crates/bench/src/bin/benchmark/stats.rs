//! Order statistics and `/proc/self/status` probes.

/// Linear-interpolated quantile of `sorted` (ascending) at `q` in `[0, 1]`;
/// 0 for an empty sample so every metric stays a finite number.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            sorted[lo] + (sorted[(lo + 1).min(n - 1)] - sorted[lo]) * frac
        }
    }
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, median, q3, min, max)` of an unsorted sample. The quartiles are
/// those of Python's `statistics.quantiles(values, n=4)` (its default
/// "exclusive" method, rank `q · (n + 1)`), because that is what the
/// acceptance rule for this benchmark computes spreads from.
pub fn five(values: &[f64]) -> (f64, f64, f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |quarter: usize| match n {
        0 => 0.0,
        1 => v[0],
        _ => {
            let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
            let delta = (quarter * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        }
    };
    (cut(1), cut(2), cut(3), v.first().copied().unwrap_or(0.0), v.last().copied().unwrap_or(0.0))
}

/// One numeric field of `/proc/self/status` (`VmHWM`, `VmRSS` in kB;
/// `Threads` as a count). A counting allocator would need `unsafe`, which
/// lintcheck L4 forbids workspace-wide, so memory is read from the kernel.
pub fn proc_status(field: &str) -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM") / 1024.0
}

/// Current resident set of this process, in MB.
pub fn rss_mb() -> f64 {
    proc_status("VmRSS") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [46.0, 1.0, 22.0, 2.0, 37.0, 4.0, 29.0, 7.0, 16.0, 11.0];
        assert_eq!(five(&v), (3.5, 13.5, 31.0, 1.0, 46.0));
        // statistics.quantiles([10, 20], n=4) extrapolates past the sample.
        assert_eq!(five(&[20.0, 10.0]), (7.5, 15.0, 22.5, 10.0, 20.0));
        assert_eq!(five(&[3.0]), (3.0, 3.0, 3.0, 3.0, 3.0));
    }

    #[test]
    fn proc_probes_read_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(proc_status("Threads") >= 1.0);
    }
}
