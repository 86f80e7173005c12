//! Estimators over the timed rounds, and the process's peak memory.

/// Nearest-rank quantile of an ascending slice: the smallest element with
/// at least `q` of the samples at or below it. Never interpolates, so the
/// result is always a measured value.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of the timed rounds of one run (all in µs).
#[derive(Debug, Clone, PartialEq)]
pub struct Rounds {
    /// Rounds timed.
    pub count: usize,
    /// Fastest round — the host-time estimator the end-to-end metrics use.
    pub min_us: f64,
    /// Median round (diagnostic: it drifts with the neighbours' load).
    pub p50_us: f64,
    /// 90th-percentile round (diagnostic).
    pub p90_us: f64,
    /// Coefficient of variation of the rounds (diagnostic).
    pub cv: f64,
}

impl Rounds {
    /// Summarises round durations given in µs.
    ///
    /// # Panics
    ///
    /// Panics if `rounds_us` is empty.
    pub fn summarize(rounds_us: &[f64]) -> Self {
        let mut sorted = rounds_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Rounds {
            count: sorted.len(),
            min_us: sorted[0],
            p50_us: quantile(&sorted, 0.50),
            p90_us: quantile(&sorted, 0.90),
            cv: var.sqrt() / mean,
        }
    }
}

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.91), 10.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn rounds_summary_uses_the_minimum_and_ignores_order() {
        let r = Rounds::summarize(&[30.0, 10.0, 20.0, 40.0]);
        assert_eq!(r.count, 4);
        assert_eq!(r.min_us, 10.0);
        assert_eq!(r.p50_us, 20.0);
        assert_eq!(r.p90_us, 40.0);
        // mean 25, population sd sqrt(125)
        assert!((r.cv - 125f64.sqrt() / 25.0).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }
}
