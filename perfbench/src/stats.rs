//! Sample statistics, seed derivation and process memory.

use std::time::{Duration, Instant};

/// Median (mean of the two middle values for an even count). Empty
/// input gives 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) and how many samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it (p50 when there are fewer than twenty
/// samples): `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        let (value, beyond) = percentile(values, p);
        if beyond >= 10 {
            return (p, value);
        }
    }
    (50.0, percentile(values, 50.0).0)
}

/// Repeats `f` until at least `min` has elapsed (and at least once) and
/// returns the median seconds per call.
pub fn repeat_median(min: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed() < min {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// SplitMix64 step: a well-mixed pure function of its input.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th campaign seed a workload derives from its workload seed:
/// a pure function of (workload seed, tag, i), kept below 10^9 so specs
/// stay readable.
pub fn derive_seed(workload_seed: u64, tag: &str, i: u64) -> u64 {
    let mut h = splitmix64(workload_seed);
    for b in tag.bytes() {
        h = splitmix64(h ^ b as u64);
    }
    1 + splitmix64(h ^ i) % 999_999_999
}

/// Peak resident set (`VmHWM`) in MiB from a `/proc/<pid>/status` text.
pub fn vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set in MiB.
pub fn self_peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), (990.0, 10));
        assert_eq!(tail(&v), (99.0, 990.0));
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
    }

    #[test]
    fn seeds_are_pure_and_spread() {
        assert_eq!(derive_seed(1, "a", 0), derive_seed(1, "a", 0));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(2, "a", 0));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "b", 0));
        assert_ne!(derive_seed(1, "a", 0), derive_seed(1, "a", 1));
    }

    #[test]
    fn parses_vm_hwm() {
        let s = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_mib(s), Some(2.0));
    }
}
