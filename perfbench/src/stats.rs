//! Nearest-rank quantiles and the timing row every figure is printed
//! with: the median plus the highest percentile the sample supports.

/// Tail percentiles a timing row may report, lowest first.
const TAILS: [f64; 5] = [0.90, 0.95, 0.99, 0.999, 0.9999];

/// Samples that must rank above a tail percentile before it is shown.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based) of the nearest-rank `q` quantile in a sample of `n`.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps e.g. 0.99 * 1000 from rounding up to rank 991.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending-sorted, non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(q, sorted.len()) - 1]
}

/// `values` in ascending order.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Samples a quiet quartile needs; below this a quartile is itself noisy
/// and [`quiet_quartile`] gives the median.
pub const QUIET_MIN: usize = 20;

/// The quiet-quartile figure of a non-empty sample of measurements taken
/// at moments spread over a run: the nearest-rank first quartile of a
/// time (`lower_is_better`), the third of a rate. A shared machine slows
/// every measurement it interferes with and speeds up none, so this moves
/// only when at least three quarters of the run is slowed, as a change to
/// the program slows it, and not when the host stalls for part of it.
pub fn quiet_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    let q = match (values.len() >= QUIET_MIN, lower_is_better) {
        (false, _) => 0.5,
        (true, true) => 0.25,
        (true, false) => 0.75,
    };
    quantile(&sorted(values.to_vec()), q)
}

/// The highest tail percentile with at least [`MIN_BEYOND`] samples
/// ranked above it, or `None` when even p90 is unsupported.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|&q| n >= MIN_BEYOND && n - rank(q, n) >= MIN_BEYOND)
}

/// Formats a percentile such as 0.999 as `p99.9`.
fn percentile_name(q: f64) -> String {
    let p = format!("{:.2}", q * 100.0);
    format!("p{}", p.trim_end_matches('0').trim_end_matches('.'))
}

/// One timing row: `p50 … , p99 … (n=…)`.
pub fn row(values: &[f64], unit: &str) -> String {
    if values.is_empty() {
        return "no samples".to_owned();
    }
    let s = sorted(values.to_vec());
    let mut out = format!("p50 {:.3} {unit}", quantile(&s, 0.5));
    if let Some(q) = supported_tail(s.len()) {
        out.push_str(&format!(
            ", {} {:.3} {unit}",
            percentile_name(q),
            quantile(&s, q)
        ));
    }
    out.push_str(&format!(" (n={})", s.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&thousand, 0.99), 990.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn the_quiet_quartile_ignores_a_stall_over_half_the_run() {
        // Twenty samples, the last twelve slowed by a stall of the host.
        let mut times = vec![1.0; 8];
        times.extend([5.0; 12]);
        times[0] = 0.9;
        assert_eq!(median(&times), 5.0);
        assert_eq!(quiet_quartile(&times, true), 1.0);
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert_eq!(quiet_quartile(&rates, false), 1.0);
        // A change that slows every sample moves it in full.
        let slower: Vec<f64> = times.iter().map(|t| t * 1.5).collect();
        assert_eq!(quiet_quartile(&slower, true), 1.5);
        // Too few samples for a quartile: the median.
        assert_eq!(quiet_quartile(&times[..QUIET_MIN - 1], true), 5.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(9), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(100_000), Some(0.9999));
    }

    #[test]
    fn rows_print_p99_only_when_supported() {
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(row(&small, "ms"), "p50 25.000 ms (n=50)");
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(row(&big, "ms"), "p50 500.000 ms, p99 990.000 ms (n=1000)");
        let huge: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert!(row(&huge, "us").contains("p99.9 9990.000 us"));
        assert_eq!(row(&[], "ms"), "no samples");
    }
}
