//! Small statistics and process helpers.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (0 for an empty slice).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// [`percentile`] over durations.
pub fn percentile_duration(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts `values` and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Latency samples in milliseconds from repetitions of the same work, the
/// `i`-th sample of every repetition measuring the same item. Each item's
/// latency is its median over the repetitions: a hiccup of the host hits
/// one repetition, not all, so the median drops it while the items that
/// are slow by their nature stay slow. Returns the p50 and p99 over the
/// items.
pub fn typical_latency(what: &str, repetitions: &[Vec<f64>]) -> (f64, f64) {
    let items = repetitions[0].len();
    assert!(
        repetitions.iter().all(|r| r.len() == items),
        "{what}: repetitions measured different items"
    );
    assert!(items >= 1_000, "{what}: {items} items leave fewer than ten beyond the p99");
    let mut typical: Vec<f64> = (0..items)
        .map(|i| median(&mut repetitions.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    typical.sort_by(f64::total_cmp);
    let q = |p| percentile(&typical, p);
    eprintln!(
        "# {what}: {} repetitions of {items} items, p50 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} \
         p99.9 {:.4} ms",
        repetitions.len(),
        q(0.5),
        q(0.9),
        q(0.95),
        q(0.99),
        q(0.999)
    );
    (q(0.5), q(0.99))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
