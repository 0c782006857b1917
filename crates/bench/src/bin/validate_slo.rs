//! SLO gate for the `identd` load test: fails (exit 1) when throughput
//! regresses or decision latency inflates beyond tolerance against the
//! committed baseline.
//!
//! ```text
//! cargo run -p bench --bin validate_slo -- \
//!     --baseline crates/bench/baselines/BENCH_identd.json \
//!     --current BENCH_identd.json \
//!     [--tolerance 0.25] [--latency-tolerance 1.0]
//! ```
//!
//! Unlike `perf_gate` (higher-is-better only), this gate watches both
//! directions: `tx_per_sec` must not *drop* more than `--tolerance`
//! (fractional), and `latency_p99_ms` must not *grow* more than
//! `--latency-tolerance`. Latency gets a looser default because queueing
//! percentiles on shared CI runners are noisier than throughput; both
//! knobs absorb runner variance while still catching real regressions.

use bench::{gate, json, ExperimentConfig};

/// Watched higher-is-better metrics.
const THROUGHPUT_METRICS: &[&str] = &["tx_per_sec"];
/// Watched lower-is-better metrics.
const LATENCY_METRICS: &[&str] = &["latency_p99_ms"];

fn main() {
    let baseline_path = required("--baseline");
    let current_path = required("--current");
    let tolerance: f64 = flag_or("--tolerance", 0.25);
    let latency_tolerance: f64 = flag_or("--latency-tolerance", 1.0);

    let baseline = load(&baseline_path);
    let current = load(&current_path);

    println!(
        "IDENTD SLO GATE  {current_path} vs baseline {baseline_path} \
         (throughput -{:.0} %, latency +{:.0} %)",
        tolerance * 100.0,
        latency_tolerance * 100.0,
    );

    let mut failed = false;

    // Throughput: reuse the perf gate's higher-is-better check.
    let checks = gate::check(&baseline, &current, THROUGHPUT_METRICS, tolerance)
        .unwrap_or_else(|e| die(&format!("gate error: {e}")));
    for check in &checks {
        report(&check.metric, check.baseline, check.current, check.ratio, check.pass);
        failed |= !check.pass;
    }

    // Latency: lower is better — pass iff current <= baseline * (1 + tol).
    for &metric in LATENCY_METRICS {
        let base = lookup(&baseline, metric)
            .unwrap_or_else(|| die(&format!("baseline is missing metric {metric:?}")));
        let cur = lookup(&current, metric)
            .unwrap_or_else(|| die(&format!("current run is missing metric {metric:?}")));
        let ratio = if base == 0.0 { f64::INFINITY } else { cur / base };
        // A zero baseline only accepts (near-)zero current latency.
        let pass = cur <= base * (1.0 + latency_tolerance) + 1e-9;
        report(metric, base, cur, ratio, pass);
        failed |= !pass;
    }

    if failed {
        die("SLO gate failed: throughput regressed or latency inflated beyond tolerance");
    }
}

fn report(metric: &str, baseline: f64, current: f64, ratio: f64, pass: bool) {
    println!(
        "  {:<18} baseline {:>12.3}  current {:>12.3}  ratio {:>6.2}x  {}",
        metric,
        baseline,
        current,
        ratio,
        if pass { "ok" } else { "SLO VIOLATION" },
    );
}

fn lookup(pairs: &[(String, f64)], metric: &str) -> Option<f64> {
    pairs.iter().find(|(k, _)| k == metric).map(|&(_, v)| v)
}

fn load(path: &str) -> Vec<(String, f64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    json::metrics(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
}

fn flag_or(name: &str, default: f64) -> f64 {
    ExperimentConfig::arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} parse error: {e:?}")))
        .unwrap_or(default)
}

fn required(name: &str) -> String {
    ExperimentConfig::arg_value(name).unwrap_or_else(|| {
        die(&format!(
            "usage: validate_slo --baseline FILE --current FILE \
             [--tolerance F] [--latency-tolerance F] (missing {name})"
        ))
    })
}

fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}
