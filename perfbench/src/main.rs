//! Repository benchmark: drives the deployed paths (`StreamEngine`,
//! `identd::Daemon`, `ModelGridSearch`) on generated corpora and prints
//! every end-to-end metric (untraced run) or every per-layer metric
//! (traced run), checking the outputs either way.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_stream --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod corpus;
mod stats;
mod stream;
mod tenants;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("accuracy", "ratio"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, reported by every traced run (zero where the
/// workload does not exercise the layer): `(name, unit)`.
const PER_LAYER: [(&str, &str); 57] = [
    ("tracegen.generate_s", "s"),
    ("proxylog.format_s", "s"),
    ("proxylog.parse_s", "s"),
    ("proxylog.parse_ns_per_line", "ns"),
    ("proxylog.lines", "count"),
    ("proxylog.parse_errors", "count"),
    ("window.offer_s", "s"),
    ("window.closed", "count"),
    ("window.late_dropped", "count"),
    ("window.nnz_p50", "count"),
    ("window.nnz_p90", "count"),
    ("prefilter.build_s", "s"),
    ("prefilter.shortlist_s", "s"),
    ("prefilter.candidates_per_window", "count"),
    ("prefilter.accept_ratio", "ratio"),
    ("score.s", "s"),
    ("score.pairs", "count"),
    ("score.ns_per_pair", "ns"),
    ("score.batches", "count"),
    ("score.batch_mean", "count"),
    ("score.weight_columns_p50", "count"),
    ("vote.s", "s"),
    ("engine.observe_s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.windows_scored", "count"),
    ("engine.windows_shed", "count"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("proto.encode_s", "s"),
    ("proto.encode_ns_per_record", "ns"),
    ("proto.bytes_per_record", "bytes"),
    ("proto.tx_json_s", "s"),
    ("identd.ingest_rpc_s", "s"),
    ("identd.decide_rpc_s", "s"),
    ("identd.server_s", "s"),
    ("identd.overloaded", "count"),
    ("identd.error_replies", "count"),
    ("identd.queue_depth_max", "count"),
    ("gridsearch.window_sets_s", "s"),
    ("gridsearch.sweep_s", "s"),
    ("gridsearch.fit_s", "s"),
    ("gridsearch.cells_per_s", "1/s"),
    ("smo.iterations_per_cell", "count"),
    ("solver.approx_cells", "count"),
    ("solver.auto_fallbacks", "count"),
    ("arena.hit_rate", "ratio"),
    ("arena.fills", "count"),
    ("arena.evictions", "count"),
    ("arena.peak_bytes", "bytes"),
    ("parcore.steals", "count"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("train.profiles_s", "s"),
    ("driver.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.wall_s", "s"),
    ("process.peak_rss_mb", "MiB"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Repetitions of a unit of work that takes about `nominal_s` seconds
    /// on a 2-core host, so they measure about `share` of `--seconds`. The
    /// count depends on `--seconds` only, never on elapsed time: a faster
    /// build does the same work in less time, and memory use does not
    /// depend on speed.
    pub fn reps(&self, share: f64, nominal_s: f64) -> usize {
        (self.share_s(share) / nominal_s).ceil().max(1.0) as usize
    }

    /// `share` of the `--seconds` budget, in seconds.
    pub fn share_s(&self, share: f64) -> f64 {
        self.seconds.as_secs_f64() * share
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (parse errors, shed or late windows,
    /// refused replies, output mismatches).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        eprintln!("# {what}: {failed} failed of {attempted}");
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let workload: fn(&Args, &Path) -> Report = match args.workload.as_str() {
        "paper_stream" => stream::paper_stream,
        "train_grid" => train::train_grid,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let work_root = Path::new(".perfbench-work");
    let work_dir = work_root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("creating the work directory");
    let mut report = workload(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    // The parent goes too, unless another run still uses it.
    let _ = std::fs::remove_dir(work_root);
    if args.trace {
        report.set("process.peak_rss_mb", stats::peak_rss_mb());
    } else {
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.set("ok_ratio", ok);
    }
    println!("{}", result_json(&report, args.trace));
}

/// The result line: every metric of the run's kind, with its unit.
fn result_json(report: &Report, trace: bool) -> String {
    let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = match report.metrics.get(name) {
                Some(&value) => value,
                // A traced run reports layers its workload never calls as 0.
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    for name in report.metrics.keys() {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == name),
            "metric {name} is not in the catalog"
        );
    }
    assert!(report.attempted > 0, "a run must attempt at least one operation");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
