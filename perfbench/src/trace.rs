//! The benchmark's own span recorder and stage ledger.
//!
//! Spans are recorded in this crate, around calls into each layer's public
//! functions; the library itself is not instrumented. A span belongs to a
//! named stage, and every stage has a parent stage, so a stage's self time
//! is its total minus the totals of its children. Span durations are kept
//! in memory (per stage) and summarised when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Time spent in one named stage.
#[derive(Debug, Default, Clone)]
struct Stage {
    parent: Option<&'static str>,
    total: Duration,
    spans: Vec<Duration>,
}

/// Span durations per named stage.
#[derive(Debug, Default)]
pub struct Ledger {
    stages: BTreeMap<&'static str, Stage>,
    order: Vec<&'static str>,
}

impl Ledger {
    /// Declares `stage` as a child of `parent` (`None` for a root). Stages
    /// are listed in declaration order.
    pub fn declare(&mut self, stage: &'static str, parent: Option<&'static str>) {
        if !self.stages.contains_key(stage) {
            self.order.push(stage);
            self.stages.insert(stage, Stage { parent, ..Stage::default() });
        }
    }

    /// Records one finished span of `stage` that started at `start`.
    pub fn record(&mut self, stage: &'static str, start: Instant) -> Instant {
        let now = Instant::now();
        self.add(stage, now - start);
        now
    }

    /// Records one span of `stage` with a known duration.
    pub fn add(&mut self, stage: &'static str, duration: Duration) {
        let entry =
            self.stages.get_mut(stage).unwrap_or_else(|| panic!("undeclared stage {stage}"));
        entry.total += duration;
        entry.spans.push(duration);
    }

    /// Runs `f` inside one span of `stage`.
    pub fn span<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(stage, start);
        out
    }

    /// Total seconds recorded for `stage` (0 if it never ran).
    pub fn total_s(&self, stage: &str) -> f64 {
        self.stages.get(stage).map_or(0.0, |s| s.total.as_secs_f64())
    }

    /// Self time of `stage`: its total minus its children's totals.
    fn self_s(&self, stage: &str) -> f64 {
        let children: f64 = self
            .stages
            .iter()
            .filter(|(_, s)| s.parent == Some(stage))
            .map(|(_, s)| s.total.as_secs_f64())
            .sum();
        self.total_s(stage) - children
    }

    /// Prints the hot-path table of the stages under `root`: each child's
    /// self time as a share of the root's wall clock, with span-duration
    /// percentiles, and the unaccounted remainder. Returns the unaccounted
    /// share. The child shares plus the unaccounted share sum to one.
    pub fn print_table(&self, root: &'static str) -> f64 {
        let wall = self.total_s(root);
        println!("### Hot path of `{root}`: {wall:.4} s traced wall clock");
        println!();
        println!("| Stage | Spans | Self s | % Time | p75 | p95 | p99 |");
        println!("|-------|-------|--------|--------|-----|-----|-----|");
        let mut accounted = 0.0;
        for name in self.descendants(root) {
            let stage = &self.stages[name];
            let self_s = self.self_s(name);
            accounted += self_s;
            let mut spans = stage.spans.clone();
            spans.sort_unstable();
            let pct = |q: f64| crate::stats::percentile_duration(&spans, q).as_secs_f64() * 1e3;
            println!(
                "| `{name}` | {} | {self_s:.4} | {:.1}% | {:.3}ms | {:.3}ms | {:.3}ms |",
                spans.len(),
                100.0 * self_s / wall.max(1e-12),
                pct(0.75),
                pct(0.95),
                pct(0.99),
            );
        }
        let unaccounted = (wall - accounted) / wall.max(1e-12);
        println!(
            "| (unaccounted) | - | {:.4} | {:.1}% | - | - | - |",
            wall - accounted,
            100.0 * unaccounted
        );
        println!();
        unaccounted
    }

    /// Every stage below `root`, in declaration order.
    fn descendants(&self, root: &str) -> Vec<&'static str> {
        self.order
            .iter()
            .copied()
            .filter(|name| {
                let mut parent = self.stages[name].parent;
                while let Some(p) = parent {
                    if p == root {
                        return true;
                    }
                    parent = self.stages.get(p).and_then(|s| s.parent);
                }
                false
            })
            .collect()
    }
}
