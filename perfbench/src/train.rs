//! The `train_grid` workload: compute window sets, run the per-user
//! kernel × regularization sweep (`ModelGridSearch::sweep_all` with
//! library defaults), fit the selected profiles and save them.
//!
//! Every timed pass starts cold: a fresh kernel-row arena whose budget is
//! half the per-user Gram bytes, as the `sweep` benchmark uses, so the
//! working set overflows the cache.

use crate::corpus::{kept_users, repeated_setup};
use crate::stats::median;
use crate::trace::Ledger;
use crate::{Args, Report};
use ocsvm::{KernelKind, KernelRowArena, SparseVector};
use proxylog::{Dataset, Transaction, PAPER_TRAIN_FRACTION};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use streamid::ModelStore;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    compute_window_sets, parallel_map, ConfusionMatrix, ModelGridSearch, ModelKind, ProfileParams,
    ProfileTrainer, SweepStats, UserProfile, Vocabulary, WindowConfig, WindowSets,
};

/// Nominal seconds of one training pass (2-core host).
const PASS_S: f64 = 2.2;
/// Training transactions kept per user: 75 % of the 1,500 every kept
/// user has at least.
const TRAIN_TX_PER_USER: usize = 1_125;
/// Per-user window cap for training and evaluation.
const MAX_WINDOWS: usize = 400;

struct TrainCorpus {
    vocab: Vocabulary,
    train: Dataset,
    test: Dataset,
    generated: usize,
}

/// One timed training pass.
struct TrainPass {
    seconds: f64,
    params: BTreeMap<proxylog::UserId, ProfileParams>,
    profiles: BTreeMap<proxylog::UserId, UserProfile>,
    stats: SweepStats,
    fit_failures: u64,
}

/// Runs `train_grid`.
pub fn train_grid(args: &Args, dir: &Path) -> Report {
    let (corpus, setup_s, setup) = repeated_setup(args.trace, |ledger| build(args.seed, ledger));
    let store = dir.join("store");
    let mut report = Report::default();
    let test_windows = compute_window_sets(
        &corpus.vocab,
        &corpus.test,
        WindowConfig::PAPER_DEFAULT,
        Some(MAX_WINDOWS),
    );
    if args.trace {
        traced(&corpus, &store, &setup, &test_windows, &mut report);
        return report;
    }
    report.set("setup_s", setup_s);

    // A warm-up pass, untimed: the reference selection.
    let first = train_pass(&corpus, &store, &mut pass_ledger());
    report.count("warm-up profile fits", first.params.len() as u64, first.fit_failures);
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..args.reps(1.0, PASS_S) {
        let pass = train_pass(&corpus, &store, &mut pass_ledger());
        report.count("profile fits", pass.params.len() as u64, pass.fit_failures);
        let differ = first.params.iter().filter(|(u, p)| pass.params.get(u) != Some(p)).count();
        report.count("selections vs the warm-up pass", first.params.len() as u64, differ as u64);
        seconds.push(pass.seconds);
        last = Some(pass);
    }
    eprintln!("# pass times (s): {seconds:?}");
    // Throughput and latency from the median pass: the host's speed drifts
    // by tens of percent for seconds at a time, both ways. Latency is the
    // time to retrain every profile; with one sample per pass no
    // percentile has samples beyond it, so both slots hold the median.
    let typical = median(&mut seconds);
    report.set("ops_per_s", first.params.len() as f64 / typical);
    report.set("latency_p50_ms", typical * 1e3);
    report.set("latency_p99_ms", typical * 1e3);

    // Output check, untimed: the saved profiles decide held-out windows
    // exactly as the fitted ones.
    let loaded = ModelStore::new(&store).load().expect("reloading the saved profiles");
    let probes: Vec<&SparseVector> = test_windows.values().flatten().collect();
    let fitted = &last.expect("at least one timed pass").profiles;
    let (checked, wrong) = roundtrip_mismatches(fitted, &loaded, &probes);
    report.count("saved-profile decisions vs fitted", checked, wrong);

    // Quality on the held-out 25 %.
    let acc = ConfusionMatrix::compute(&loaded, &test_windows).summary();
    eprintln!("# held-out {acc}");
    report.set("accuracy", acc.acc());
    println!(
        "corpus: {} transactions generated, {} training / {} held-out, {} users, {} selected \
         profiles, {} sweep cells, {} held-out windows",
        corpus.generated,
        corpus.train.len(),
        corpus.test.len(),
        corpus.train.users().len(),
        loaded.len(),
        first.stats.cells,
        probes.len()
    );
    report
}

/// Generates the paper-scale corpus (36 users, 26 weeks, rate 1.0), keeps
/// the first [`USERS`](crate::corpus::USERS) users with at least 1,500 transactions and splits
/// each 75/25. Every user then trains on the same number of transactions,
/// so the sweep's cost varies little with the seed.
fn build(seed: u64, ledger: &mut Ledger) -> TrainCorpus {
    let scenario = Scenario::evaluation(26, 1.0).with_seed(seed);
    let generated = ledger.span("tracegen.generate", || TraceGenerator::new(scenario).generate());
    let taxonomy = Arc::clone(generated.taxonomy());
    let filtered = kept_users(&generated);
    let (train, test) = filtered.split_chronological_per_user(PAPER_TRAIN_FRACTION);
    // The same amount of training input for every user and seed: each
    // user's most recent training transactions.
    let recent: Vec<Transaction> = train
        .users()
        .into_iter()
        .flat_map(|user| {
            let txs: Vec<Transaction> = train.for_user(user).copied().collect();
            txs[txs.len().saturating_sub(TRAIN_TX_PER_USER)..].to_vec()
        })
        .collect();
    let train = Dataset::new(Arc::clone(&taxonomy), recent);
    TrainCorpus { vocab: Vocabulary::new(taxonomy), train, test, generated: generated.len() }
}

/// A ledger with the training pass's stages declared.
fn pass_ledger() -> Ledger {
    let mut ledger = Ledger::default();
    ledger.declare("train_pass", None);
    for stage in ["gridsearch.window_sets", "gridsearch.sweep", "gridsearch.fit", "store.save"] {
        ledger.declare(stage, Some("train_pass"));
    }
    ledger
}

/// Window sets → budgeted sweep → fit the selected profiles → save.
fn train_pass(corpus: &TrainCorpus, store: &Path, ledger: &mut Ledger) -> TrainPass {
    let window = WindowConfig::PAPER_DEFAULT;
    let start = Instant::now();
    let sets = ledger.span("gridsearch.window_sets", || {
        compute_window_sets(&corpus.vocab, &corpus.train, window, Some(MAX_WINDOWS))
    });
    let gram_bytes: usize = sets
        .values()
        .map(|w| w.len() * w.len() * std::mem::size_of::<f64>() * KernelKind::ALL.len())
        .sum();
    let arena = KernelRowArena::with_budget((gram_bytes / 2).max(64 << 10));
    let search = ModelGridSearch::new(&corpus.vocab, window, ModelKind::Svdd).arena(arena);
    let (params, stats) = ledger.span("gridsearch.sweep", || search.sweep_all(&sets));
    let (profiles, fit_failures) = ledger.span("gridsearch.fit", || fit(corpus, &sets, &params));
    ledger.span("store.save", || {
        let _ = std::fs::remove_dir_all(store);
        std::fs::create_dir_all(store).expect("creating the model store");
        ModelStore::new(store).save(&profiles).expect("saving profiles")
    });
    let seconds = ledger.record("train_pass", start).duration_since(start).as_secs_f64();
    TrainPass { seconds, params, profiles, stats, fit_failures }
}

/// Trains each user's profile at its selected parameters.
fn fit(
    corpus: &TrainCorpus,
    sets: &WindowSets,
    params: &BTreeMap<proxylog::UserId, ProfileParams>,
) -> (BTreeMap<proxylog::UserId, UserProfile>, u64) {
    let entries: Vec<(&proxylog::UserId, &ProfileParams)> = params.iter().collect();
    let fitted = parallel_map(&entries, |(&user, p)| {
        ProfileTrainer::new(&corpus.vocab)
            .window(WindowConfig::PAPER_DEFAULT)
            .kind(p.kind)
            .kernel(p.kernel)
            .regularization(p.regularization)
            .train_from_vectors(user, sets.get(&user)?)
            .ok()
            .map(|profile| (user, profile))
    });
    let failures = fitted.iter().filter(|f| f.is_none()).count() as u64;
    (fitted.into_iter().flatten().collect(), failures)
}

/// Decision values of the fitted and the reloaded profiles over `probes`;
/// returns `(checked, differing)` (profile, window) pairs.
fn roundtrip_mismatches(
    fitted: &BTreeMap<proxylog::UserId, UserProfile>,
    loaded: &BTreeMap<proxylog::UserId, UserProfile>,
    probes: &[&SparseVector],
) -> (u64, u64) {
    let mut wrong = fitted.len().abs_diff(loaded.len()) as u64;
    for (user, profile) in fitted {
        let Some(reloaded) = loaded.get(user) else { continue };
        let a = profile.batch_decision_values(probes);
        let b = reloaded.batch_decision_values(probes);
        wrong += a.iter().zip(&b).filter(|(x, y)| x.to_bits() != y.to_bits()).count() as u64;
    }
    ((fitted.len() * probes.len()) as u64, wrong)
}

fn traced(
    corpus: &TrainCorpus,
    store: &Path,
    setup: &Ledger,
    test_windows: &WindowSets,
    report: &mut Report,
) {
    let untraced = train_pass(corpus, store, &mut pass_ledger());
    let mut ledger = pass_ledger();
    let pass = train_pass(corpus, store, &mut ledger);
    report.count(
        "profile fits",
        (untraced.params.len() + pass.params.len()) as u64,
        untraced.fit_failures + pass.fit_failures,
    );
    let differ = untraced.params.iter().filter(|(u, p)| pass.params.get(u) != Some(p)).count();
    report.count("selections vs the untraced pass", untraced.params.len() as u64, differ as u64);
    println!(
        "## train_grid traced ledger ({} users, {} cells)",
        pass.params.len(),
        pass.stats.cells
    );
    let unaccounted = ledger.print_table("train_pass");

    // Held-out scoring: each selected profile over every held-out window.
    let probes: Vec<&SparseVector> = test_windows.values().flatten().collect();
    let start = Instant::now();
    for profile in pass.profiles.values() {
        std::hint::black_box(profile.batch_decision_values(&probes));
    }
    let score = start.elapsed().as_secs_f64();
    let pairs = pass.profiles.len() * probes.len();

    let stats = pass.stats;
    let sweep = ledger.total_s("gridsearch.sweep");
    report.set("tracegen.generate_s", setup.total_s("tracegen.generate"));
    report.set("gridsearch.window_sets_s", ledger.total_s("gridsearch.window_sets"));
    report.set("gridsearch.sweep_s", sweep);
    report.set("gridsearch.fit_s", ledger.total_s("gridsearch.fit"));
    report.set("gridsearch.cells_per_s", stats.cells as f64 / sweep);
    let cells = (stats.warm_cells + stats.cold_cells).max(1);
    report.set(
        "smo.iterations_per_cell",
        (stats.warm_iterations + stats.cold_iterations) as f64 / cells as f64,
    );
    report.set("solver.approx_cells", stats.approx_cells as f64);
    report.set("solver.auto_fallbacks", stats.auto_fallbacks as f64);
    report.set("arena.hit_rate", stats.arena.hit_rate());
    report.set("arena.fills", stats.arena.fills as f64);
    report.set("arena.evictions", stats.arena.evictions as f64);
    report.set("arena.peak_bytes", stats.arena.peak_bytes as f64);
    report.set("parcore.steals", stats.steals as f64);
    report.set("store.save_s", ledger.total_s("store.save"));
    report.set("score.s", score);
    report.set("score.pairs", pairs as f64);
    report.set("score.ns_per_pair", score * 1e9 / pairs.max(1) as f64);
    let wall = ledger.total_s("train_pass");
    report.set("trace.wall_s", wall);
    report.set("trace.overhead_ratio", wall / untraced.seconds);
    report.set("trace.unaccounted_share", unaccounted);
}
