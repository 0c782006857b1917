//! Set-up shared by the streaming workloads: the paper-scale corpus, its
//! trained profiles (shipped through a `ModelStore`) and the replayed
//! stream rendered as log text.

use crate::trace::Ledger;
use proxylog::{
    write_log, Dataset, Taxonomy, UserId, PAPER_MIN_TRANSACTIONS_PER_USER, PAPER_TRAIN_FRACTION,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use streamid::ModelStore;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{ProfileTrainer, UserProfile, Vocabulary};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Transactions replayed: each kept user's oldest transactions of the
/// newer 25 %, up to this many over all [`USERS`] users.
const REPLAY_LINES: usize = 360_000;

/// Per-user training-window cap of the paper-scale run.
const MAX_TRAINING_WINDOWS: usize = 2_000;

/// Users kept: the first this-many users with at least 1,500 transactions,
/// by id (every seed tried keeps 25 or more), so every seed enrolls and
/// scores the same number of profiles.
pub const USERS: usize = 24;

/// The first [`USERS`] users of `dataset` with at least 1,500
/// transactions, by id.
pub fn kept_users(dataset: &Dataset) -> Dataset {
    let filtered = dataset.filter_min_transactions(PAPER_MIN_TRANSACTIONS_PER_USER);
    let users: Vec<UserId> = filtered.users().into_iter().take(USERS).collect();
    let kept = filtered.transactions().iter().filter(|tx| users.contains(&tx.user)).copied();
    Dataset::new(Arc::clone(dataset.taxonomy()), kept.collect())
}

/// The paper-scale corpus, trained and ready to replay.
pub struct PaperCorpus {
    /// Taxonomy the log text is written in.
    pub taxonomy: Arc<Taxonomy>,
    /// Feature vocabulary.
    pub vocab: Vocabulary,
    /// Profiles as reloaded from the model store.
    pub profiles: BTreeMap<UserId, UserProfile>,
    /// The replayed part (the start of the newer 25 %), the offline
    /// oracle's input.
    pub replay: Dataset,
    /// `replay` rendered as log text, the program's input.
    pub log: Vec<u8>,
    /// Transactions generated before filtering.
    pub generated: usize,
    /// The model store the profiles were shipped through.
    pub store: PathBuf,
}

impl PaperCorpus {
    /// Generates the 36-user, 26-week, full-rate corpus for `seed`, keeps
    /// [`kept_users`], trains one profile per user
    /// on the older 75 %, saves the profiles to `store_dir` and reloads
    /// them, and renders the newer 25 % as log text. Spans go under
    /// `setup` in `ledger`.
    pub fn build(seed: u64, store_dir: &Path, ledger: &mut Ledger) -> Self {
        let scenario = Scenario::evaluation(26, 1.0).with_seed(seed);
        let generated =
            ledger.span("tracegen.generate", || TraceGenerator::new(scenario).generate());
        let taxonomy = Arc::clone(generated.taxonomy());
        let generated_len = generated.len();
        let filtered = kept_users(&generated);
        drop(generated);
        let (train, replay) = filtered.split_chronological_per_user(PAPER_TRAIN_FRACTION);
        drop(filtered);
        // The same share of the stream for every user: how heavy a seed's
        // heaviest users are then changes the traffic little.
        let per_user = REPLAY_LINES / USERS;
        let kept: Vec<_> =
            replay.users().into_iter().flat_map(|u| replay.for_user(u).take(per_user)).collect();
        let replay = Dataset::new(Arc::clone(&taxonomy), kept.into_iter().copied().collect());
        let vocab = Vocabulary::new(Arc::clone(&taxonomy));
        let log = ledger.span("proxylog.format", || {
            let mut log = Vec::with_capacity(replay.len() * 128);
            write_log(&mut log, replay.transactions(), &taxonomy).expect("rendering the log");
            log
        });
        let (trained, failures) = ledger.span("train.profiles", || {
            ProfileTrainer::new(&vocab).max_training_windows(MAX_TRAINING_WINDOWS).train_all(&train)
        });
        assert!(failures.is_empty(), "profile training failed: {failures:?}");
        let profiles = ship(&trained, store_dir, ledger);
        let store = store_dir.to_path_buf();
        Self { taxonomy, vocab, profiles, replay, log, generated: generated_len, store }
    }

    /// Log lines in the replayed stream.
    pub fn lines(&self) -> usize {
        self.replay.len()
    }
}

/// Declares the set-up stages.
fn declare_setup(ledger: &mut Ledger) {
    ledger.declare("setup", None);
    for stage in
        ["tracegen.generate", "proxylog.format", "train.profiles", "store.save", "store.load"]
    {
        ledger.declare(stage, Some("setup"));
    }
}

/// Saves `profiles` through a `ModelStore` in `dir` and loads them back,
/// as a deployment ships trained models.
fn ship(
    profiles: &BTreeMap<UserId, UserProfile>,
    dir: &Path,
    ledger: &mut Ledger,
) -> BTreeMap<UserId, UserProfile> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("creating the model store");
    let store = ModelStore::new(dir);
    let saved = ledger.span("store.save", || store.save(profiles).expect("saving profiles"));
    assert_eq!(saved, profiles.len(), "store saved every profile");
    ledger.span("store.load", || store.load().expect("loading profiles"))
}

/// Runs `build` [`SETUP_REPS`] times (once when traced) inside a `setup`
/// span, returning the last result, the median set-up time in seconds and
/// the last set-up's ledger.
pub fn repeated_setup<T>(trace: bool, mut build: impl FnMut(&mut Ledger) -> T) -> (T, f64, Ledger) {
    let reps = if trace { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let mut ledger = Ledger::default();
    for _ in 0..reps {
        // Drop the previous set-up first so memory does not stack up.
        drop(last.take());
        ledger = Ledger::default();
        declare_setup(&mut ledger);
        let start = Instant::now();
        let built = build(&mut ledger);
        times.push(ledger.record("setup", start).duration_since(start).as_secs_f64());
        last = Some(built);
    }
    eprintln!("# set-up times: {times:?}");
    (last.expect("at least one set-up"), crate::stats::median(&mut times), ledger)
}
