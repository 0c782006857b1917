//! The streaming workload `paper_stream`: exhaustive scoring over the
//! paper corpus' trained profiles. Its traced run adds a round against
//! 10,000 prefiltered profiles for the prefilter layer.
//!
//! The untraced run drives the deployed path: log text through
//! `proxylog::LogReader`, `streamid::StreamEngine::observe`, and each
//! decision encoded as an `identd` wire line. The traced run additionally
//! drives the engine's hidden stages one by one through their own public
//! functions, in the engine's order, with a span around each, and checks
//! that it reaches the engine's decisions bit for bit.

use crate::corpus::{repeated_setup, PaperCorpus};
use crate::stats::{median, percentile, typical_latency};
use crate::trace::Ledger;
use crate::{Args, Report};
use identd::proto::DecisionRecord;
use ocsvm::SparseVector;
use proxylog::{DeviceId, LogReader, Transaction, UserId};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};
use streamid::{EngineConfig, EngineStats, PrefilterConfig, StreamEngine, WindowDecision};
use webprofiler::{
    consecutive_window_vote, identify_on_device, majority_vote, parallel_map, CandidateIndex,
    ProfileTrainer, ShortlistScratch, TransactionWindow, UserProfile, Vocabulary, WindowKey,
    WindowStream,
};

/// Offered load of the open-loop phase in windows closed per second
/// (about 100k tx/s, well below the unpaced capacity).
const OPEN_LOOP_WINDOWS_PER_S: f64 = 22_000.0;
/// Highest transaction rate the open-loop schedule offers, for stretches
/// of the stream that close few windows.
const OPEN_LOOP_MAX_TX_PER_S: f64 = 150_000.0;
/// Share of the `--seconds` budget given to the open-loop phase; the
/// unpaced capacity passes take the rest.
const OPEN_LOOP_SHARE: f64 = 0.3;
/// Nominal seconds of one open-loop repetition over the whole stream
/// (2-core host).
const OPEN_LOOP_REP_S: f64 = 3.0;
/// Fewest open-loop repetitions: the median of three drops one hiccup.
const MIN_OPEN_LOOP_REPS: usize = 3;
/// Nominal seconds of one unpaced `paper_stream` pass (2-core host).
const PAPER_PASS_S: f64 = 0.85;
/// Enrolled profiles of the traced prefilter round.
const POPULATION: usize = 10_000;
/// Log lines the traced prefilter round replays.
const POPULATION_LINES: usize = 60_000;
/// The prefilter round checks every this-many-th decision against
/// exhaustive scoring.
const CHECK_EVERY: usize = 97;
/// Synthetic users get ids above any corpus user id.
const SYNTHETIC_BASE: u32 = 1 << 20;
/// Encoded decision lines are buffered up to this many bytes, then dropped
/// as a sink would write them out.
const SINK_BYTES: usize = 1 << 20;
/// Log lines per timed chunk of a capacity pass.
const CHUNK_LINES: usize = 8_192;
/// Log lines parsed per span in the traced run.
const PARSE_CHUNK: usize = 4_096;

/// Runs `paper_stream`.
pub fn paper_stream(args: &Args, dir: &Path) -> Report {
    let (corpus, setup_s, setup) = repeated_setup(args.trace, |ledger| {
        PaperCorpus::build(args.seed, &dir.join("store"), ledger)
    });
    let lines = corpus.lines();
    let run = StreamRun {
        corpus: &corpus,
        profiles: &corpus.profiles,
        index: None,
        limit: lines,
        config: EngineConfig::default(),
    };
    let mut report = Report::default();
    if args.trace {
        run.traced(args, &setup, &mut report);
        return report;
    }
    report.set("setup_s", setup_s);
    let capacity = args.reps(1.0 - OPEN_LOOP_SHARE, PAPER_PASS_S);
    let (passes, first) = run.capacity_passes(capacity, 0, &mut report);
    report.set("ops_per_s", first.offered as f64 / best_seconds(&passes));

    // Open loop: the whole stream offered on a fixed schedule, each
    // transaction timed from when it was due, repeated with a fresh
    // engine. Every repetition decides the same windows in the same order.
    let due = open_loop_schedule(&first);
    let reps = args.reps(OPEN_LOOP_SHARE, OPEN_LOOP_REP_S).max(MIN_OPEN_LOOP_REPS);
    let mut latency = Vec::with_capacity(reps);
    for _ in 0..reps {
        let open = run.pass(lines, Pace::OpenLoop(&due), false, 0);
        let records = &open.sink.records;
        let wrong = mismatches(&first.sink.records[..records.len()], records);
        report.count("open-loop decisions vs the warm-up pass", records.len() as u64, wrong);
        report.count("open-loop transactions", open.offered as u64, open.failures());
        latency.push(open.sink.latency_ms);
    }
    let (p50, p99) = typical_latency("open-loop decision latency", &latency);
    report.set("latency_p50_ms", p50);
    report.set("latency_p99_ms", p99);

    let (checked, wrong) = check_offline(&corpus, &first.sink.records, run.config);
    report.count("decisions vs offline identify_on_device + vote", checked, wrong);
    report.set("accuracy", first.sink.vote_accuracy());
    describe(&corpus, &run, first.sink.records.len());
    report
}

/// The prefilter layer, for the traced run: the first [`POPULATION_LINES`]
/// lines against [`POPULATION`] enrolled profiles with `with_prefilter`
/// on, as in identd tenants, once through the engine and once through the
/// decomposed pipeline, which must agree. Every [`CHECK_EVERY`]-th
/// decision's accepted set is checked against exhaustive scoring.
fn traced_prefilter(corpus: &PaperCorpus, report: &mut Report) {
    let profiles = enroll_synthetic(&corpus.profiles, &corpus.vocab);
    let mut setup = Ledger::default();
    setup.declare("prefilter.build", None);
    let index = setup.span("prefilter.build", || CandidateIndex::build(&profiles, &corpus.vocab));
    let run = StreamRun {
        corpus,
        profiles: &profiles,
        index: Some(&index),
        limit: POPULATION_LINES.min(corpus.lines()),
        config: EngineConfig::default(),
    };
    let engine = run.pass(run.limit, Pace::Unpaced, true, CHECK_EVERY);
    report.count("prefiltered transactions", engine.offered as u64, engine.failures());
    let (checked, wrong) = check_sample(&profiles, &engine.sink);
    report.count("sampled prefiltered decisions vs exhaustive scoring", checked, wrong);

    let mut ledger = Ledger::default();
    let mut pipeline = Pipeline::new(&run);
    let records = pipeline.run(&mut ledger);
    let wrong = mismatches(&engine.sink.records, &records);
    report.count("decomposed prefiltered decisions vs the engine", records.len() as u64, wrong);
    println!(
        "## prefilter traced ledger ({} lines, {} profiles, {} decisions)",
        pipeline.lines,
        profiles.len(),
        records.len()
    );
    ledger.print_table("pipeline");
    report.set("prefilter.build_s", setup.total_s("prefilter.build"));
    report.set("prefilter.shortlist_s", ledger.total_s("prefilter.shortlist"));
    report.set("prefilter.candidates_per_window", pipeline.pairs as f64 / records.len() as f64);
    report.set(
        "prefilter.accept_ratio",
        pipeline.accepted_pairs as f64 / pipeline.pairs.max(1) as f64,
    );
}

/// Pads the trained profiles to [`POPULATION`] users with synthetic
/// linear-SVDD users, each clustered on a handful of columns. The
/// synthetic users depend on their index only, as in `identify_scale`:
/// the seed varies the corpus and its trained users, not the padding.
fn enroll_synthetic(
    trained: &BTreeMap<UserId, UserProfile>,
    vocab: &Vocabulary,
) -> BTreeMap<UserId, UserProfile> {
    let trainer = ProfileTrainer::new(vocab);
    let ids: Vec<u32> = (0..POPULATION.saturating_sub(trained.len()) as u32).collect();
    let synthetic = parallel_map(&ids, |&i| {
        let user = UserId(SYNTHETIC_BASE + i);
        let vectors = synthetic_vectors(u64::from(i), vocab.n_features());
        (user, trainer.train_from_vectors(user, &vectors).expect("training a synthetic user"))
    });
    trained.clone().into_iter().chain(synthetic).collect()
}

/// Eight training vectors over four home columns with mild value jitter
/// (splitmix64, no RNG dependency).
fn synthetic_vectors(seed: u64, n_features: usize) -> Vec<SparseVector> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut columns: Vec<u32> = (0..6).map(|_| (next() % n_features as u64) as u32).collect();
    columns.sort_unstable();
    columns.dedup();
    columns.truncate(4);
    (0..8)
        .map(|i| {
            let pairs = columns
                .iter()
                .map(|&c| (c, 0.5 + 0.05 * ((next() % 8) as f64) + 0.01 * f64::from(i % 3)))
                .collect();
            SparseVector::from_pairs(pairs).expect("synthetic vector")
        })
        .collect()
}

/// One streaming workload's inputs.
struct StreamRun<'a> {
    corpus: &'a PaperCorpus,
    profiles: &'a BTreeMap<UserId, UserProfile>,
    /// The candidate index when scoring is prefiltered.
    index: Option<&'a CandidateIndex>,
    /// Log lines per pass.
    limit: usize,
    config: EngineConfig,
}

/// How a pass offers transactions.
#[derive(Debug, Clone, Copy)]
enum Pace<'a> {
    /// As fast as the pipeline takes them.
    Unpaced,
    /// Each line when it is due: seconds after the start, per line.
    OpenLoop(&'a [f64]),
}

/// What one pass through the deployed path produced.
struct Pass {
    elapsed: Duration,
    /// Time per [`CHUNK_LINES`] lines (the last chunk includes `finish`).
    chunks: Vec<Duration>,
    /// Windows closed (decided or pending) before each chunk, and at the
    /// end.
    closed: Vec<usize>,
    offered: usize,
    parse_errors: u64,
    lag_ms: Vec<f64>,
    stats: EngineStats,
    sink: Sink,
}

impl Pass {
    /// Parse errors, shed windows and late-dropped transactions.
    fn failures(&self) -> u64 {
        self.parse_errors + self.stats.windows_shed + self.stats.late_dropped
    }
}

/// Capacity passes: timing, rate and latency only (records are compared
/// on the spot and dropped).
struct PassTiming {
    elapsed: Duration,
    chunks: Vec<Duration>,
}

/// When each line of `pass` is due in the open loop: every chunk of
/// [`CHUNK_LINES`] lines is offered at the even rate that closes its
/// windows at [`OPEN_LOOP_WINDOWS_PER_S`], at most
/// [`OPEN_LOOP_MAX_TX_PER_S`]. Windows then close at the same pace over
/// busy and quiet stretches of every seed's traffic, so the wait for a
/// scoring batch to fill is the same everywhere.
fn open_loop_schedule(pass: &Pass) -> Vec<f64> {
    let mut due = Vec::with_capacity(pass.offered);
    let mut start = 0.0;
    for (k, pair) in pass.closed.windows(2).enumerate() {
        let lines = CHUNK_LINES.min(pass.offered - k * CHUNK_LINES);
        let seconds = ((pair[1] - pair[0]) as f64 / OPEN_LOOP_WINDOWS_PER_S)
            .max(lines as f64 / OPEN_LOOP_MAX_TX_PER_S);
        due.extend((0..lines).map(|i| start + seconds * i as f64 / lines as f64));
        start += seconds;
    }
    eprintln!("# open loop: {:.0} tx/s over {:.2} s", pass.offered as f64 / start, start);
    due
}

/// Seconds one pass over the lines costs: each chunk's fastest time over
/// the passes, summed. The host's speed drifts by tens of percent for
/// seconds at a time; a chunk takes tens of milliseconds, so over dozens
/// of passes nearly every chunk runs at least once at the host's full
/// speed, while the median follows the drift.
fn best_seconds(passes: &[PassTiming]) -> f64 {
    let times: Vec<f64> = passes.iter().map(|p| p.elapsed.as_secs_f64()).collect();
    eprintln!("# pass times (s): {times:?}");
    (0..passes[0].chunks.len())
        .map(|k| passes.iter().map(|p| p.chunks[k].as_secs_f64()).fold(f64::INFINITY, f64::min))
        .sum()
}

impl StreamRun<'_> {
    /// A fresh engine as the deployment configures it.
    fn engine(&self) -> StreamEngine<'_> {
        let engine = StreamEngine::new(self.profiles, &self.corpus.vocab, self.config);
        match self.index {
            Some(_) => engine.with_prefilter(PrefilterConfig::default()),
            None => engine,
        }
    }

    /// Streams the first `limit` log lines through a fresh engine: parse,
    /// observe, and encode every decision as a wire line. The engine is
    /// built before the clock starts.
    fn pass(&self, limit: usize, pace: Pace<'_>, finish: bool, sample_every: usize) -> Pass {
        let mut engine = self.engine();
        let mut reader = LogReader::new(self.corpus.log.as_slice(), &self.corpus.taxonomy);
        let mut sink = Sink { sample_every, ..Sink::default() };
        let mut lag_ms = Vec::new();
        let mut closed = Vec::new();
        let mut offered = 0;
        let mut parse_errors = 0;
        let mut marks = Vec::new();
        let start = Instant::now();
        for i in 0..limit {
            if i % CHUNK_LINES == 0 {
                closed.push(sink.records.len() + engine.pending_windows());
                marks.push(Instant::now());
            }
            let arrived = match pace {
                Pace::Unpaced => Instant::now(),
                Pace::OpenLoop(schedule) => {
                    let due = start + Duration::from_secs_f64(schedule[i]);
                    let mut now = Instant::now();
                    while now < due {
                        std::hint::spin_loop();
                        now = Instant::now();
                    }
                    lag_ms.push((now - due).as_secs_f64() * 1e3);
                    due
                }
            };
            let Some(item) = reader.next() else { break };
            offered += 1;
            let Ok(tx) = item else {
                parse_errors += 1;
                continue;
            };
            let queued = engine.pending_windows();
            let decisions = engine.observe(tx);
            sink.closed(queued, decisions.len(), engine.pending_windows(), arrived);
            sink.emit(&decisions);
        }
        closed.push(sink.records.len() + engine.pending_windows());
        if finish {
            let queued = engine.pending_windows();
            let decisions = engine.finish();
            sink.closed(queued, decisions.len(), 0, Instant::now());
            sink.emit(&decisions);
        }
        let end = Instant::now();
        marks.push(end);
        let chunks = marks.windows(2).map(|w| w[1] - w[0]).collect();
        let elapsed = end - start;
        let stats = engine.stats();
        Pass { elapsed, chunks, closed, offered, parse_errors, lag_ms, stats, sink }
    }

    /// Runs one warm-up pass, kept whole for the output checks, then
    /// `passes` timed passes, each compared with the warm-up pass.
    fn capacity_passes(
        &self,
        passes: usize,
        sample_every: usize,
        report: &mut Report,
    ) -> (Vec<PassTiming>, Pass) {
        let first = self.pass(self.limit, Pace::Unpaced, true, sample_every);
        report.count("warm-up transactions", first.offered as u64, first.failures());
        let mut timings = Vec::new();
        for _ in 0..passes {
            let pass = self.pass(self.limit, Pace::Unpaced, true, 0);
            report.count("transactions", pass.offered as u64, pass.failures());
            let wrong = mismatches(&first.sink.records, &pass.sink.records);
            report.count("decisions vs the warm-up pass", pass.sink.records.len() as u64, wrong);
            timings.push(PassTiming { elapsed: pass.elapsed, chunks: pass.chunks });
        }
        (timings, first)
    }

    /// The traced run: an untraced pass, a pass through the engine with
    /// spans around parse / observe / encode, and the decomposed pipeline
    /// with a span around every stage, all compared decision for decision.
    fn traced(&self, args: &Args, setup: &Ledger, report: &mut Report) {
        let untraced = self.pass(self.limit, Pace::Unpaced, true, 0);
        report.count("untraced transactions", untraced.offered as u64, untraced.failures());

        let mut engine_ledger = Ledger::default();
        let engine_run = self.traced_engine(&mut engine_ledger);
        let wrong = mismatches(&untraced.sink.records, &engine_run.0);
        report.count("traced engine decisions vs untraced", engine_run.0.len() as u64, wrong);

        let mut ledger = Ledger::default();
        let mut pipeline = Pipeline::new(self);
        let records = pipeline.run(&mut ledger);
        let wrong = mismatches(&engine_run.0, &records);
        report.count("decomposed decisions vs the engine", records.len() as u64, wrong);
        report.count("decomposed transactions", pipeline.lines, pipeline.parse_errors);

        println!(
            "## {} traced ledger ({} lines, {} decisions)",
            args.workload,
            pipeline.lines,
            records.len()
        );
        let unaccounted = ledger.print_table("pipeline");
        let wall = ledger.total_s("pipeline");
        let offer = ledger.total_s("window.offer");
        let shortlist = ledger.total_s("prefilter.shortlist");
        let score = ledger.total_s("score");
        let vote = ledger.total_s("vote");
        let encode = ledger.total_s("proto.encode");
        let parse = ledger.total_s("proxylog.parse");
        let observe = engine_ledger.total_s("engine.observe");
        for (name, stage) in [
            ("tracegen.generate_s", "tracegen.generate"),
            ("proxylog.format_s", "proxylog.format"),
            ("train.profiles_s", "train.profiles"),
            ("store.save_s", "store.save"),
            ("store.load_s", "store.load"),
        ] {
            report.set(name, setup.total_s(stage));
        }
        let lines = pipeline.lines as f64;
        let windows = records.len() as f64;
        report.set("proxylog.parse_s", parse);
        report.set("proxylog.parse_ns_per_line", parse * 1e9 / lines);
        report.set("proxylog.lines", lines);
        report.set("proxylog.parse_errors", pipeline.parse_errors as f64);
        report.set("window.offer_s", offer);
        report.set("window.closed", pipeline.closed as f64);
        report.set("window.late_dropped", pipeline.late_dropped() as f64);
        pipeline.nnz.sort_by(f64::total_cmp);
        report.set("window.nnz_p50", percentile(&pipeline.nnz, 0.5));
        report.set("window.nnz_p90", percentile(&pipeline.nnz, 0.9));
        report.set("score.s", score);
        report.set("score.pairs", pipeline.pairs as f64);
        report.set("score.ns_per_pair", score * 1e9 / pipeline.pairs.max(1) as f64);
        report.set("score.batches", pipeline.batches as f64);
        report.set("score.batch_mean", windows / pipeline.batches.max(1) as f64);
        report.set("score.weight_columns_p50", weight_columns_p50(self.profiles));
        report.set("vote.s", vote);
        report.set("engine.observe_s", observe);
        report.set("engine.overhead_s", observe - (offer + shortlist + score + vote));
        report.set("engine.windows_scored", engine_run.1.windows_scored as f64);
        report.set("engine.windows_shed", engine_run.1.windows_shed as f64);
        report.set("engine.queue_wait_p99_ms", engine_run.2);
        report.set("proto.encode_s", encode);
        report.set("proto.encode_ns_per_record", encode * 1e9 / windows);
        report.set("proto.bytes_per_record", pipeline.bytes as f64 / windows);
        report.set("trace.wall_s", wall);
        report.set("trace.overhead_ratio", wall / untraced.elapsed.as_secs_f64());
        report.set("trace.unaccounted_share", unaccounted);

        // One open-loop repetition for the generator's lateness.
        let mut open =
            self.pass(self.limit, Pace::OpenLoop(&open_loop_schedule(&untraced)), false, 0);
        open.lag_ms.sort_by(f64::total_cmp);
        report.set("driver.lag_p99_ms", percentile(&open.lag_ms, 0.99));
        let (checked, wrong) = check_offline(self.corpus, &records, self.config);
        report.count("decisions vs offline identify_on_device + vote", checked, wrong);
        // The daemon serving the same stream: the identd layers.
        crate::tenants::traced_round(self.corpus, &self.corpus.store, report);
        // The same stream against a large prefiltered population.
        traced_prefilter(self.corpus, report);
    }

    /// The engine driven chunk by chunk, with spans around parsing a chunk,
    /// observing it and encoding its decisions. Returns the decisions,
    /// the engine's counters and its queue-wait p99 in ms.
    fn traced_engine(&self, ledger: &mut Ledger) -> (Vec<DecisionRecord>, EngineStats, f64) {
        ledger.declare("engine_run", None);
        for stage in ["proxylog.parse", "engine.observe", "proto.encode"] {
            ledger.declare(stage, Some("engine_run"));
        }
        let mut engine = self.engine();
        let mut reader = LogReader::new(self.corpus.log.as_slice(), &self.corpus.taxonomy);
        let mut sink = Sink::default();
        let mut txs: Vec<Transaction> = Vec::with_capacity(PARSE_CHUNK);
        let mut left = self.limit;
        let run = Instant::now();
        while left > 0 {
            txs.clear();
            let start = Instant::now();
            let read = read_chunk(&mut reader, PARSE_CHUNK.min(left), &mut txs);
            ledger.record("proxylog.parse", start);
            if read == 0 {
                break;
            }
            left -= read;
            let start = Instant::now();
            let decisions: Vec<WindowDecision> =
                txs.iter().flat_map(|&tx| engine.observe(tx)).collect();
            ledger.record("engine.observe", start);
            ledger.span("proto.encode", || sink.emit(&decisions));
        }
        let start = Instant::now();
        let decisions = engine.finish();
        ledger.record("engine.observe", start);
        ledger.span("proto.encode", || sink.emit(&decisions));
        ledger.record("engine_run", run);
        sink.queue_ms.sort_by(f64::total_cmp);
        (sink.records, engine.stats(), percentile(&sink.queue_ms, 0.99))
    }
}

/// Parses up to `lines` log lines into `txs`; returns the lines read
/// (parse failures are read but not kept).
fn read_chunk<R: std::io::BufRead>(
    reader: &mut LogReader<'_, R>,
    lines: usize,
    txs: &mut Vec<Transaction>,
) -> usize {
    let mut read = 0;
    for item in reader.by_ref().take(lines) {
        read += 1;
        if let Ok(tx) = item {
            txs.push(tx);
        }
    }
    read
}

/// Receives decisions: encodes each as a wire line, and keeps its record
/// (without the wall-clock `queue_us`) for the output checks.
#[derive(Default)]
struct Sink {
    /// Arrival time of the transaction that closed each pending window,
    /// oldest first.
    arrivals: VecDeque<Instant>,
    out: String,
    records: Vec<DecisionRecord>,
    /// From the closing transaction's arrival to the encoded decision.
    latency_ms: Vec<f64>,
    /// The engine's closed-but-unscored wait.
    queue_ms: Vec<f64>,
    voted: u64,
    vote_correct: u64,
    /// Keep the features of every this-many-th decision (0: none).
    sample_every: usize,
    samples: Vec<(usize, SparseVector)>,
}

impl Sink {
    /// Notes the windows one engine call closed. Before the call `queued`
    /// windows were pending; it returned `decided` decisions and left
    /// `pending` windows waiting. The engine scores its whole queue at
    /// once, oldest first, so the new windows follow the queued ones.
    fn closed(&mut self, queued: usize, decided: usize, pending: usize, arrived: Instant) {
        let new = (decided + pending).saturating_sub(queued);
        self.arrivals.extend(std::iter::repeat_n(arrived, new));
    }

    /// Encodes decisions, records their latency and keeps the features of
    /// the sampled ones.
    fn emit(&mut self, decisions: &[WindowDecision]) {
        for decision in decisions {
            self.encode_one(decision);
            let now = Instant::now();
            let arrived = self.arrivals.pop_front().unwrap_or(now);
            self.latency_ms.push((now - arrived).as_secs_f64() * 1e3);
            if self.sample_every > 0 && (self.records.len() - 1).is_multiple_of(self.sample_every) {
                self.samples.push((self.records.len() - 1, decision.features.clone()));
            }
        }
    }

    fn encode_one(&mut self, decision: &WindowDecision) {
        let mut record = DecisionRecord::from_decision(decision);
        self.out.push_str(&record.to_json().to_line());
        self.out.push('\n');
        if self.out.len() >= SINK_BYTES {
            self.out.clear();
        }
        self.queue_ms.push(decision.queue_latency.as_secs_f64() * 1e3);
        if let Some(vote) = record.vote {
            self.voted += 1;
            self.vote_correct += u64::from(record.actual.contains(&vote));
        }
        record.queue_us = 0;
        self.records.push(record);
    }

    /// Share of voted windows whose vote is one of the window's users.
    fn vote_accuracy(&self) -> f64 {
        self.vote_correct as f64 / self.voted.max(1) as f64
    }
}

/// Windows whose decisions differ, plus any difference in count.
fn mismatches(expected: &[DecisionRecord], actual: &[DecisionRecord]) -> u64 {
    let differing = expected.iter().zip(actual).filter(|(a, b)| a != b).count();
    (differing + expected.len().abs_diff(actual.len())) as u64
}

/// Compares streamed decisions with offline identification of the
/// replayed dataset. Returns `(checked, mismatched)`.
fn check_offline(
    corpus: &PaperCorpus,
    records: &[DecisionRecord],
    config: EngineConfig,
) -> (u64, u64) {
    compare_offline(&offline(&corpus.profiles, &corpus.vocab, &corpus.replay, config), records)
}

/// Per device, the decisions of offline `identify_on_device` plus
/// `consecutive_window_vote` over `dataset`: what the engine must emit.
pub fn offline(
    profiles: &BTreeMap<UserId, UserProfile>,
    vocab: &Vocabulary,
    dataset: &proxylog::Dataset,
    config: EngineConfig,
) -> BTreeMap<u32, Vec<DecisionRecord>> {
    let ids = |users: &[UserId]| users.iter().map(|u| u.0).collect::<Vec<u32>>();
    dataset
        .devices()
        .into_iter()
        .map(|device| {
            let windows = identify_on_device(profiles, vocab, dataset, device, config.window);
            let votes = consecutive_window_vote(&windows, config.vote_k);
            let records = windows
                .iter()
                .zip(votes)
                .map(|(window, (_, vote))| DecisionRecord {
                    device: device.0,
                    start: window.start.as_secs(),
                    transactions: window.transaction_count as u64,
                    accepted: ids(&window.accepted_by),
                    actual: ids(&window.actual_users),
                    vote: vote.map(|u| u.0),
                    queue_us: 0,
                })
                .collect();
            (device.0, records)
        })
        .collect()
}

/// Compares streamed decisions (any interleaving of devices, each device
/// in window order; `queue_us` ignored) with [`offline`]'s. Returns
/// `(checked, mismatched)`; a missing or extra window counts as a
/// mismatch.
pub fn compare_offline(
    oracle: &BTreeMap<u32, Vec<DecisionRecord>>,
    records: &[DecisionRecord],
) -> (u64, u64) {
    let mut by_device: BTreeMap<u32, Vec<DecisionRecord>> = BTreeMap::new();
    for record in records {
        by_device
            .entry(record.device)
            .or_default()
            .push(DecisionRecord { queue_us: 0, ..record.clone() });
    }
    let (mut checked, mut wrong) = (0u64, 0u64);
    for (device, expected) in oracle {
        let streamed = by_device.remove(device).unwrap_or_default();
        checked += expected.len().max(streamed.len()) as u64;
        wrong += mismatches(expected, &streamed);
    }
    let stray: u64 = by_device.values().map(|r| r.len() as u64).sum();
    (checked + stray, wrong + stray)
}

/// Compares the sampled decisions' accepted sets with exhaustive scoring
/// of every enrolled profile. Returns `(checked, mismatched)`.
fn check_sample(profiles: &BTreeMap<UserId, UserProfile>, sink: &Sink) -> (u64, u64) {
    let probes: Vec<&SparseVector> = sink.samples.iter().map(|(_, f)| f).collect();
    let entries: Vec<(&UserId, &UserProfile)> = profiles.iter().collect();
    let values = parallel_map(&entries, |(_, profile)| profile.batch_decision_values(&probes));
    let mut wrong = 0;
    for (k, (j, _)) in sink.samples.iter().enumerate() {
        let exhaustive: Vec<u32> = entries
            .iter()
            .zip(&values)
            .filter(|(_, vals)| vals[k] >= 0.0)
            .map(|((user, _), _)| user.0)
            .collect();
        wrong += u64::from(sink.records[*j].accepted != exhaustive);
    }
    (sink.samples.len() as u64, wrong)
}

/// Median non-zero weight columns over the linear profiles.
fn weight_columns_p50(profiles: &BTreeMap<UserId, UserProfile>) -> f64 {
    let mut columns: Vec<f64> = profiles
        .values()
        .filter_map(|p| p.linear_decision_terms().map(|t| t.weights.nnz() as f64))
        .collect();
    median(&mut columns)
}

fn describe(corpus: &PaperCorpus, run: &StreamRun<'_>, windows: usize) {
    println!(
        "corpus: {} transactions generated, {} replayed lines ({} per pass, {:.1} MiB of log), \
         {} windows per pass, {} profiles",
        corpus.generated,
        corpus.lines(),
        run.limit,
        corpus.log.len() as f64 / (1 << 20) as f64,
        windows,
        run.profiles.len()
    );
}

/// The engine's stages driven one by one: `LogReader` parse,
/// `WindowStream::offer`/`flush`, `CandidateIndex::shortlist`,
/// `UserProfile::batch_decision_values`, `majority_vote`, and
/// `DecisionRecord::from_decision(..).to_json()`. Mirrors
/// `StreamEngine::observe`/`finish` so the decisions are the engine's.
struct Pipeline<'a> {
    run: &'a StreamRun<'a>,
    devices: BTreeMap<DeviceId, (WindowStream<'a>, VecDeque<Vec<UserId>>)>,
    pending: Vec<(DeviceId, TransactionWindow, Instant)>,
    scratch: ShortlistScratch,
    out: String,
    records: Vec<DecisionRecord>,
    /// Offer time not yet recorded as a span.
    offering: Duration,
    lines: u64,
    parse_errors: u64,
    closed: u64,
    nnz: Vec<f64>,
    batches: u64,
    pairs: u64,
    accepted_pairs: u64,
    bytes: u64,
}

impl<'a> Pipeline<'a> {
    fn new(run: &'a StreamRun<'a>) -> Self {
        Self {
            run,
            devices: BTreeMap::new(),
            pending: Vec::new(),
            scratch: ShortlistScratch::default(),
            out: String::new(),
            records: Vec::new(),
            offering: Duration::ZERO,
            lines: 0,
            parse_errors: 0,
            closed: 0,
            nnz: Vec::new(),
            batches: 0,
            pairs: 0,
            accepted_pairs: 0,
            bytes: 0,
        }
    }

    fn run(&mut self, ledger: &mut Ledger) -> Vec<DecisionRecord> {
        ledger.declare("pipeline", None);
        for stage in [
            "proxylog.parse",
            "window.offer",
            "prefilter.shortlist",
            "score",
            "vote",
            "proto.encode",
        ] {
            ledger.declare(stage, Some("pipeline"));
        }
        let corpus = self.run.corpus;
        let mut reader = LogReader::new(corpus.log.as_slice(), &corpus.taxonomy);
        let mut txs: Vec<Transaction> = Vec::with_capacity(PARSE_CHUNK);
        let mut left = self.run.limit;
        let run = Instant::now();
        while left > 0 {
            txs.clear();
            let start = Instant::now();
            let read = read_chunk(&mut reader, PARSE_CHUNK.min(left), &mut txs);
            ledger.record("proxylog.parse", start);
            if read == 0 {
                break;
            }
            self.lines += read as u64;
            self.parse_errors += (read - txs.len()) as u64;
            left -= read;
            for &tx in &txs {
                self.offer(tx, ledger);
            }
        }
        // Finish: flush every device in order, then score what is pending.
        let start = Instant::now();
        let flushed: Vec<(DeviceId, Vec<TransactionWindow>)> =
            self.devices.iter_mut().map(|(&device, state)| (device, state.0.flush())).collect();
        self.offering += start.elapsed();
        for (device, windows) in flushed {
            self.enqueue(device, windows);
        }
        ledger.add("window.offer", std::mem::take(&mut self.offering));
        self.score(ledger);
        ledger.record("pipeline", run);
        self.bytes += self.out.len() as u64;
        std::mem::take(&mut self.records)
    }

    fn offer(&mut self, tx: Transaction, ledger: &mut Ledger) {
        let run = self.run;
        let state = self.devices.entry(tx.device).or_insert_with(|| {
            let stream = WindowStream::new(
                &run.corpus.vocab,
                run.config.window,
                WindowKey::Device(tx.device),
            )
            .with_lateness(run.config.lateness_secs);
            (stream, VecDeque::with_capacity(run.config.vote_k))
        });
        let start = Instant::now();
        let closed = state.0.offer(tx);
        self.offering += start.elapsed();
        self.enqueue(tx.device, closed);
        if self.pending.len() >= self.run.config.batch_windows {
            ledger.add("window.offer", std::mem::take(&mut self.offering));
            self.score(ledger);
        }
    }

    /// Queues closed windows, shedding the device's oldest pending windows
    /// beyond the engine's per-device bound, as the engine does.
    fn enqueue(&mut self, device: DeviceId, windows: Vec<TransactionWindow>) {
        if windows.is_empty() {
            return;
        }
        self.closed += windows.len() as u64;
        self.nnz.extend(windows.iter().map(|w| w.features.nnz() as f64));
        let now = Instant::now();
        self.pending.extend(windows.into_iter().map(|w| (device, w, now)));
        let queued = self.pending.iter().filter(|p| p.0 == device).count();
        let mut excess = queued.saturating_sub(self.run.config.max_pending_per_device);
        self.pending.retain(|p| {
            let shed = excess > 0 && p.0 == device;
            excess -= usize::from(shed);
            !shed
        });
    }

    /// Scores everything pending as one batch, votes and encodes.
    fn score(&mut self, ledger: &mut Ledger) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        let probes: Vec<&SparseVector> = batch.iter().map(|p| &p.1.features).collect();
        let profiles = self.run.profiles;
        let accepted = match self.run.index {
            Some(index) => {
                let scratch = &mut self.scratch;
                let lists: Vec<Vec<u32>> = ledger.span("prefilter.shortlist", || {
                    probes
                        .iter()
                        .map(|f| index.shortlist(f, PrefilterConfig::DEFAULT_TOP_K, scratch))
                        .collect()
                });
                self.pairs += lists.iter().map(|l| l.len() as u64).sum::<u64>();
                ledger.span("score", || score_shortlisted(profiles, index, &probes, &lists))
            }
            None => {
                self.pairs += (probes.len() * profiles.len()) as u64;
                ledger.span("score", || score_exhaustive(profiles, &probes))
            }
        };
        self.batches += 1;
        self.accepted_pairs += accepted.iter().map(|a| a.len() as u64).sum::<u64>();
        let vote_k = self.run.config.vote_k;
        let devices = &mut self.devices;
        let votes: Vec<Option<UserId>> = ledger.span("vote", || {
            accepted
                .iter()
                .zip(&batch)
                .map(|(accepted_by, (device, _, _))| {
                    let history = &mut devices.get_mut(device).expect("scored a known device").1;
                    history.push_back(accepted_by.clone());
                    if history.len() > vote_k {
                        history.pop_front();
                    }
                    majority_vote(history.iter().map(|set| set.as_slice()))
                })
                .collect()
        });
        let decisions: Vec<WindowDecision> = batch
            .into_iter()
            .zip(accepted)
            .zip(votes)
            .map(|(((device, window, enqueued), accepted_by), vote)| WindowDecision {
                device,
                start: window.start,
                transaction_count: window.transaction_count,
                features: window.features,
                accepted_by,
                actual_users: window.users,
                vote,
                queue_latency: enqueued.elapsed(),
            })
            .collect();
        let (out, records) = (&mut self.out, &mut self.records);
        ledger.span("proto.encode", || {
            for decision in &decisions {
                let mut record = DecisionRecord::from_decision(decision);
                out.push_str(&record.to_json().to_line());
                out.push('\n');
                record.queue_us = 0;
                records.push(record);
            }
        });
        if self.out.len() >= SINK_BYTES {
            self.bytes += self.out.len() as u64;
            self.out.clear();
        }
    }

    fn late_dropped(&self) -> u64 {
        self.devices.values().map(|(stream, _)| stream.late_dropped()).sum()
    }
}

/// Every profile scores every probe; each probe's accepters, ascending.
fn score_exhaustive(
    profiles: &BTreeMap<UserId, UserProfile>,
    probes: &[&SparseVector],
) -> Vec<Vec<UserId>> {
    let values: Vec<(UserId, Vec<f64>)> =
        profiles.iter().map(|(&user, p)| (user, p.batch_decision_values(probes))).collect();
    (0..probes.len())
        .map(|j| values.iter().filter(|(_, v)| v[j] >= 0.0).map(|(user, _)| *user).collect())
        .collect()
}

/// Exact rerank of the shortlists: one batched call per shortlisted user
/// over that user's windows; users outside a shortlist reject.
fn score_shortlisted(
    profiles: &BTreeMap<UserId, UserProfile>,
    index: &CandidateIndex,
    probes: &[&SparseVector],
    lists: &[Vec<u32>],
) -> Vec<Vec<UserId>> {
    let mut per_user: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (j, list) in lists.iter().enumerate() {
        for &slot in list {
            per_user.entry(slot).or_default().push(j);
        }
    }
    let mut accepted = vec![Vec::new(); probes.len()];
    for (slot, windows) in per_user {
        let user = index.user_at(slot);
        let sub: Vec<&SparseVector> = windows.iter().map(|&j| probes[j]).collect();
        let values = profiles[&user].batch_decision_values(&sub);
        for (&j, &v) in windows.iter().zip(&values) {
            if v >= 0.0 {
                accepted[j].push(user);
            }
        }
    }
    accepted
}
