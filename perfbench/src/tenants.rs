//! The identd round of `paper_stream`'s traced run: an in-process
//! `identd::Daemon` serving two tenants, each fed by one closed-loop
//! client connection that parses its share of the replayed log text and
//! sends `ingest` batches with `decide` polls mixed in; the round ends
//! with `drain`. Spans around the client's encoding, round trips and
//! decoding give the identd per-layer metrics.
//!
//! The replayed stream is split between the two clients by device,
//! balancing their transaction counts; the clients take turns.

use crate::corpus::PaperCorpus;
use crate::stream::{compare_offline, offline};
use crate::trace::Ledger;
use crate::Report;
use identd::json::{self, Json};
use identd::proto::{tx_to_json, DecisionRecord};
use identd::{Client, Daemon, DaemonConfig};
use proxylog::{write_log, Dataset, LogReader, Transaction};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Transactions per `ingest` request.
const BATCH_TXS: usize = 128;
/// One `decide` poll after this many ingests.
const DECIDE_EVERY: usize = 4;
/// One `stats` poll after this many ingests.
const STATS_EVERY: usize = 64;
/// Client connections (shares of the stream), one per tenant.
const CLIENTS: usize = 2;
/// Connection workers: enough for every client plus the control
/// connection, so an open connection never starves another.
const WORKERS: usize = CLIENTS + 1;
/// Transactions replayed: the start of the replayed stream.
const ROUND_LINES: usize = 200_000;

/// One client's share of the stream.
struct Share {
    /// Its devices' transactions, the offline oracle's input.
    dataset: Dataset,
    /// The same transactions as log text, the client's input.
    log: Vec<u8>,
}

/// What one client did for its tenant.
#[derive(Default)]
struct TenantRun {
    tenant: String,
    acked: u64,
    records: Vec<DecisionRecord>,
    rpcs: u64,
    overloaded: u64,
    errors: u64,
    parse_errors: u64,
    lines: u64,
    queue_depth_max: f64,
}

/// Replays the stream's first [`ROUND_LINES`] through a daemon whose
/// tenants load the profiles saved in `store`, checks every decision
/// against the offline oracle, prints the client ledger and sets the
/// identd per-layer metrics.
pub fn traced_round(corpus: &PaperCorpus, store: &Path, report: &mut Report) {
    let shares = split_by_device(corpus);
    let config = DaemonConfig { workers: WORKERS, ..DaemonConfig::default() };
    let daemon = Daemon::start(config).expect("starting the daemon");
    let addr = daemon.local_addr();
    let store = store.to_str().expect("a UTF-8 store path");
    for client in 0..CLIENTS {
        let loaded = daemon.load_tenant(&tenant(client), store, false).expect("loading a tenant");
        assert_eq!(loaded, (corpus.profiles.len(), 0), "tenant {client} loaded");
    }

    let mut ledger = Ledger::default();
    declare_client_stages(&mut ledger);
    let start = Instant::now();
    let mut runs: Vec<TenantRun> = shares
        .iter()
        .enumerate()
        .map(|(client, share)| replay_share(addr, share, tenant(client), &mut ledger))
        .collect();
    ledger.record("client", start);

    // Drain, collect the flushed decisions, stop the daemon.
    let mut control = Client::connect(addr).expect("control connection");
    let stats = control.stats().expect("stats");
    control.drain().expect("drain");
    for run in &mut runs {
        run.records.extend(control.decide(&run.tenant, None).expect("final decide"));
    }
    drop(control);
    daemon.join();

    let engine = DaemonConfig::default().engine;
    for (run, share) in runs.iter().zip(&shares) {
        let tenant_stats = stats.get("tenants").and_then(|all| all.get(&run.tenant));
        let count =
            |key: &str| tenant_stats.and_then(|s| s.get(key)).and_then(Json::as_num).unwrap_or(0.0);
        let lost = (count("windows_shed") + count("late_dropped") + count("ingests_shed")) as u64;
        let failed = run.overloaded + run.errors + run.parse_errors + lost;
        report.count(&format!("{} requests and lines", run.tenant), run.rpcs + run.lines, failed);
        let unacked = u64::from(run.acked != share.dataset.len() as u64);
        report.count(&format!("{} acknowledged share", run.tenant), 1, unacked);
        let oracle = offline(&corpus.profiles, &corpus.vocab, &share.dataset, engine);
        let (checked, wrong) = compare_offline(&oracle, &run.records);
        report.count(
            &format!("{} decisions vs offline identify_on_device + vote", run.tenant),
            checked,
            wrong,
        );
    }

    let sent = ROUND_LINES.min(corpus.lines());
    println!("## identd round ledger ({CLIENTS} tenants, {sent} transactions)");
    ledger.print_table("client");
    let sum = |f: fn(&TenantRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let tx_json = ledger.total_s("proto.tx_json");
    let ingest_trip = ledger.total_s("identd.ingest_roundtrip");
    let decide_trip = ledger.total_s("identd.decide_roundtrip");
    report.set("proto.tx_json_s", tx_json);
    report
        .set("identd.ingest_rpc_s", tx_json + ingest_trip + ledger.total_s("identd.ingest_reply"));
    report.set("identd.decide_rpc_s", decide_trip + ledger.total_s("proto.decision_decode"));
    report.set("identd.server_s", ingest_trip + decide_trip);
    report.set("identd.overloaded", sum(|r| r.overloaded));
    report.set("identd.error_replies", sum(|r| r.errors));
    report
        .set("identd.queue_depth_max", runs.iter().map(|r| r.queue_depth_max).fold(0.0, f64::max));
}

fn tenant(client: usize) -> String {
    format!("share{client}")
}

/// Splits the first [`ROUND_LINES`] of the replayed stream into
/// [`CLIENTS`] shares by device, each device (heaviest first) going to the
/// share with fewer transactions.
fn split_by_device(corpus: &PaperCorpus) -> Vec<Share> {
    let stream = &corpus.replay.transactions()[..ROUND_LINES.min(corpus.lines())];
    let mut per_device: BTreeMap<u32, usize> = BTreeMap::new();
    for tx in stream {
        *per_device.entry(tx.device.0).or_default() += 1;
    }
    let mut devices: Vec<(u32, usize)> = per_device.into_iter().collect();
    devices.sort_by_key(|&(device, count)| (std::cmp::Reverse(count), device));
    let mut load = [0usize; CLIENTS];
    let mut owner: BTreeMap<u32, usize> = BTreeMap::new();
    for (device, count) in devices {
        let lightest = (0..CLIENTS).min_by_key(|&c| (load[c], c)).expect("at least one client");
        load[lightest] += count;
        owner.insert(device, lightest);
    }
    (0..CLIENTS)
        .map(|client| {
            let txs: Vec<Transaction> =
                stream.iter().filter(|tx| owner[&tx.device.0] == client).copied().collect();
            let mut log = Vec::with_capacity(txs.len() * 128);
            write_log(&mut log, &txs, &corpus.taxonomy).expect("rendering a share's log");
            Share { dataset: Dataset::new(Arc::clone(&corpus.taxonomy), txs), log }
        })
        .collect()
}

/// One closed-loop pass over a share on its own connection: parse a batch
/// of log lines, `ingest` it, poll `decide` every [`DECIDE_EVERY`] ingests
/// and `stats` every [`STATS_EVERY`].
fn replay_share(addr: SocketAddr, share: &Share, tenant: String, ledger: &mut Ledger) -> TenantRun {
    let mut conn = Client::connect(addr).expect("client connection");
    let mut reader = LogReader::new(share.log.as_slice(), share.dataset.taxonomy());
    let mut run = TenantRun::default();
    let mut batch: Vec<Transaction> = Vec::with_capacity(BATCH_TXS);
    let mut ingests = 0usize;
    loop {
        batch.clear();
        let start = Instant::now();
        for item in reader.by_ref().take(BATCH_TXS) {
            run.lines += 1;
            match item {
                Ok(tx) => batch.push(tx),
                Err(_) => run.parse_errors += 1,
            }
        }
        ledger.record("proxylog.parse", start);
        if batch.is_empty() {
            break;
        }
        run.rpcs += 1;
        ingests += 1;
        match ingest(&mut conn, &tenant, &batch, ledger) {
            Ok(accepted) if accepted == batch.len() => run.acked += accepted as u64,
            Ok(_) => run.errors += 1,
            Err(e) if e == "overloaded" => run.overloaded += 1,
            Err(_) => run.errors += 1,
        }
        if ingests.is_multiple_of(DECIDE_EVERY) {
            poll_decide(&mut conn, &tenant, ledger, &mut run);
        }
        if ingests.is_multiple_of(STATS_EVERY) {
            run.rpcs += 1;
            let start = Instant::now();
            let depth = conn
                .stats()
                .ok()
                .and_then(|s| s.get("tenants")?.get(&tenant)?.get("pending_windows")?.as_num());
            ledger.record("identd.stats", start);
            run.queue_depth_max = run.queue_depth_max.max(depth.unwrap_or(0.0));
        }
    }
    poll_decide(&mut conn, &tenant, ledger, &mut run);
    run.tenant = tenant;
    run
}

fn poll_decide(conn: &mut Client, tenant: &str, ledger: &mut Ledger, run: &mut TenantRun) {
    run.rpcs += 1;
    match decide(conn, tenant, ledger) {
        Ok(records) => run.records.extend(records),
        Err(_) => run.errors += 1,
    }
}

fn declare_client_stages(ledger: &mut Ledger) {
    ledger.declare("client", None);
    for stage in [
        "proxylog.parse",
        "proto.tx_json",
        "identd.ingest_roundtrip",
        "identd.ingest_reply",
        "identd.decide_roundtrip",
        "proto.decision_decode",
        "identd.stats",
    ] {
        ledger.declare(stage, Some("client"));
    }
}

/// `ingest` with spans around encoding, the round trip and decoding;
/// returns the accepted count or the error code.
fn ingest(
    conn: &mut Client,
    tenant: &str,
    batch: &[Transaction],
    ledger: &mut Ledger,
) -> Result<usize, String> {
    let line = ledger.span("proto.tx_json", || {
        Json::Obj(vec![
            ("verb".into(), Json::str("ingest")),
            ("tenant".into(), Json::str(tenant)),
            ("txs".into(), Json::Arr(batch.iter().map(tx_to_json).collect())),
        ])
        .to_line()
    });
    let reply = ledger.span("identd.ingest_roundtrip", || conn.request_line(&line));
    let reply = reply.map_err(|e| e.to_string())?;
    ledger.span("identd.ingest_reply", || {
        let value = ok_reply(&reply)?;
        Ok(value.get("accepted").and_then(Json::as_num).unwrap_or(0.0) as usize)
    })
}

/// `decide` with spans around the round trip and decoding the records.
fn decide(
    conn: &mut Client,
    tenant: &str,
    ledger: &mut Ledger,
) -> Result<Vec<DecisionRecord>, String> {
    let reply = ledger.span("identd.decide_roundtrip", || {
        let request = Json::Obj(vec![
            ("verb".into(), Json::str("decide")),
            ("tenant".into(), Json::str(tenant)),
        ]);
        conn.request_line(&request.to_line())
    });
    let reply = reply.map_err(|e| e.to_string())?;
    ledger.span("proto.decision_decode", || {
        let value = ok_reply(&reply)?;
        value
            .get("decisions")
            .and_then(Json::as_arr)
            .ok_or("decide reply without decisions")?
            .iter()
            .map(|d| DecisionRecord::from_json(d).map_err(|e| e.to_string()))
            .collect()
    })
}

/// Parses a reply line; an `ok:false` reply becomes its error code.
fn ok_reply(reply: &str) -> Result<Json, String> {
    let value = json::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if value.get("ok") == Some(&Json::Bool(true)) {
        Ok(value)
    } else {
        Err(value.get("error").and_then(Json::as_str).unwrap_or("bad_request").to_string())
    }
}
