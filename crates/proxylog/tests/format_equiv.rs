//! Equivalence of the zero-allocation log paths with their `format!`-,
//! `split`- and `lines()`-based references.
//!
//! * Writing: the zero-allocation serializer must be *bit-identical* to
//!   the `format!`-based reference — the streaming sinks rely on "shards
//!   concatenated equal `write_log` output byte for byte" — and its output
//!   must parse back to the exact transaction. Both properties are pinned
//!   over randomized transactions plus a golden multi-record log.
//! * Parsing: `parse_line` (one-pass field split, byte-level timestamp
//!   parser, hashed name lookups) must return exactly what the reference
//!   parser below returns — the same transaction or the same error — on a
//!   generated corpus and on mutated lines.
//! * Reading: `LogReader` (in-buffer line framing) and `LogTail` must yield
//!   the transactions, error kinds and line numbers of the reference
//!   `BufRead::lines()` reader, across CRLF, blank, whitespace-only and
//!   invalid-UTF-8 lines, unterminated last lines and lines straddling
//!   buffer refills.

use proptest::prelude::*;
use proxylog::{
    format_line, parse_line, write_log, AppTypeId, CategoryId, DeviceId, HttpAction, LineFormatter,
    LogReader, LogTail, ParseLineError, Reputation, SiteId, SubtypeId, Taxonomy, Timestamp,
    Transaction, UriScheme, UserId,
};
use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Read};
use std::rc::Rc;

fn transaction_strategy() -> impl Strategy<Value = Transaction> {
    (
        // Positive timestamps keep the civil dates parseable; the
        // byte-equality property below additionally covers negatives.
        0i64..4_000_000_000,
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        prop::sample::select(HttpAction::ALL.to_vec()),
        prop::sample::select(UriScheme::ALL.to_vec()),
        0u16..105,
        0u16..257,
        0u16..464,
        prop::sample::select(Reputation::ALL.to_vec()),
        any::<bool>(),
    )
        .prop_map(|(secs, user, device, site, action, scheme, cat, sub, app, rep, private)| {
            Transaction {
                timestamp: Timestamp(secs),
                user: UserId(user),
                device: DeviceId(device),
                site: SiteId(site),
                action,
                scheme,
                category: CategoryId(cat),
                subtype: SubtypeId(sub),
                app_type: AppTypeId(app),
                reputation: rep,
                private_destination: private,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Formatter output is byte-for-byte the legacy `format_line` string.
    #[test]
    fn formatter_equals_format_line(tx in transaction_strategy()) {
        let taxonomy = Taxonomy::paper_scale();
        let formatter = LineFormatter::new(&taxonomy);
        let mut bytes = Vec::new();
        formatter.write_line(&tx, &mut bytes);
        prop_assert_eq!(bytes, format_line(&tx, &taxonomy).into_bytes());
    }

    /// Byte equality holds even for timestamps no parser accepts (negative
    /// years, sub-4-digit years) — the formatter mirrors `Display` padding
    /// exactly, not just on the happy path.
    #[test]
    fn formatter_equals_format_line_on_unparseable_timestamps(
        secs in -80_000_000_000i64..80_000_000_000,
        tx in transaction_strategy(),
    ) {
        let taxonomy = Taxonomy::paper_scale();
        let formatter = LineFormatter::new(&taxonomy);
        let tx = Transaction { timestamp: Timestamp(secs), ..tx };
        let mut bytes = Vec::new();
        formatter.write_line(&tx, &mut bytes);
        prop_assert_eq!(bytes, format_line(&tx, &taxonomy).into_bytes());
    }

    /// Round trip: what the formatter writes, `parse_line` reads back.
    #[test]
    fn formatter_output_parses_back(tx in transaction_strategy()) {
        let taxonomy = Taxonomy::paper_scale();
        let formatter = LineFormatter::new(&taxonomy);
        let mut bytes = Vec::new();
        formatter.write_line(&tx, &mut bytes);
        let line = std::str::from_utf8(&bytes).expect("formatter emits UTF-8");
        let parsed = parse_line(line, &taxonomy).expect("own output parses");
        prop_assert_eq!(parsed, tx);
    }

    /// `write_log` (now routed through the formatter) still produces the
    /// golden one-`format_line`-per-line file, byte for byte.
    #[test]
    fn write_log_matches_legacy_golden_bytes(
        txs in prop::collection::vec(transaction_strategy(), 0..40),
    ) {
        let taxonomy = Taxonomy::paper_scale();
        let mut actual = Vec::new();
        write_log(&mut actual, &txs, &taxonomy).expect("write");
        let mut golden = String::new();
        for tx in &txs {
            golden.push_str(&format_line(tx, &taxonomy));
            golden.push('\n');
        }
        prop_assert_eq!(actual, golden.into_bytes());
    }
}

/// A fixed golden file: every enum variant, id-padding widths from 1 to
/// 10 digits, and the paper's example record.
#[test]
fn golden_log_bytes_are_stable() {
    let taxonomy = Taxonomy::paper_scale();
    let formatter = LineFormatter::new(&taxonomy);
    let mut txs = vec![Transaction {
        timestamp: Timestamp::from_civil(2015, 5, 29, 5, 5, 4),
        user: UserId(9),
        device: DeviceId(3),
        site: SiteId(812),
        action: HttpAction::Get,
        scheme: UriScheme::Http,
        category: taxonomy.category_by_name("Games").unwrap(),
        subtype: taxonomy.subtype_by_media_string("text/html").unwrap(),
        app_type: AppTypeId(0),
        reputation: Reputation::Minimal,
        private_destination: false,
    }];
    for (i, (action, scheme, reputation)) in [
        (HttpAction::Post, UriScheme::Https, Reputation::Unverified),
        (HttpAction::Connect, UriScheme::Http, Reputation::Medium),
        (HttpAction::Head, UriScheme::Https, Reputation::High),
    ]
    .into_iter()
    .enumerate()
    {
        txs.push(Transaction {
            timestamp: Timestamp(10i64.pow(i as u32 * 3)),
            user: UserId(10u32.pow(i as u32 * 3)),
            device: DeviceId(u32::MAX),
            site: SiteId(4_294_967_295),
            action,
            scheme,
            category: CategoryId(104),
            subtype: SubtypeId(256),
            app_type: AppTypeId(463),
            reputation,
            private_destination: true,
        });
    }
    let mut formatted = Vec::new();
    for tx in &txs {
        formatter.write_record(tx, &mut formatted);
    }
    let mut legacy = Vec::new();
    write_golden(&mut legacy, &txs, &taxonomy);
    assert_eq!(formatted, legacy);
    assert!(formatted.starts_with(
        b"2015-05-29 05:05:04, site-812.example.com, HTTP, GET, user_9, device_3, \
          Games, text/html, Rhapsody, Minimal, public\n"
            .as_slice()
    ));
}

fn write_golden(out: &mut Vec<u8>, txs: &[Transaction], taxonomy: &Taxonomy) {
    for tx in txs {
        out.extend_from_slice(format_line(tx, taxonomy).as_bytes());
        out.push(b'\n');
    }
}

/// The reference parsers: the `split(", ")` line parser and `splitn`
/// timestamp parser the zero-allocation paths replaced, with taxonomy
/// lookups done by linear scan. Test-only oracles.
mod reference {
    use super::*;

    fn is_leap(year: i32) -> bool {
        year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
    }

    fn days_in_month(year: i32, month: u32) -> u32 {
        match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if is_leap(year) => 29,
            2 => 28,
            _ => 0,
        }
    }

    /// The timestamp parser, as `Result<seconds, error text>`.
    pub fn timestamp(s: &str) -> Result<Timestamp, String> {
        let err = || format!("invalid timestamp {s:?}, expected YYYY-MM-DD HH:MM:SS");
        let (date, time) = s.split_once(' ').ok_or_else(err)?;
        let mut date_parts = date.splitn(3, '-');
        let mut time_parts = time.splitn(3, ':');
        let year: i32 = date_parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u32 = date_parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u32 = date_parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let hour: u32 = time_parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let minute: u32 = time_parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let second: u32 = time_parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        if !(1..=12).contains(&month)
            || day < 1
            || day > days_in_month(year, month)
            || hour >= 24
            || minute >= 60
            || second >= 60
        {
            return Err(err());
        }
        Ok(Timestamp::from_civil(year, month, day, hour, minute, second))
    }

    fn field_err(field: usize, message: impl Into<String>) -> ParseLineError {
        ParseLineError { field, message: message.into() }
    }

    /// Last id whose name matches, as a `HashMap` built by `collect` finds.
    fn lookup(count: usize, name: &str, name_of: impl Fn(u16) -> String) -> Option<u16> {
        (0..count as u16).rev().find(|&i| name_of(i) == name)
    }

    /// The line parser.
    pub fn parse_line(line: &str, taxonomy: &Taxonomy) -> Result<Transaction, ParseLineError> {
        let fields: Vec<&str> = line.split(", ").collect();
        if fields.len() != 11 {
            return Err(field_err(11, format!("expected 11 fields, found {}", fields.len())));
        }
        let timestamp = timestamp(fields[0]).map_err(|e| field_err(0, e))?;
        let site = fields[1]
            .strip_prefix("site-")
            .and_then(|rest| rest.strip_suffix(".example.com"))
            .and_then(|n| n.parse().ok())
            .map(SiteId)
            .ok_or_else(|| field_err(1, "invalid domain"))?;
        let scheme: UriScheme = fields[2].parse().map_err(|e| field_err(2, format!("{e}")))?;
        let action: HttpAction = fields[3].parse().map_err(|e| field_err(3, format!("{e}")))?;
        let user = fields[4].parse().map_err(|e| field_err(4, format!("{e}")))?;
        let device = fields[5].parse().map_err(|e| field_err(5, format!("{e}")))?;
        let category = lookup(taxonomy.category_count(), fields[6], |i| {
            taxonomy.category_name(CategoryId(i)).to_string()
        })
        .map(CategoryId)
        .ok_or_else(|| field_err(6, format!("unknown category {:?}", fields[6])))?;
        let subtype = lookup(taxonomy.subtype_count(), fields[7], |i| {
            taxonomy.media_type_string(SubtypeId(i))
        })
        .map(SubtypeId)
        .ok_or_else(|| field_err(7, format!("unknown media type {:?}", fields[7])))?;
        let app_type = lookup(taxonomy.app_type_count(), fields[8], |i| {
            taxonomy.app_type_name(AppTypeId(i)).to_string()
        })
        .map(AppTypeId)
        .ok_or_else(|| field_err(8, format!("unknown application type {:?}", fields[8])))?;
        let reputation: Reputation = fields[9].parse().map_err(|e| field_err(9, format!("{e}")))?;
        let private_destination = match fields[10] {
            "public" => false,
            "private" => true,
            other => return Err(field_err(10, format!("expected public/private, got {other:?}"))),
        };
        Ok(Transaction {
            timestamp,
            user,
            device,
            site,
            action,
            scheme,
            category,
            subtype,
            app_type,
            reputation,
            private_destination,
        })
    }

    /// The `BufRead::lines()` reader: its events in file order.
    pub fn read(log: &[u8], taxonomy: &Taxonomy) -> Vec<Event> {
        let mut events = Vec::new();
        for (index, line) in BufReader::with_capacity(7, log).lines().enumerate() {
            let line_no = index + 1;
            match line {
                Err(e) => events.push(Event::Error(e.kind(), line_no)),
                Ok(line) if line.trim().is_empty() => {}
                Ok(line) => events.push(match parse_line(&line, taxonomy) {
                    Ok(tx) => Event::Tx(tx),
                    Err(_) => Event::Error(io::ErrorKind::InvalidData, line_no),
                }),
            }
        }
        events
    }
}

/// What a log reader yields for one line: a transaction, or an error kind
/// with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Tx(Transaction),
    Error(io::ErrorKind, usize),
}

impl Event {
    fn from_result(item: io::Result<Transaction>) -> Event {
        match item {
            Ok(tx) => Event::Tx(tx),
            Err(e) => {
                let text = e.to_string();
                let line_no = text
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("error without a line number: {text}"));
                Event::Error(e.kind(), line_no)
            }
        }
    }
}

/// Deterministic xorshift64* for corpus generation and mutation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// `count` transactions spread over every taxonomy id, every enum variant
/// and 2000–2030, rendered as log lines.
fn generated_corpus(taxonomy: &Taxonomy, count: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|_| {
            let tx = Transaction {
                timestamp: Timestamp(946_684_800 + (rng.next() % 946_684_800) as i64),
                user: UserId(rng.next() as u32 >> rng.below(32)),
                device: DeviceId(rng.next() as u32 >> rng.below(32)),
                site: SiteId(rng.next() as u32 >> rng.below(32)),
                action: HttpAction::ALL[rng.below(4)],
                scheme: UriScheme::ALL[rng.below(2)],
                category: CategoryId(rng.below(taxonomy.category_count()) as u16),
                subtype: SubtypeId(rng.below(taxonomy.subtype_count()) as u16),
                app_type: AppTypeId(rng.below(taxonomy.app_type_count()) as u16),
                reputation: Reputation::ALL[rng.below(4)],
                private_destination: rng.below(2) == 1,
            };
            format_line(&tx, taxonomy)
        })
        .collect()
}

fn assert_parse_matches_reference(line: &str, taxonomy: &Taxonomy) {
    assert_eq!(
        parse_line(line, taxonomy),
        reference::parse_line(line, taxonomy),
        "parse_line diverges from the reference on {line:?}"
    );
}

#[test]
fn parse_line_matches_reference_on_a_generated_corpus() {
    let taxonomy = Taxonomy::paper_scale();
    for line in generated_corpus(&taxonomy, 20_000, 0x5eed) {
        assert!(parse_line(&line, &taxonomy).is_ok(), "corpus line rejected: {line:?}");
        assert_parse_matches_reference(&line, &taxonomy);
    }
}

/// Timestamp fields that probe every rule of the reference parser.
const TIMESTAMPS: &[&str] = &[
    "2015-05-29 05:05:04",
    "2015-5-29 5:5:4",
    "0002015-0005-029 005:005:004",
    "+2015-05-29 05:05:04",
    "2015-+05-+29 +05:+05:+04",
    "++2015-05-29 05:05:04",
    "2015+-05-29 05:05:04",
    "+-05-29 05:05:04",
    "-2015-05-29 05:05:04",
    "2015-05--29 05:05:04",
    "2015-02-29 00:00:00",
    "2016-02-29 00:00:00",
    "1900-02-29 00:00:00",
    "2000-02-29 00:00:00",
    "2015-02-30 00:00:00",
    "2015-04-31 00:00:00",
    "2015-12-31 23:59:59",
    "2015-13-01 00:00:00",
    "2015-00-01 00:00:00",
    "2015-01-00 00:00:00",
    "2015-01-01 24:00:00",
    "2015-01-01 00:60:00",
    "2015-01-01 00:00:60",
    "2147483647-01-01 00:00:00",
    "2147483648-01-01 00:00:00",
    "4294967296-01-01 00:00:00",
    "2015-4294967297-01 00:00:00",
    "2015-01-01 00:00:00000000000000000000001",
    "2015-01-01  00:00:00",
    "2015-01-01 00:00:00 ",
    " 2015-01-01 00:00:00",
    "2015-01-01T00:00:00",
    "2015-01-01 00:00",
    "2015-01-01 00:00:00:00",
    "2015-01-01-01 00:00:00",
    "2015/01/01 00:00:00",
    "2015-01-01 0x:00:00",
    "2015-01-01 ",
    "2015-01-01",
    "",
    "+",
    "٢٠١٥-05-29 05:05:04",
];

#[test]
fn timestamp_parser_matches_reference() {
    let check = |s: &str| {
        let actual = s.parse::<Timestamp>().map_err(|e| e.to_string());
        assert_eq!(actual, reference::timestamp(s), "timestamp parsers diverge on {s:?}");
    };
    TIMESTAMPS.iter().for_each(|s| check(s));
    // Random strings over the timestamp alphabet.
    let mut rng = Rng(0x7173);
    let alphabet = b"0123456789-: +x";
    for _ in 0..200_000 {
        let len = rng.below(24);
        let s: String = (0..len).map(|_| char::from(alphabet[rng.below(alphabet.len())])).collect();
        check(&s);
    }
    // Near-misses of well-formed timestamps.
    for line in generated_corpus(&Taxonomy::paper_scale(), 2_000, 0x7174) {
        let mut bytes = line.as_bytes()[..19].to_vec();
        let at = rng.below(bytes.len());
        bytes[at] = alphabet[rng.below(alphabet.len())];
        check(std::str::from_utf8(&bytes).unwrap());
    }
}

/// Mutations of a valid line: arity, separators inside fields, signed and
/// unpadded numbers, leap days, unknown names, CR and empty fields.
fn mutations(line: &str, rng: &mut Rng) -> Vec<String> {
    let fields: Vec<&str> = line.split(", ").collect();
    let join = |fields: &[&str]| fields.join(", ");
    let with = |index: usize, value: &str| {
        let mut mutated = fields.clone();
        mutated[index] = value;
        join(&mutated)
    };
    let mut out = Vec::new();
    // Too few and too many fields.
    out.push(join(&fields[..10]));
    out.push(join(&fields[1..]));
    out.push(format!("{line}, public"));
    out.push(format!("{line}, "));
    out.push(format!(", {line}"));
    // An extra ", " (or a bare ',' or ' ') inside a field.
    let field = rng.below(11);
    let inside = rng.below(fields[field].len() + 1);
    let (head, tail) = fields[field].split_at(inside);
    for separator in [", ", ",", " ", ",,", ", ,"] {
        out.push(with(field, &format!("{head}{separator}{tail}")));
    }
    // Timestamps: unpadded, signed, leap days, out of range.
    for timestamp in TIMESTAMPS {
        out.push(with(0, timestamp));
    }
    // Signed and padded ids and sites.
    for (index, value) in [
        (4, "user_+9"),
        (4, "user_-9"),
        (4, "user_0009"),
        (4, "user_"),
        (4, "user_4294967296"),
        (5, "device_+3"),
        (5, "device_ 3"),
        (1, "site-+812.example.com"),
        (1, "site-.example.com"),
        (1, "site-812.example.co"),
    ] {
        out.push(with(index, value));
    }
    // Enum spellings.
    for (index, value) in [(2, "http"), (2, "HTTPS "), (3, "get"), (9, "minimal"), (10, "Public")] {
        out.push(with(index, value));
    }
    // Unknown and near-miss taxonomy names.
    for index in 6..9 {
        out.push(with(index, "Nonsense"));
        out.push(with(index, &format!("{} ", fields[index])));
        out.push(with(index, &fields[index][..fields[index].len() - 1]));
        out.push(with(index, &fields[index].to_uppercase()));
    }
    out.push(with(7, "text/"));
    out.push(with(7, "/html"));
    // Trailing CRs and empty fields.
    out.push(format!("{line}\r"));
    out.push(format!("{line}\r\r"));
    for index in 0..11 {
        out.push(with(index, ""));
    }
    out.push(String::new());
    out.push(", , , , , , , , , , ".to_string());
    // A random byte replaced by a delimiter-like or non-ASCII character.
    for _ in 0..4 {
        let mut chars: Vec<char> = line.chars().collect();
        let at = rng.below(chars.len());
        chars[at] = *[',', ' ', '-', ':', '+', '0', '9', '_', '/', '.', '\r', 'é', 'x']
            .get(rng.below(13))
            .unwrap();
        out.push(chars.into_iter().collect());
    }
    out
}

#[test]
fn parse_line_matches_reference_on_mutated_lines() {
    let taxonomy = Taxonomy::paper_scale();
    let mut rng = Rng(0xbad);
    let mut mutated = 0;
    for line in generated_corpus(&taxonomy, 400, 0x6d75) {
        for candidate in mutations(&line, &mut rng) {
            assert_parse_matches_reference(&candidate, &taxonomy);
            mutated += 1;
        }
    }
    assert!(mutated > 30_000, "only {mutated} mutated lines");
}

#[test]
fn arity_error_is_unchanged() {
    let taxonomy = Taxonomy::paper_scale();
    for (line, found) in [("", 1), ("a, b, c", 3), ("a,b", 1), (&", ".repeat(11)[..], 12)] {
        let err = parse_line(line, &taxonomy).unwrap_err();
        assert_eq!(err.field, 11);
        assert_eq!(err.message, format!("expected 11 fields, found {found}"));
    }
}

/// A log of corpus lines interleaved with CRLF endings, blank and
/// whitespace-only lines, invalid UTF-8, malformed lines and (sometimes) an
/// unterminated last line.
fn awkward_log(taxonomy: &Taxonomy, seed: u64) -> Vec<u8> {
    let mut rng = Rng(seed);
    let corpus = generated_corpus(taxonomy, 300, seed ^ 0x1f);
    let mut log = Vec::new();
    for line in &corpus {
        match rng.below(12) {
            0 => log.extend_from_slice(b"\n"),
            1 => log.extend_from_slice(rng.pick(&["   \n", "\t \n", "\r\n", " \r\n"]).as_bytes()),
            2 => log.extend_from_slice(b"\xff\xfe not UTF-8\n"),
            3 => {
                log.extend_from_slice(&line.as_bytes()[..line.len() / 2]);
                log.push(0xc3); // a truncated two-byte sequence
                log.push(b'\n');
            }
            4 => log.extend_from_slice(rng.pick(&["garbage\n", "a, b, c\r\n"]).as_bytes()),
            _ => {}
        }
        log.extend_from_slice(line.as_bytes());
        log.extend_from_slice(rng.pick(&["\n", "\n", "\r\n", "\r\r\n", "\r \n"]).as_bytes());
    }
    match rng.below(4) {
        0 => log.extend_from_slice(corpus[0].as_bytes()),
        1 => log.extend_from_slice(format!("{}\r", corpus[1]).as_bytes()),
        2 => log.extend_from_slice(b"   "),
        _ => {}
    }
    log
}

/// A source that hands out at most `chunk` bytes per read.
struct Trickle<'a> {
    data: Rc<Cell<&'a [u8]>>,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let data = self.data.get();
        let n = self.chunk.min(buf.len()).min(data.len());
        buf[..n].copy_from_slice(&data[..n]);
        self.data.set(&data[n..]);
        Ok(n)
    }
}

/// Everything a tail yields for `log`, as (transactions, errors): a poll
/// that fails hands its earlier transactions to the next poll, so only
/// the two sequences, not their interleaving, are comparable.
fn tail_events(log: &[u8], chunk: usize, taxonomy: &Taxonomy) -> (Vec<Event>, Vec<Event>) {
    let left = Rc::new(Cell::new(log));
    let source = Trickle { data: Rc::clone(&left), chunk };
    let mut tail = LogTail::new(source, taxonomy).with_high_watermark(64);
    let (mut txs, mut errors) = (Vec::new(), Vec::new());
    loop {
        match tail.poll() {
            Ok(batch) if batch.is_empty() && left.get().is_empty() => break,
            Ok(batch) => txs.extend(batch.into_iter().map(Event::Tx)),
            Err(e) => errors.push(Event::from_result(Err(e))),
        }
    }
    (txs, errors)
}

fn split_events(events: Vec<Event>) -> (Vec<Event>, Vec<Event>) {
    events.into_iter().partition(|event| matches!(event, Event::Tx(_)))
}

#[test]
fn readers_match_the_lines_reference() {
    let taxonomy = Taxonomy::paper_scale();
    for seed in 1..=24u64 {
        let log = awkward_log(&taxonomy, seed);
        let expected = reference::read(&log, &taxonomy);
        assert!(expected.iter().any(|e| matches!(e, Event::Error(..))), "seed {seed}: no errors");

        for capacity in [7, 64, 8192] {
            let reader =
                LogReader::new(BufReader::with_capacity(capacity, log.as_slice()), &taxonomy);
            let actual: Vec<Event> = reader.map(Event::from_result).collect();
            assert_eq!(actual, expected, "seed {seed}: LogReader with a {capacity}-byte buffer");
        }
        let actual: Vec<Event> =
            LogReader::new(log.as_slice(), &taxonomy).map(Event::from_result).collect();
        assert_eq!(actual, expected, "seed {seed}: LogReader over a slice");

        // The tail leaves an unterminated last line waiting for its `\n`.
        let terminated = &log[..log.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1)];
        let expected = split_events(reference::read(terminated, &taxonomy));
        for chunk in [1, 7, 100, 4096] {
            assert_eq!(
                tail_events(&log, chunk, &taxonomy),
                expected,
                "seed {seed}: LogTail reading {chunk}-byte chunks"
            );
        }
    }
}

#[test]
fn readers_agree_on_a_line_ending_in_two_carriage_returns() {
    let taxonomy = Taxonomy::paper_scale();
    let line = &generated_corpus(&taxonomy, 1, 9)[0];
    let log = format!("{line}\r\r\n{line}\r\n");
    let expected = vec![
        Event::Error(io::ErrorKind::InvalidData, 1),
        Event::Tx(parse_line(line, &taxonomy).unwrap()),
    ];
    assert_eq!(reference::read(log.as_bytes(), &taxonomy), expected);
    let read: Vec<Event> =
        LogReader::new(log.as_bytes(), &taxonomy).map(Event::from_result).collect();
    assert_eq!(read, expected);
    assert_eq!(tail_events(log.as_bytes(), 4096, &taxonomy), split_events(expected));
}
