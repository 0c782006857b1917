//! Text log format.
//!
//! One transaction per line, comma-separated, mirroring the paper's example
//! record (Sect. III-A):
//!
//! ```text
//! 2015-05-29 05:05:04, site-812.example.com, HTTP, GET, user_9, device_3, Games, text/html, Rhapsody, Minimal, public
//! ```
//!
//! Fields: timestamp, domain, uri-scheme, http-action, user, device,
//! category, media type, application type, reputation, destination
//! visibility (`public`/`private`).
//!
//! Both directions are allocation-free per line. [`LineFormatter`] writes
//! into a reused buffer; [`parse_line`] splits a line into a fixed array
//! of field slices in one pass and decodes every field in place, and
//! [`LogReader`] and [`LogTail`] frame lines inside their own buffers
//! through one shared splitter, so reading a well-formed log allocates
//! nothing per line.

use crate::record::{HttpAction, Reputation, SiteId, Transaction, UriScheme};
use crate::taxonomy::Taxonomy;
use crate::time::Timestamp;
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// Number of comma-separated fields per line.
const FIELD_COUNT: usize = 11;

/// Serializes one transaction as a log line (no trailing newline).
///
/// # Examples
///
/// ```
/// use proxylog::{format_line, parse_line, Taxonomy, Transaction};
/// # use proxylog::{CategoryId, SubtypeId, AppTypeId, DeviceId, HttpAction, Reputation,
/// #     SiteId, Timestamp, UriScheme, UserId};
///
/// let taxonomy = Taxonomy::paper_scale();
/// # let tx = Transaction {
/// #     timestamp: Timestamp::from_civil(2015, 5, 29, 5, 5, 4),
/// #     user: UserId(9), device: DeviceId(3), site: SiteId(812),
/// #     action: HttpAction::Get, scheme: UriScheme::Http,
/// #     category: CategoryId(0), subtype: taxonomy.subtype_by_media_string("text/html").unwrap(),
/// #     app_type: AppTypeId(0), reputation: Reputation::Minimal, private_destination: false,
/// # };
/// let line = format_line(&tx, &taxonomy);
/// assert!(line.starts_with("2015-05-29 05:05:04, site-812.example.com, HTTP, GET, user_9"));
/// let parsed = parse_line(&line, &taxonomy)?;
/// assert_eq!(parsed, tx);
/// # Ok::<(), proxylog::ParseLineError>(())
/// ```
pub fn format_line(tx: &Transaction, taxonomy: &Taxonomy) -> String {
    format!(
        "{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}",
        tx.timestamp,
        tx.site,
        tx.scheme,
        tx.action,
        tx.user,
        tx.device,
        taxonomy.category_name(tx.category),
        taxonomy.media_type_string(tx.subtype),
        taxonomy.app_type_name(tx.app_type),
        tx.reputation,
        if tx.private_destination { "private" } else { "public" },
    )
}

/// Zero-allocation line serializer: writes transactions directly into a
/// caller-provided byte buffer, bit-identical to [`format_line`].
///
/// [`format_line`] allocates a fresh `String` per transaction (one
/// `format!` plus a `media_type_string` allocation); at corpus scale that
/// allocation traffic dominates sink-side wall clock. `LineFormatter`
/// instead caches every taxonomy name as a byte slice at construction and
/// hand-rolls the integer and timestamp digits, so serializing a
/// transaction touches no allocator at all once the output buffer has
/// warmed up.
///
/// The formatter is immutable after construction and `Sync`, so one
/// instance can be shared by reference across parallel emission workers.
///
/// # Examples
///
/// ```
/// use proxylog::{format_line, LineFormatter, Taxonomy, Transaction};
/// # use proxylog::{CategoryId, SubtypeId, AppTypeId, DeviceId, HttpAction, Reputation,
/// #     SiteId, Timestamp, UriScheme, UserId};
///
/// let taxonomy = Taxonomy::paper_scale();
/// # let tx = Transaction {
/// #     timestamp: Timestamp::from_civil(2015, 5, 29, 5, 5, 4),
/// #     user: UserId(9), device: DeviceId(3), site: SiteId(812),
/// #     action: HttpAction::Get, scheme: UriScheme::Http,
/// #     category: CategoryId(0), subtype: taxonomy.subtype_by_media_string("text/html").unwrap(),
/// #     app_type: AppTypeId(0), reputation: Reputation::Minimal, private_destination: false,
/// # };
/// let formatter = LineFormatter::new(&taxonomy);
/// let mut buffer = Vec::new();
/// formatter.write_line(&tx, &mut buffer);
/// assert_eq!(buffer, format_line(&tx, &taxonomy).into_bytes());
/// ```
#[derive(Debug)]
pub struct LineFormatter {
    /// Category names, indexed by `CategoryId`.
    categories: Vec<Box<[u8]>>,
    /// `supertype/subtype` media strings, indexed by `SubtypeId`.
    media: Vec<Box<[u8]>>,
    /// Application-type names, indexed by `AppTypeId`.
    app_types: Vec<Box<[u8]>>,
}

impl LineFormatter {
    /// Builds a formatter by caching every name of `taxonomy` as bytes.
    pub fn new(taxonomy: &Taxonomy) -> Self {
        use crate::taxonomy::{AppTypeId, CategoryId, SubtypeId};
        Self {
            categories: (0..taxonomy.category_count())
                .map(|i| taxonomy.category_name(CategoryId(i as u16)).as_bytes().into())
                .collect(),
            media: (0..taxonomy.subtype_count())
                .map(|i| taxonomy.media_type_string(SubtypeId(i as u16)).into_bytes().into())
                .collect(),
            app_types: (0..taxonomy.app_type_count())
                .map(|i| taxonomy.app_type_name(AppTypeId(i as u16)).as_bytes().into())
                .collect(),
        }
    }

    /// Appends one log line (no trailing newline) to `out`; output is
    /// byte-identical to [`format_line`] for the taxonomy this formatter
    /// was built from.
    ///
    /// # Panics
    ///
    /// Panics if a taxonomy id of `tx` is out of range for that taxonomy,
    /// exactly as [`format_line`] does.
    pub fn write_line(&self, tx: &Transaction, out: &mut Vec<u8>) {
        push_timestamp(out, tx.timestamp);
        out.extend_from_slice(b", site-");
        push_uint(out, u64::from(tx.site.0));
        out.extend_from_slice(b".example.com, ");
        out.extend_from_slice(tx.scheme.as_str().as_bytes());
        out.extend_from_slice(b", ");
        out.extend_from_slice(tx.action.as_str().as_bytes());
        out.extend_from_slice(b", user_");
        push_uint(out, u64::from(tx.user.0));
        out.extend_from_slice(b", device_");
        push_uint(out, u64::from(tx.device.0));
        out.extend_from_slice(b", ");
        out.extend_from_slice(&self.categories[tx.category.0 as usize]);
        out.extend_from_slice(b", ");
        out.extend_from_slice(&self.media[tx.subtype.0 as usize]);
        out.extend_from_slice(b", ");
        out.extend_from_slice(&self.app_types[tx.app_type.0 as usize]);
        out.extend_from_slice(b", ");
        out.extend_from_slice(tx.reputation.as_str().as_bytes());
        out.extend_from_slice(if tx.private_destination { b", private" } else { b", public" });
    }

    /// Appends one log line *with* its trailing newline — the unit
    /// [`write_log`] and the streaming sinks emit.
    pub fn write_record(&self, tx: &Transaction, out: &mut Vec<u8>) {
        self.write_line(tx, out);
        out.push(b'\n');
    }
}

/// Appends the decimal digits of `value`.
fn push_uint(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `value` zero-padded to `width`, matching `format!("{value:0w$}")`
/// for signed values: the sign counts toward the width and the zeros come
/// after it (`-1` at width 4 is `-001`).
fn push_padded(out: &mut Vec<u8>, value: i64, width: usize) {
    let mut width = width;
    if value < 0 {
        out.push(b'-');
        width = width.saturating_sub(1);
    }
    let magnitude = value.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = magnitude;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for _ in (digits.len() - at)..width {
        out.push(b'0');
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `YYYY-MM-DD HH:MM:SS`, byte-identical to `Timestamp`'s
/// `Display` implementation.
fn push_timestamp(out: &mut Vec<u8>, timestamp: Timestamp) {
    let (y, mo, d, h, mi, s) = timestamp.to_civil();
    push_padded(out, i64::from(y), 4);
    out.push(b'-');
    push_padded(out, i64::from(mo), 2);
    out.push(b'-');
    push_padded(out, i64::from(d), 2);
    out.push(b' ');
    push_padded(out, i64::from(h), 2);
    out.push(b':');
    push_padded(out, i64::from(mi), 2);
    out.push(b':');
    push_padded(out, i64::from(s), 2);
}

/// Error produced by [`parse_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLineError {
    /// 0-based field index where parsing failed, or `FIELD_COUNT` when the
    /// line had the wrong number of fields.
    pub field: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log line field {}: {}", self.field, self.message)
    }
}

impl std::error::Error for ParseLineError {}

fn field_err(field: usize, message: impl Into<String>) -> ParseLineError {
    ParseLineError { field, message: message.into() }
}

/// Parses one log line produced by [`format_line`].
///
/// The line is split on `", "` in one pass into a fixed array of field
/// slices, and every field is decoded in place: a well-formed line costs
/// no allocation.
///
/// # Errors
///
/// Returns [`ParseLineError`] naming the offending field when the line has
/// the wrong arity, a malformed field, or taxonomy names unknown to
/// `taxonomy`.
pub fn parse_line(line: &str, taxonomy: &Taxonomy) -> Result<Transaction, ParseLineError> {
    let fields = split_fields(line).map_err(|found| {
        field_err(FIELD_COUNT, format!("expected {FIELD_COUNT} fields, found {found}"))
    })?;
    let timestamp: Timestamp = fields[0].parse().map_err(|e| field_err(0, format!("{e}")))?;
    let site = parse_site(fields[1]).ok_or_else(|| field_err(1, "invalid domain"))?;
    let scheme: UriScheme = fields[2].parse().map_err(|e| field_err(2, format!("{e}")))?;
    let action: HttpAction = fields[3].parse().map_err(|e| field_err(3, format!("{e}")))?;
    let user = fields[4].parse().map_err(|e| field_err(4, format!("{e}")))?;
    let device = fields[5].parse().map_err(|e| field_err(5, format!("{e}")))?;
    let category = taxonomy
        .category_by_name(fields[6])
        .ok_or_else(|| field_err(6, format!("unknown category {:?}", fields[6])))?;
    let subtype = taxonomy
        .subtype_by_media_string(fields[7])
        .ok_or_else(|| field_err(7, format!("unknown media type {:?}", fields[7])))?;
    let app_type = taxonomy
        .app_type_by_name(fields[8])
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

/// Splits `line` on `", "` exactly as `line.split(", ")` does; a line
/// without [`FIELD_COUNT`] pieces yields its piece count instead.
fn split_fields(line: &str) -> Result<[&str; FIELD_COUNT], usize> {
    let bytes = line.as_bytes();
    let mut fields = [""; FIELD_COUNT];
    let mut count = 0;
    let mut start = 0;
    let mut from = 0;
    while let Some(comma) = find_byte(&bytes[from..], b',').map(|at| from + at) {
        from = comma + 1;
        if bytes.get(from) != Some(&b' ') {
            continue;
        }
        if count < FIELD_COUNT {
            // Both ends sit next to ASCII bytes: char boundaries.
            fields[count] = &line[start..comma];
        }
        count += 1;
        from += 1;
        start = from;
    }
    if count + 1 != FIELD_COUNT {
        return Err(count + 1);
    }
    fields[count] = &line[start..];
    Ok(fields)
}

/// Offset of the first `needle` in `bytes`, testing eight bytes per step.
fn find_byte(bytes: &[u8], needle: u8) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let pattern = ONES * u64::from(needle);
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let diff = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ pattern;
        // High bit set in each byte of `diff` that is zero; bytes above
        // the first zero may be flagged spuriously, the lowest flag never.
        let zeros = diff.wrapping_sub(ONES) & !diff & HIGHS;
        if zeros != 0 {
            return Some(offset + zeros.trailing_zeros() as usize / 8);
        }
        offset += 8;
    }
    words.remainder().iter().position(|&b| b == needle).map(|at| offset + at)
}

fn parse_site(domain: &str) -> Option<SiteId> {
    domain
        .strip_prefix("site-")
        .and_then(|rest| rest.strip_suffix(".example.com"))
        .and_then(|n| n.parse().ok())
        .map(SiteId)
}

/// Writes transactions as log lines to `writer` (which may be a `&mut`
/// reference).
///
/// Serialization goes through a [`LineFormatter`] and a reusable buffer
/// flushed in large chunks, so the per-transaction cost is byte copies
/// only; output is byte-identical to the historical one-`format_line`-per-
/// `writeln!` implementation.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_log<W: Write>(
    mut writer: W,
    transactions: &[Transaction],
    taxonomy: &Taxonomy,
) -> io::Result<()> {
    const FLUSH_BYTES: usize = 64 * 1024;
    let formatter = LineFormatter::new(taxonomy);
    let mut buffer = Vec::with_capacity(FLUSH_BYTES + 256);
    for tx in transactions {
        formatter.write_record(tx, &mut buffer);
        if buffer.len() >= FLUSH_BYTES {
            writer.write_all(&buffer)?;
            buffer.clear();
        }
    }
    writer.write_all(&buffer)
}

/// Reads a log written by [`write_log`]; empty lines are skipped.
///
/// # Errors
///
/// Returns an `io::Error` for read failures; parse failures are wrapped as
/// `io::ErrorKind::InvalidData` with the line number in the message.
pub fn read_log<R: BufRead>(reader: R, taxonomy: &Taxonomy) -> io::Result<Vec<Transaction>> {
    LogReader::new(reader, taxonomy).collect()
}

/// Parses one framed line for [`LogReader`] and [`LogTail`]: its bytes up
/// to and including the `\n` that ends it (a final line may lack one).
///
/// Exactly one `\r` before the `\n` is dropped (a CRLF log parses, a
/// stray CR inside the last field does not). Blank and whitespace-only
/// lines yield `None`; bad UTF-8 and malformed lines yield
/// `io::ErrorKind::InvalidData` naming `line_no`.
fn parse_framed(
    raw: &[u8],
    line_no: usize,
    taxonomy: &Taxonomy,
) -> Option<io::Result<Transaction>> {
    let raw = match raw.strip_suffix(b"\n") {
        Some(body) => body.strip_suffix(b"\r").unwrap_or(body),
        None => raw,
    };
    let invalid = |detail: &dyn fmt::Display| {
        io::Error::new(io::ErrorKind::InvalidData, format!("line {line_no}: {detail}"))
    };
    match std::str::from_utf8(raw) {
        Err(_) => Some(Err(invalid(&"invalid UTF-8"))),
        Ok(line) if line.trim_start().is_empty() => None,
        Ok(line) => Some(parse_line(line, taxonomy).map_err(|e| invalid(&e))),
    }
}

/// Lazy log reader: yields one transaction per line, so multi-gigabyte
/// logs can be filtered or windowed without loading everything.
///
/// Produced transactions are in file order; blank lines are skipped. Each
/// item is a `Result`, with parse failures reported as
/// `io::ErrorKind::InvalidData` carrying the line number.
///
/// Lines are framed inside the reader's own buffer and parsed in place; a
/// line is copied (into one buffer reused for the whole log) only when it
/// straddles a refill. Reading a well-formed log costs no allocation per
/// line.
///
/// # Examples
///
/// ```
/// use proxylog::{LogReader, Taxonomy};
///
/// let taxonomy = Taxonomy::paper_scale();
/// let log = b"".as_slice();
/// let count = LogReader::new(log, &taxonomy).count();
/// assert_eq!(count, 0);
/// ```
#[derive(Debug)]
pub struct LogReader<'a, R> {
    reader: R,
    taxonomy: &'a Taxonomy,
    /// The head of a line that straddles a refill of `reader`'s buffer.
    spill: Vec<u8>,
    line_no: usize,
}

impl<'a, R: BufRead> LogReader<'a, R> {
    /// Creates a reader over `reader` (which may be a `&mut` reference).
    pub fn new(reader: R, taxonomy: &'a Taxonomy) -> Self {
        Self { reader, taxonomy, spill: Vec::new(), line_no: 0 }
    }
}

impl<R: BufRead> Iterator for LogReader<'_, R> {
    type Item = io::Result<Transaction>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let available = match self.reader.fill_buf() {
                Ok(available) => available,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(e)),
            };
            let (item, used) = match find_byte(available, b'\n') {
                Some(nl) => {
                    self.line_no += 1;
                    let item = if self.spill.is_empty() {
                        parse_framed(&available[..=nl], self.line_no, self.taxonomy)
                    } else {
                        self.spill.extend_from_slice(&available[..=nl]);
                        let item = parse_framed(&self.spill, self.line_no, self.taxonomy);
                        self.spill.clear();
                        item
                    };
                    (item, nl + 1)
                }
                None if available.is_empty() => {
                    if self.spill.is_empty() {
                        return None;
                    }
                    // End of input: the spill is a last line without `\n`.
                    self.line_no += 1;
                    let item = parse_framed(&self.spill, self.line_no, self.taxonomy);
                    self.spill.clear();
                    (item, 0)
                }
                None => {
                    self.spill.extend_from_slice(available);
                    (None, available.len())
                }
            };
            self.reader.consume(used);
            if item.is_some() {
                return item;
            }
        }
    }
}

/// Poll-based tail reader for live logs: the streaming engine's file
/// source.
///
/// [`LogReader`] treats end-of-input as the end of the log; `LogTail`
/// treats it as "no more data *yet*". Each [`poll`](LogTail::poll) reads
/// everything currently available, parses the complete lines, and carries
/// any trailing partial line until its newline arrives in a later poll —
/// so a producer appending to the underlying file (or channel) mid-line
/// never corrupts a record. A reader returning `WouldBlock` (non-blocking
/// sources) ends the poll like end-of-file does.
///
/// A poll drains at most a bounded number of bytes (default
/// [`DEFAULT_POLL_HIGH_WATERMARK`], configurable via
/// [`with_high_watermark`](LogTail::with_high_watermark)), so a producer
/// burst cannot balloon the tail's memory: the remaining bytes stay in
/// the source and the next poll resumes exactly where this one left off.
///
/// # Examples
///
/// ```
/// use proxylog::{LogTail, Taxonomy};
///
/// let taxonomy = Taxonomy::paper_scale();
/// let mut tail = LogTail::new(std::io::empty(), &taxonomy);
/// assert!(tail.poll().unwrap().is_empty()); // nothing yet — not an error
/// ```
#[derive(Debug)]
pub struct LogTail<'a, R> {
    reader: R,
    taxonomy: &'a Taxonomy,
    /// Bytes read but not yet terminated by a newline.
    carry: Vec<u8>,
    /// Transactions parsed before a bad line stopped a poll, delivered by
    /// the next poll.
    pending: Vec<Transaction>,
    /// Stop draining the reader once the carry holds this many bytes.
    high_watermark: usize,
    line_no: usize,
}

/// Default per-poll byte cap of [`LogTail`]: 8 MiB.
pub const DEFAULT_POLL_HIGH_WATERMARK: usize = 8 << 20;

impl<'a, R: Read> LogTail<'a, R> {
    /// Creates a tail over `reader` (typically a `File` whose producer
    /// keeps appending; the file cursor picks up appended data on the next
    /// poll).
    pub fn new(reader: R, taxonomy: &'a Taxonomy) -> Self {
        Self {
            reader,
            taxonomy,
            carry: Vec::new(),
            pending: Vec::new(),
            high_watermark: DEFAULT_POLL_HIGH_WATERMARK,
            line_no: 0,
        }
    }

    /// Caps the bytes one [`poll`](LogTail::poll) drains from the reader.
    /// The carry buffer never grows beyond the watermark plus one read
    /// chunk; bytes past the cap stay in the source and lead the next
    /// poll. Every poll still reads at least one chunk, so even a single
    /// line longer than the watermark completes after finitely many polls.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_high_watermark(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "the poll watermark must be positive");
        self.high_watermark = bytes;
        self
    }

    /// Bytes of a trailing partial line waiting for their newline.
    pub fn carried_bytes(&self) -> usize {
        self.carry.len()
    }

    /// Reads everything currently available and returns the transactions
    /// of all newly completed lines, in file order. An empty result means
    /// no complete line has appeared yet.
    ///
    /// # Errors
    ///
    /// Read failures are propagated; a malformed line yields
    /// `io::ErrorKind::InvalidData` with the line number. Both leave the
    /// tail usable: the next poll resumes after the offending line, and
    /// transactions parsed before the error are not lost (they lead the
    /// next poll's result).
    pub fn poll(&mut self) -> io::Result<Vec<Transaction>> {
        self.fill()?;
        let mut out = std::mem::take(&mut self.pending);
        let mut consumed = 0;
        let mut error = None;
        while error.is_none() {
            let Some(nl) = find_byte(&self.carry[consumed..], b'\n') else {
                break;
            };
            let line_end = consumed + nl + 1;
            self.line_no += 1;
            match parse_framed(&self.carry[consumed..line_end], self.line_no, self.taxonomy) {
                None => {}
                Some(Ok(tx)) => out.push(tx),
                Some(Err(e)) => error = Some(e),
            }
            consumed = line_end;
        }
        self.carry.drain(..consumed);
        match error {
            Some(e) => {
                self.pending = out;
                Err(e)
            }
            None => Ok(out),
        }
    }

    /// Drains the reader into the carry buffer until its current end or
    /// the high-watermark, whichever comes first. At least one chunk is
    /// read per call so an oversized line still makes progress.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.reader.read(&mut chunk) {
                Ok(0) => return Ok(()),
                Ok(n) => {
                    self.carry.extend_from_slice(&chunk[..n]);
                    if self.carry.len() >= self.high_watermark {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DeviceId, UserId};
    use crate::taxonomy::{AppTypeId, CategoryId};

    fn example(taxonomy: &Taxonomy) -> Transaction {
        Transaction {
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
        }
    }

    #[test]
    fn format_matches_paper_shape() {
        let taxonomy = Taxonomy::paper_scale();
        let line = format_line(&example(&taxonomy), &taxonomy);
        assert_eq!(
            line,
            "2015-05-29 05:05:04, site-812.example.com, HTTP, GET, user_9, device_3, \
             Games, text/html, Rhapsody, Minimal, public"
        );
    }

    #[test]
    fn round_trip() {
        let taxonomy = Taxonomy::paper_scale();
        let tx = example(&taxonomy);
        let parsed = parse_line(&format_line(&tx, &taxonomy), &taxonomy).unwrap();
        assert_eq!(parsed, tx);
    }

    #[test]
    fn round_trip_private_https_connect() {
        let taxonomy = Taxonomy::paper_scale();
        let tx = Transaction {
            action: HttpAction::Connect,
            scheme: UriScheme::Https,
            reputation: Reputation::Unverified,
            private_destination: true,
            category: CategoryId(104),
            ..example(&taxonomy)
        };
        let parsed = parse_line(&format_line(&tx, &taxonomy), &taxonomy).unwrap();
        assert_eq!(parsed, tx);
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let taxonomy = Taxonomy::paper_scale();
        let err = parse_line("a, b, c", &taxonomy).unwrap_err();
        assert!(err.to_string().contains("expected 11 fields"));
    }

    #[test]
    fn unknown_category_is_rejected_with_field_index() {
        let taxonomy = Taxonomy::paper_scale();
        let line = format_line(&example(&taxonomy), &taxonomy).replace("Games", "Nonsense");
        let err = parse_line(&line, &taxonomy).unwrap_err();
        assert_eq!(err.field, 6);
    }

    #[test]
    fn bad_visibility_is_rejected() {
        let taxonomy = Taxonomy::paper_scale();
        let line = format_line(&example(&taxonomy), &taxonomy).replace("public", "global");
        let err = parse_line(&line, &taxonomy).unwrap_err();
        assert_eq!(err.field, 10);
    }

    #[test]
    fn write_and_read_log() {
        let taxonomy = Taxonomy::paper_scale();
        let txs = vec![example(&taxonomy), Transaction { user: UserId(2), ..example(&taxonomy) }];
        let mut buffer = Vec::new();
        write_log(&mut buffer, &txs, &taxonomy).unwrap();
        let read = read_log(buffer.as_slice(), &taxonomy).unwrap();
        assert_eq!(read, txs);
    }

    #[test]
    fn log_reader_is_lazy_and_reports_position() {
        let taxonomy = Taxonomy::paper_scale();
        let mut buffer = Vec::new();
        write_log(&mut buffer, &[example(&taxonomy)], &taxonomy).unwrap();
        buffer.extend_from_slice(b"\ngarbage\n");
        write_log(&mut buffer, &[example(&taxonomy)], &taxonomy).unwrap();
        let mut reader = LogReader::new(buffer.as_slice(), &taxonomy);
        // First record parses despite the later garbage (laziness).
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 3"), "got {err}");
        // The reader can continue past the bad line.
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().is_none());
    }

    /// A readable source another handle can append to mid-stream, like a
    /// log file a proxy keeps writing.
    #[derive(Clone)]
    struct GrowingSource {
        data: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
        pos: usize,
    }

    impl GrowingSource {
        fn new() -> Self {
            Self { data: Default::default(), pos: 0 }
        }

        fn append(&self, bytes: &[u8]) {
            self.data.lock().unwrap().extend_from_slice(bytes);
        }
    }

    impl Read for GrowingSource {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let data = self.data.lock().unwrap();
            let available = &data[self.pos..];
            let n = available.len().min(buf.len());
            buf[..n].copy_from_slice(&available[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn tail_carries_partial_lines_across_polls() {
        let taxonomy = Taxonomy::paper_scale();
        let tx = example(&taxonomy);
        let line = format_line(&tx, &taxonomy);
        let source = GrowingSource::new();
        let mut tail = LogTail::new(source.clone(), &taxonomy);

        assert!(tail.poll().unwrap().is_empty(), "nothing yet");
        // Half a line: nothing to emit, bytes are carried.
        let (head, rest) = line.split_at(20);
        source.append(head.as_bytes());
        assert!(tail.poll().unwrap().is_empty());
        assert_eq!(tail.carried_bytes(), 20);
        // The rest arrives (plus a second complete line): both parse.
        source.append(rest.as_bytes());
        source.append(b"\n");
        source.append(line.as_bytes());
        source.append(b"\n");
        let got = tail.poll().unwrap();
        assert_eq!(got, vec![tx, tx]);
        assert_eq!(tail.carried_bytes(), 0);
        // Quiet stream: polls stay empty, not errors.
        assert!(tail.poll().unwrap().is_empty());
    }

    #[test]
    fn tail_survives_bad_lines_without_losing_records() {
        let taxonomy = Taxonomy::paper_scale();
        let tx = example(&taxonomy);
        let line = format_line(&tx, &taxonomy);
        let source = GrowingSource::new();
        let mut tail = LogTail::new(source.clone(), &taxonomy);
        source.append(format!("{line}\ngarbage\n{line}\n").as_bytes());
        let err = tail.poll().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "got {err}");
        // The record before the bad line leads the next poll; the one
        // after it parses too.
        assert_eq!(tail.poll().unwrap(), vec![tx, tx]);
    }

    #[test]
    fn line_formatter_matches_format_line_exactly() {
        let taxonomy = Taxonomy::paper_scale();
        let formatter = LineFormatter::new(&taxonomy);
        let mut buffer = Vec::new();
        for tx in [
            example(&taxonomy),
            Transaction {
                action: HttpAction::Connect,
                scheme: UriScheme::Https,
                reputation: Reputation::Unverified,
                private_destination: true,
                category: CategoryId(104),
                user: UserId(4_000_000_000),
                site: SiteId(u32::MAX),
                ..example(&taxonomy)
            },
        ] {
            buffer.clear();
            formatter.write_line(&tx, &mut buffer);
            assert_eq!(buffer, format_line(&tx, &taxonomy).into_bytes());
        }
    }

    #[test]
    fn line_formatter_matches_display_padding_on_extreme_timestamps() {
        // Pre-epoch and pre-year-1000 timestamps exercise the sign and
        // zero-padding paths that `{:04}` takes in `Timestamp`'s Display.
        let taxonomy = Taxonomy::paper_scale();
        let formatter = LineFormatter::new(&taxonomy);
        for secs in [0i64, -1, -86_400_000_000, 86_400 * 365_000, i64::from(u32::MAX)] {
            let tx = Transaction { timestamp: Timestamp(secs), ..example(&taxonomy) };
            let mut buffer = Vec::new();
            formatter.write_line(&tx, &mut buffer);
            assert_eq!(
                buffer,
                format_line(&tx, &taxonomy).into_bytes(),
                "diverged at timestamp {secs}"
            );
        }
    }

    #[test]
    fn write_record_appends_newline_and_round_trips() {
        let taxonomy = Taxonomy::paper_scale();
        let formatter = LineFormatter::new(&taxonomy);
        let tx = example(&taxonomy);
        let mut buffer = Vec::new();
        formatter.write_record(&tx, &mut buffer);
        assert_eq!(buffer.last(), Some(&b'\n'));
        let parsed = read_log(buffer.as_slice(), &taxonomy).unwrap();
        assert_eq!(parsed, vec![tx]);
    }

    #[test]
    fn tail_watermark_bounds_a_poll_and_resumes() {
        let taxonomy = Taxonomy::paper_scale();
        let tx = example(&taxonomy);
        let line = format_line(&tx, &taxonomy);
        let source = GrowingSource::new();
        // A watermark of one byte: each poll reads a single 8 KiB chunk.
        let mut tail = LogTail::new(source.clone(), &taxonomy).with_high_watermark(1);
        // Burst: 400 lines (~48 KiB) arrive at once.
        let burst = format!("{line}\n").repeat(400);
        source.append(burst.as_bytes());
        let mut got = Vec::new();
        let mut polls = 0;
        while got.len() < 400 {
            let batch = tail.poll().unwrap();
            assert!(tail.carried_bytes() <= 8192 + line.len(), "carry ballooned");
            got.extend(batch);
            polls += 1;
            assert!(polls <= 64, "polls stopped making progress");
        }
        assert!(polls > 1, "the watermark should split the burst across polls");
        assert_eq!(got, vec![tx; 400]);
        assert!(tail.poll().unwrap().is_empty());
    }

    #[test]
    fn tail_completes_a_line_longer_than_the_watermark() {
        // `fill` always reads at least one chunk, so a single line larger
        // than the watermark terminates after finitely many polls.
        let taxonomy = Taxonomy::paper_scale();
        let tx = example(&taxonomy);
        let line = format_line(&tx, &taxonomy);
        let source = GrowingSource::new();
        let mut tail = LogTail::new(source.clone(), &taxonomy).with_high_watermark(16);
        source.append(format!("\n\n\n{line}\n").as_bytes());
        let mut got = Vec::new();
        for _ in 0..16 {
            got.extend(tail.poll().unwrap());
            if !got.is_empty() {
                break;
            }
        }
        assert_eq!(got, vec![tx]);
    }

    #[test]
    fn read_log_skips_blank_lines_and_reports_line_numbers() {
        let taxonomy = Taxonomy::paper_scale();
        let mut buffer = Vec::new();
        write_log(&mut buffer, &[example(&taxonomy)], &taxonomy).unwrap();
        buffer.extend_from_slice(b"\ngarbage line\n");
        let err = read_log(buffer.as_slice(), &taxonomy).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "got {err}");
    }
}
