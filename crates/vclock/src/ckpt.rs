//! The versioned, CRC-framed checkpoint format for detector state.
//!
//! A detector is a deterministic fold over the event stream, so its
//! state at any record boundary is a value — and a value can be written
//! down. This module provides the wire format that makes those values
//! durable: a headered, line-framed text blob in the same spirit as the
//! framed trace format (`crace-cli`'s `=<len>:<crc32> …` records), so a
//! torn or corrupted checkpoint is *detected* and rejected rather than
//! silently restored into a wrong report:
//!
//! ```text
//! #%crace-ckpt v1 rd2
//! =31:ccd24c03 meta adaptive - 0 2 2 0 0 0,0,0
//! =14:b68848bb thread 0 3,0,1
//! =11:f19467a1 abandoned 0
//! =8:a075b86b joined 0
//! =13:02d50268 report 0 64 0
//! =5:c0e00c6d end 5
//! ```
//!
//! * the header carries the format **version** and the detector **kind**
//!   — a reader refuses both a future version and a kind mismatch, so a
//!   checkpoint can never be restored into the wrong detector shape;
//! * every record line carries its byte length and IEEE CRC-32, so any
//!   byte flip fails closed with a line-accurate diagnostic;
//! * the final record is `end <n>` with the record count, so truncation
//!   at any byte — even on a clean line boundary — is detected.
//!
//! The degradation contract is the point: a reader either reproduces the
//! exact state that was written or returns a [`CkptError`] telling the
//! caller to fall back to a full capture replay. It never guesses.

use crate::{AdaptiveClock, ClockStats, Epoch, SyncClocks, VectorClock};
use crace_model::{LockId, ThreadId};
use std::fmt;

/// Magic prefix of every checkpoint header line.
pub const CKPT_MAGIC: &str = "#%crace-ckpt";

/// The format version this build writes and the only one it restores.
pub const CKPT_VERSION: u32 = 1;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table of the
/// reflected IEEE polynomial, and `CRC_TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups fold in eight
/// input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// IEEE CRC-32 (the zlib/PNG polynomial) of `bytes` — the checksum of
/// every framed record: checkpoints, trace captures and the wire.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends `payload` to `out` as one framed record, `=<len>:<crc32hex>
/// <payload>` (no newline) — the record frame shared by checkpoints and
/// framed traces. `payload` must be a single line.
pub fn frame(out: &mut String, payload: &str) {
    debug_assert!(!payload.contains('\n'), "records are single lines");
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let crc = crc32(payload.as_bytes());
    let hex: [u8; 8] = std::array::from_fn(|i| HEX[(crc >> (28 - 4 * i)) as usize & 0xF]);
    out.reserve(payload.len() + 31);
    out.push('=');
    push_u64(out, payload.len() as u64);
    out.push(':');
    out.push_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"));
    out.push(' ');
    out.push_str(payload);
}

/// Appends one framed record and its newline to `out`, building the
/// payload in the reusable `scratch` — how records are rendered outside a
/// [`CkptWriter`], e.g. blocks that another thread renders for
/// [`CkptWriter::framed`].
pub fn frame_line(out: &mut String, scratch: &mut String, build: impl FnOnce(&mut String)) {
    scratch.clear();
    build(scratch);
    frame(out, scratch);
    out.push('\n');
}

/// `DECIMAL[n]` for `n < 1000`: the digits of `n` padded to three bytes,
/// then their count — one table load renders most clock components.
static DECIMAL: [[u8; 4]; 1000] = decimal_table();

const fn decimal_table() -> [[u8; 4]; 1000] {
    const fn digit(n: usize) -> u8 {
        b'0' + (n % 10) as u8
    }
    let mut table = [[0u8; 4]; 1000];
    let mut n = 0;
    while n < 1000 {
        table[n] = match n {
            0..=9 => [digit(n), 0, 0, 1],
            10..=99 => [digit(n / 10), digit(n), 0, 2],
            _ => [digit(n / 100), digit(n / 10), digit(n), 3],
        };
        n += 1;
    }
    table
}

/// The most bytes [`put_u64`] writes: `u64::MAX` has 20 digits.
const U64_DIGITS: usize = 20;

/// The one decimal writer: puts the digits of `n` at the front of `dst`
/// (at least [`U64_DIGITS`] bytes long) and returns how many it put.
fn put_u64(dst: &mut [u8], n: u64) -> usize {
    if n < 1000 {
        let entry = DECIMAL[n as usize];
        dst[..4].copy_from_slice(&entry);
        return usize::from(entry[3]);
    }
    let len = n.ilog10() as usize + 1;
    let mut rest = n;
    for slot in dst[..len].iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    len
}

/// Appends the decimal digits of `n` to `out` — exactly what
/// `write!(out, "{n}")` appends, without the formatting machinery, which
/// was most of the cost of rendering a checkpoint.
pub fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; U64_DIGITS];
    let len = put_u64(&mut buf, n);
    out.push_str(std::str::from_utf8(&buf[..len]).expect("decimal digits are ASCII"));
}

/// Checks one framed line (without its newline) and returns its payload.
///
/// # Errors
///
/// Why the line is not an intact record: a bad prefix, length or
/// checksum, or a payload cut short.
pub fn unframe(line: &str) -> Result<&str, String> {
    let body = line
        .strip_prefix('=')
        .ok_or_else(|| format!("not a framed record: `{}`", clip(line)))?;
    let (len_text, rest) = body.split_once(':').ok_or("record header cut before `:`")?;
    let len: usize = len_text
        .parse()
        .map_err(|_| format!("bad record length `{}`", clip(len_text)))?;
    let (crc_text, payload) = rest
        .split_once(' ')
        .ok_or("record header cut before payload")?;
    let crc = (crc_text.len() == 8)
        .then(|| u32::from_str_radix(crc_text, 16).ok())
        .flatten()
        .ok_or_else(|| format!("bad record checksum `{}`", clip(crc_text)))?;
    if payload.len() != len {
        return Err(format!(
            "record cut short: header says {len} byte(s), line has {}",
            payload.len()
        ));
    }
    let actual = crc32(payload.as_bytes());
    if actual != crc {
        return Err(format!(
            "checksum mismatch (expected {crc_text}, payload hashes to {actual:08x})"
        ));
    }
    Ok(payload)
}

/// Why a checkpoint could not be restored. Carries the 1-based line the
/// damage was found on, for spanned diagnostics; restoring code treats
/// *every* variant the same way — fail closed, fall back to replaying
/// the full capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptError {
    /// 1-based line number where the problem was detected.
    pub line: usize,
    /// What exactly was wrong.
    pub reason: String,
}

impl CkptError {
    /// Builds an error at `line` with the given reason.
    pub fn at(line: usize, reason: impl Into<String>) -> CkptError {
        CkptError {
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for CkptError {}

/// Escapes an arbitrary string into a single whitespace-free word.
///
/// Records are whitespace-split, so embedded spaces, newlines and the
/// escape character itself are encoded; the empty string becomes the
/// marker `\e` so it survives the split. [`unesc`] inverts exactly.
pub fn esc(s: &str) -> String {
    if s.is_empty() {
        return "\\e".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverts [`esc`].
///
/// # Errors
///
/// Returns the offending escape sequence when the word is not a valid
/// escaping of any string.
pub fn unesc(word: &str) -> Result<String, String> {
    if word == "\\e" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(word.len());
    let mut chars = word.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            other => {
                return Err(match other {
                    Some(o) => format!("bad escape `\\{o}`"),
                    None => "dangling escape at end of word".to_string(),
                })
            }
        }
    }
    Ok(out)
}

/// Streaming writer of a checkpoint blob: header first, one framed
/// record per [`CkptWriter::rec`] (or per line given to
/// [`CkptWriter::framed`]), the `end` marker on [`CkptWriter::finish`].
pub struct CkptWriter {
    out: String,
    records: u64,
    scratch: String,
}

impl CkptWriter {
    /// Starts a checkpoint of the given detector `kind` (a short
    /// whitespace-free tag such as `rd2`; readers must present the
    /// same kind).
    pub fn new(kind: &str) -> CkptWriter {
        CkptWriter::with_capacity(kind, 0)
    }

    /// [`CkptWriter::new`] with room for `capacity` bytes, e.g. about the
    /// length of the previous blob, so a checkpoint that is about as long
    /// as the last one never regrows its buffer.
    pub fn with_capacity(kind: &str, capacity: usize) -> CkptWriter {
        debug_assert!(
            !kind.is_empty() && !kind.contains(char::is_whitespace),
            "checkpoint kind must be a single word"
        );
        let mut out = String::with_capacity(capacity);
        out.push_str(&format!("{CKPT_MAGIC} v{CKPT_VERSION} {kind}\n"));
        CkptWriter {
            out,
            records: 0,
            scratch: String::new(),
        }
    }

    /// Appends one record; `payload` must be a single line (no newline).
    pub fn rec(&mut self, payload: &str) {
        self.records += 1;
        frame(&mut self.out, payload);
        self.out.push('\n');
    }

    /// Appends one record whose payload is built directly into the
    /// writer's reusable scratch buffer — the allocation-free variant of
    /// [`CkptWriter::rec`] for hot serializers (per-clock records in a
    /// wide pipeline checkpoint number in the thousands).
    pub fn rec_with(&mut self, build: impl FnOnce(&mut String)) {
        self.records += 1;
        frame_line(&mut self.out, &mut self.scratch, build);
    }

    /// Appends records that are already framed: `render` appends whole
    /// lines, each ending in a newline as [`frame_line`] renders them, and
    /// returns how many, which count toward the `end` marker. This is how
    /// records cached from an earlier checkpoint, or rendered on another
    /// thread, enter a blob verbatim.
    pub fn framed(&mut self, render: impl FnOnce(&mut String) -> u64) {
        let start = self.out.len();
        let records = render(&mut self.out);
        debug_assert_eq!(
            self.out[start..].bytes().filter(|&b| b == b'\n').count() as u64,
            records,
            "framed records are whole lines"
        );
        debug_assert!(self.out.len() == start || self.out.ends_with('\n'));
        self.records += records;
    }

    /// Appends the `end` marker and returns the finished blob.
    pub fn finish(mut self) -> String {
        let records = self.records;
        self.rec_with(|out| {
            out.push_str("end ");
            push_u64(out, records);
        });
        self.out
    }
}

/// One validated checkpoint record: its 1-based line number and its
/// whitespace-split payload words.
#[derive(Debug)]
pub struct CkptRecord<'a> {
    /// 1-based line number of the record, for diagnostics.
    pub line: usize,
    /// The payload split on single spaces.
    pub words: Vec<&'a str>,
}

impl CkptRecord<'_> {
    /// The record's leading tag word (always present — empty payloads
    /// are rejected by the reader).
    pub fn tag(&self) -> &str {
        self.words[0]
    }

    /// The word at `i`, or a spanned error naming the record's tag.
    ///
    /// # Errors
    ///
    /// [`CkptError`] when the record has fewer than `i + 1` words.
    pub fn word(&self, i: usize) -> Result<&str, CkptError> {
        self.words.get(i).copied().ok_or_else(|| {
            CkptError::at(
                self.line,
                format!("`{}` record is missing field {i}", self.tag()),
            )
        })
    }

    /// The word at `i` parsed as an integer.
    ///
    /// # Errors
    ///
    /// [`CkptError`] when the field is missing or not a number.
    pub fn num<T: std::str::FromStr>(&self, i: usize) -> Result<T, CkptError> {
        let w = self.word(i)?;
        w.parse().map_err(|_| {
            CkptError::at(
                self.line,
                format!("`{}` field {i} is not a valid number: `{w}`", self.tag()),
            )
        })
    }

    /// The word at `i` unescaped back to an arbitrary string.
    ///
    /// # Errors
    ///
    /// [`CkptError`] when the field is missing or malformed.
    pub fn text(&self, i: usize) -> Result<String, CkptError> {
        unesc(self.word(i)?).map_err(|e| CkptError::at(self.line, e))
    }
}

/// Fully-validated reader over a checkpoint blob.
///
/// Construction checks the header (magic, version, kind), unframes and
/// checksums every record, and verifies the `end` marker and record
/// count — so by the time the caller iterates, the blob is known whole.
#[derive(Debug)]
pub struct CkptReader<'a> {
    records: Vec<CkptRecord<'a>>,
    next: usize,
}

impl<'a> CkptReader<'a> {
    /// Validates `source` as a version-1 checkpoint of detector `kind`.
    ///
    /// # Errors
    ///
    /// [`CkptError`] on any damage: missing or foreign header, version
    /// from the future, kind mismatch, torn or corrupted record,
    /// missing or wrong `end` marker.
    pub fn new(source: &'a str, kind: &str) -> Result<CkptReader<'a>, CkptError> {
        let mut lines = source.split('\n').enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| CkptError::at(1, "empty checkpoint"))?;
        let rest = header
            .strip_prefix(CKPT_MAGIC)
            .ok_or_else(|| CkptError::at(1, format!("not a checkpoint: `{}`", clip(header))))?;
        let mut head = rest.split_whitespace();
        let version = head
            .next()
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| CkptError::at(1, "header carries no version"))?;
        if version != CKPT_VERSION {
            return Err(CkptError::at(
                1,
                format!(
                    "unsupported checkpoint version v{version} (this build reads v{CKPT_VERSION})"
                ),
            ));
        }
        let found_kind = head
            .next()
            .ok_or_else(|| CkptError::at(1, "header carries no detector kind"))?;
        if found_kind != kind {
            return Err(CkptError::at(
                1,
                format!("checkpoint is for detector `{found_kind}`, not `{kind}`"),
            ));
        }
        let mut records = Vec::new();
        let mut end: Option<(usize, u64)> = None;
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.is_empty() {
                continue; // the final newline or a stray blank
            }
            if let Some((at, _)) = end {
                return Err(CkptError::at(
                    lineno,
                    format!("record after the `end` marker on line {at}"),
                ));
            }
            let payload = unframe(line).map_err(|e| CkptError::at(lineno, e))?;
            let words: Vec<&str> = payload.split(' ').collect();
            if words.is_empty() || words[0].is_empty() {
                return Err(CkptError::at(lineno, "empty record payload"));
            }
            if words[0] == "end" {
                let rec = CkptRecord {
                    line: lineno,
                    words,
                };
                end = Some((lineno, rec.num(1)?));
                continue;
            }
            records.push(CkptRecord {
                line: lineno,
                words,
            });
        }
        let Some((at, count)) = end else {
            return Err(CkptError::at(
                source.lines().count().max(1),
                "checkpoint is truncated: no `end` marker",
            ));
        };
        if count != records.len() as u64 {
            return Err(CkptError::at(
                at,
                format!(
                    "`end` marker counts {count} record(s), file holds {}",
                    records.len()
                ),
            ));
        }
        Ok(CkptReader { records, next: 0 })
    }

    /// The next record, in file order.
    pub fn next_rec(&mut self) -> Option<&CkptRecord<'a>> {
        let rec = self.records.get(self.next)?;
        self.next += 1;
        Some(rec)
    }

    /// Peeks at the next record without consuming it.
    pub fn peek(&self) -> Option<&CkptRecord<'a>> {
        self.records.get(self.next)
    }

    /// Number of records not yet consumed.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.next
    }
}

fn clip(text: &str) -> String {
    let mut s: String = text.chars().take(24).collect();
    if s.len() < text.len() {
        s.push('…');
    }
    s
}

// ---------------------------------------------------------------------
// Clock serialization: the vclock types as single checkpoint words.
// ---------------------------------------------------------------------

/// Renders a vector clock as one word: comma-joined components, `-` for
/// the bottom clock `⊥`.
pub fn vc_word(vc: &VectorClock) -> String {
    let mut out = String::with_capacity(2 * vc.dim().max(1));
    vc_append(&mut out, vc);
    out
}

/// Appends the [`vc_word`] rendering of `vc` to `out` — no intermediate
/// per-component strings, for the hot checkpoint serializers.
pub fn vc_append(out: &mut String, vc: &VectorClock) {
    if vc.dim() == 0 {
        out.push('-');
        return;
    }
    // Components go through a stack buffer, so `out` grows once per
    // buffer rather than once per digit.
    let mut buf = [0u8; 512];
    let mut at = 0;
    for (i, &c) in vc.components().iter().enumerate() {
        if at + 1 + U64_DIGITS > buf.len() {
            out.push_str(std::str::from_utf8(&buf[..at]).expect("ASCII"));
            at = 0;
        }
        if i > 0 {
            buf[at] = b',';
            at += 1;
        }
        at += put_u64(&mut buf[at..], c);
    }
    out.push_str(std::str::from_utf8(&buf[..at]).expect("ASCII"));
}

/// Parses a [`vc_word`] rendering back to a clock.
///
/// # Errors
///
/// [`CkptError`] at `line` when a component is not a number.
pub fn vc_parse(word: &str, line: usize) -> Result<VectorClock, CkptError> {
    if word == "-" {
        return Ok(VectorClock::new());
    }
    let mut components = Vec::new();
    for part in word.split(',') {
        components.push(
            part.parse::<u64>().map_err(|_| {
                CkptError::at(line, format!("bad clock component `{}`", clip(part)))
            })?,
        );
    }
    Ok(VectorClock::from_components(components))
}

/// Renders an adaptive clock as one word: `e:<c>@<t>` while compressed,
/// `v:<components>` once promoted.
pub fn adaptive_word(clock: &AdaptiveClock) -> String {
    let mut out = String::new();
    adaptive_append(&mut out, clock);
    out
}

/// Appends the [`adaptive_word`] rendering of `clock` to `out`.
pub fn adaptive_append(out: &mut String, clock: &AdaptiveClock) {
    match clock {
        AdaptiveClock::Epoch(e) => {
            out.push_str("e:");
            push_u64(out, e.clock());
            out.push('@');
            push_u64(out, e.tid().0.into());
        }
        AdaptiveClock::Vector(v) => {
            out.push_str("v:");
            vc_append(out, v);
        }
    }
}

/// Parses an [`adaptive_word`] rendering.
///
/// # Errors
///
/// [`CkptError`] at `line` on any malformation.
pub fn adaptive_parse(word: &str, line: usize) -> Result<AdaptiveClock, CkptError> {
    if let Some(rest) = word.strip_prefix("e:") {
        let (c, t) = rest
            .split_once('@')
            .ok_or_else(|| CkptError::at(line, format!("bad epoch `{}`", clip(word))))?;
        let c: u64 = c
            .parse()
            .map_err(|_| CkptError::at(line, format!("bad epoch clock `{}`", clip(c))))?;
        let t: u32 = t
            .parse()
            .map_err(|_| CkptError::at(line, format!("bad epoch thread `{}`", clip(t))))?;
        return Ok(AdaptiveClock::Epoch(Epoch::new(ThreadId(t), c)));
    }
    if let Some(rest) = word.strip_prefix("v:") {
        return Ok(AdaptiveClock::Vector(vc_parse(rest, line)?));
    }
    Err(CkptError::at(
        line,
        format!("bad adaptive clock `{}`", clip(word)),
    ))
}

/// Renders clock-representation statistics as one word.
pub fn stats_word(stats: &ClockStats) -> String {
    let mut out = String::new();
    stats_append(&mut out, stats);
    out
}

/// Appends the [`stats_word`] rendering of `stats` to `out`.
pub fn stats_append(out: &mut String, stats: &ClockStats) {
    push_u64(out, stats.epoch_updates);
    out.push(',');
    push_u64(out, stats.promotions);
    out.push(',');
    push_u64(out, stats.vector_updates);
}

/// Parses a [`stats_word`] rendering.
///
/// # Errors
///
/// [`CkptError`] at `line` on malformation.
pub fn stats_parse(word: &str, line: usize) -> Result<ClockStats, CkptError> {
    let parts: Vec<&str> = word.split(',').collect();
    if parts.len() != 3 {
        return Err(CkptError::at(
            line,
            format!("bad clock stats `{}`", clip(word)),
        ));
    }
    let mut nums = [0u64; 3];
    for (slot, part) in nums.iter_mut().zip(&parts) {
        *slot = part
            .parse()
            .map_err(|_| CkptError::at(line, format!("bad clock stats `{}`", clip(word))))?;
    }
    Ok(ClockStats {
        epoch_updates: nums[0],
        promotions: nums[1],
        vector_updates: nums[2],
    })
}

/// Writes thread clocks as `thread <tid> <vc>` records, in the order
/// given, then lock clocks as `lock <id> <vc>` records in id order — the
/// records [`sync_read`] reads back. Thread slots left out read back as
/// `⊥`.
pub fn clocks_write<'c>(
    w: &mut CkptWriter,
    threads: impl IntoIterator<Item = (ThreadId, &'c VectorClock)>,
    locks: impl IntoIterator<Item = (LockId, &'c VectorClock)>,
) {
    for (tid, clock) in threads {
        w.rec_with(|out| {
            out.push_str("thread ");
            push_u64(out, tid.0.into());
            out.push(' ');
            vc_append(out, clock);
        });
    }
    let mut locks: Vec<(LockId, &VectorClock)> = locks.into_iter().collect();
    locks.sort_unstable_by_key(|(l, _)| l.0);
    for (lock, clock) in locks {
        w.rec_with(|out| {
            out.push_str("lock ");
            push_u64(out, lock.0);
            out.push(' ');
            vc_append(out, clock);
        });
    }
}

/// Consumes the `thread` / `lock` records the reader is positioned on
/// and rebuilds the [`SyncClocks`].
///
/// # Errors
///
/// [`CkptError`] on malformed clock records.
pub fn sync_read(r: &mut CkptReader<'_>) -> Result<SyncClocks, CkptError> {
    let mut threads: Vec<VectorClock> = Vec::new();
    let mut locks: Vec<(LockId, VectorClock)> = Vec::new();
    while let Some(rec) = r.peek() {
        match rec.tag() {
            "thread" => {
                let idx: usize = rec.num(1)?;
                let clock = vc_parse(rec.word(2)?, rec.line)?;
                if threads.len() <= idx {
                    threads.resize_with(idx + 1, VectorClock::new);
                }
                threads[idx] = clock;
            }
            "lock" => {
                let id: u64 = rec.num(1)?;
                locks.push((LockId(id), vc_parse(rec.word(2)?, rec.line)?));
            }
            _ => break,
        }
        r.next_rec();
    }
    Ok(SyncClocks::from_slots(threads, locks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-serial definition: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4C3);
        let buf: Vec<u8> = (0..64).map(|_| rng.gen_range(0..=255u8)).collect();
        for len in 0..=buf.len() {
            // Every length, and every alignment of the 8-byte blocks.
            for start in 0..=len.min(8) {
                let b = &buf[start..len];
                assert_eq!(crc32(b), crc32_bytewise(b), "len {} at {start}", b.len());
            }
        }
        for _ in 0..200 {
            let len = rng.gen_range(0..4096usize);
            let b: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            assert_eq!(
                crc32(&b),
                crc32_bytewise(&b),
                "random buffer of {len} bytes"
            );
        }
    }

    #[test]
    fn push_u64_equals_to_string() {
        use rand::{Rng, SeedableRng};
        let mut values = vec![0, 9, 10, u64::MAX];
        for n in 0..20 {
            values.extend([10u64.pow(n) - 1, 10u64.pow(n)]);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1617);
        // A random bit width first, so every digit count shows up.
        values.extend((0..10_000).map(|_| rng.gen_range(0..=u64::MAX) >> rng.gen_range(0..64)));
        for n in values {
            let mut out = String::from("x");
            push_u64(&mut out, n);
            assert_eq!(out[1..], n.to_string(), "{n}");
        }
    }

    #[test]
    fn wide_clocks_render_like_the_formatter() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x57A1E);
        for dim in [1usize, 2, 25, 26, 256, 300] {
            // Components of one to twenty digits (nonzero, so none is
            // trimmed), so the stack buffer flushes at many offsets.
            let components: Vec<u64> = (0..dim)
                .map(|_| (rng.gen_range(0..=u64::MAX) >> rng.gen_range(0..64)).max(1))
                .collect();
            let expected: Vec<String> = components.iter().map(u64::to_string).collect();
            let vc = VectorClock::from_components(components);
            assert_eq!(vc_word(&vc), expected.join(","), "dim {dim}");
        }
    }

    #[test]
    fn framed_lines_count_toward_end() {
        let mut source = CkptWriter::new("t");
        source.rec("alpha 1");
        source.rec("beta 2");
        let whole = source.finish();
        let mut lines = String::new();
        let mut scratch = String::new();
        frame_line(&mut lines, &mut scratch, |p| p.push_str("alpha 1"));
        frame_line(&mut lines, &mut scratch, |p| p.push_str("beta 2"));
        let mut w = CkptWriter::new("t");
        w.framed(|out| {
            out.push_str(&lines);
            2
        });
        assert_eq!(w.finish(), whole);
    }

    #[test]
    fn esc_round_trips_hostile_strings() {
        for s in [
            "",
            "plain",
            "a b\tc\nd\re",
            "\\e",
            "trailing\\",
            "τ1: o1.put(\"a b\", 2)/nil",
        ] {
            let w = esc(s);
            assert!(!w.contains(' ') && !w.contains('\n'), "{w:?}");
            assert!(!w.is_empty());
            assert_eq!(unesc(&w).unwrap(), s, "{s:?}");
        }
    }

    #[test]
    fn unesc_rejects_bad_escapes() {
        assert!(unesc("\\q").is_err());
        assert!(unesc("dangling\\").is_err());
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = CkptWriter::new("test-kind");
        w.rec("alpha 1 2");
        w.rec(&format!("beta {}", esc("hello world")));
        let blob = w.finish();
        let mut r = CkptReader::new(&blob, "test-kind").unwrap();
        let rec = r.next_rec().unwrap();
        assert_eq!(rec.tag(), "alpha");
        assert_eq!(rec.num::<u64>(1).unwrap(), 1);
        let rec = r.next_rec().unwrap();
        assert_eq!(rec.text(1).unwrap(), "hello world");
        assert!(r.next_rec().is_none());
    }

    #[test]
    fn kind_and_version_mismatches_fail_closed() {
        let blob = CkptWriter::new("rd2").finish();
        assert!(CkptReader::new(&blob, "fasttrack").is_err());
        let future = blob.replace("v1", "v2");
        let e = CkptReader::new(&future, "rd2").unwrap_err();
        assert!(e.reason.contains("unsupported"), "{e}");
        assert!(CkptReader::new("not a checkpoint", "rd2").is_err());
    }

    #[test]
    fn truncation_at_every_byte_fails_closed() {
        let mut w = CkptWriter::new("t");
        w.rec("alpha 1");
        w.rec("beta 2");
        let blob = w.finish();
        for cut in 0..blob.len() {
            match CkptReader::new(&blob[..cut], "t") {
                Err(_) => {}
                Ok(mut r) => {
                    // Only a cut that removes nothing but the trailing
                    // newline may pass — and then every record must be
                    // whole (the checksummed `end` marker guarantees it).
                    assert_eq!(cut, blob.len() - 1, "cut at byte {cut} must be detected");
                    assert_eq!(r.remaining(), 2);
                    assert_eq!(r.next_rec().unwrap().words, vec!["alpha", "1"]);
                    assert_eq!(r.next_rec().unwrap().words, vec!["beta", "2"]);
                }
            }
        }
    }

    #[test]
    fn every_byte_flip_fails_closed_or_is_harmless() {
        let mut w = CkptWriter::new("t");
        w.rec("alpha 1 2,0,3");
        let blob = w.finish();
        let bytes = blob.as_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.to_vec();
                mutated[pos] ^= 1 << bit;
                let Ok(text) = String::from_utf8(mutated) else {
                    continue;
                };
                if text == blob {
                    continue;
                }
                match CkptReader::new(&text, "t") {
                    Err(_) => {}
                    Ok(mut r) => {
                        // A flip inside the header's kind word is caught by
                        // the kind check; anything that still parses must
                        // reproduce the original records exactly.
                        let rec = r.next_rec().expect("record");
                        assert_eq!(rec.words, vec!["alpha", "1", "2,0,3"]);
                    }
                }
            }
        }
    }

    #[test]
    fn clock_words_round_trip() {
        for vc in [
            VectorClock::new(),
            VectorClock::from_components([3, 0, 1]),
            VectorClock::from_components([0, 0, 7]),
        ] {
            assert_eq!(vc_parse(&vc_word(&vc), 1).unwrap(), vc);
        }
        let e = AdaptiveClock::Epoch(Epoch::new(ThreadId(2), 9));
        assert_eq!(adaptive_parse(&adaptive_word(&e), 1).unwrap(), e);
        let v = AdaptiveClock::Vector(VectorClock::from_components([1, 4]));
        assert_eq!(adaptive_parse(&adaptive_word(&v), 1).unwrap(), v);
        let stats = ClockStats {
            epoch_updates: 5,
            promotions: 1,
            vector_updates: 2,
        };
        assert_eq!(stats_parse(&stats_word(&stats), 1).unwrap(), stats);
    }

    #[test]
    fn initialized_sync_clocks_round_trip_and_retired_slots_stay_retired() {
        let mut sync = SyncClocks::new();
        sync.fork(ThreadId(0), ThreadId(1));
        sync.fork(ThreadId(0), ThreadId(2));
        sync.acquire(ThreadId(1), LockId(7));
        sync.release(ThreadId(1), LockId(7));
        sync.retire(ThreadId(2));
        let mut w = CkptWriter::new("sync");
        clocks_write(&mut w, sync.initialized(), sync.lock_slots());
        let blob = w.finish();
        let mut r = CkptReader::new(&blob, "sync").unwrap();
        let restored = sync_read(&mut r).unwrap();
        for t in 0..3 {
            assert_eq!(
                restored.peek_clock(ThreadId(t)),
                sync.peek_clock(ThreadId(t)),
                "thread {t}"
            );
        }
        assert_eq!(
            restored.lock_slots().collect::<Vec<_>>(),
            sync.lock_slots().collect::<Vec<_>>()
        );
    }
}
