//! The session flight recorder: a structured trace journal threaded
//! through the three layers where all debugger behaviour flows — the nub
//! wire (every frame sent and received, with sequence and generation
//! numbers and fault-injection outcomes), the PostScript interpreter
//! (module loads, budget consumption, quarantine decisions), and the
//! debugger command loop (commands, events, stops, frame walks).
//!
//! Records are compact JSONL with a versioned schema ([`SCHEMA_VERSION`]),
//! a deterministic field order, and per-layer severity filtering. The
//! recorder keeps an in-memory ring buffer (the `info trace` command) and
//! optionally streams every record to a writer (`--trace FILE`).
//!
//! Determinism is a design constraint, not an accident: in logical-clock
//! mode ([`TraceConfig::wall_clock`] = false) a record's bytes are a pure
//! function of the session's behaviour, so recording the same seeded
//! session twice yields byte-identical journals — the substrate for the
//! record/replay golden tests. Wall-clock timestamps (microseconds since
//! recorder creation) are opt-in for interactive use.
//!
//! The handle type [`Trace`] is a cheap clone (`Option<Arc<Mutex<…>>>`);
//! a disabled handle is a `None` and every operation on it is a branch
//! and nothing else, which is what keeps the recorder's overhead at zero
//! when tracing is off and lets it thread through `Send` types like the
//! wire transports.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod seeded;
pub use seeded::fnv1a;

/// Version stamped into every record as `"v"`. Bump when the record
/// shape changes; [`Record::parse`] rejects other versions.
pub const SCHEMA_VERSION: u64 = 1;

/// The layer a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The nub wire: frames sent/received, retransmissions, injected
    /// faults, reconnects.
    Wire,
    /// The embedded PostScript interpreter: module loads, budget
    /// consumption, quarantines.
    Ps,
    /// The debugger command loop: commands, stops, frame walks.
    Dbg,
    /// The daemon's client transport: connections accepted and shed,
    /// oversized or malformed requests, connection quarantines, idle
    /// disconnects.
    Net,
    /// The fleet runner: session outcomes, retries, shed jobs, bucket
    /// assignments, minimization steps. Records at this layer describe
    /// *whole sessions*, not events inside one — a fleet journal is the
    /// run's triage ledger, cross-checked against each session's own
    /// journal.
    Fleet,
}

impl Layer {
    /// All layers, in report order.
    pub const ALL: [Layer; 5] =
        [Layer::Wire, Layer::Ps, Layer::Dbg, Layer::Net, Layer::Fleet];

    /// The layers a single session can speak on (everything but
    /// [`Layer::Fleet`], which only the fleet runner emits).
    pub const SESSION: [Layer; 4] = [Layer::Wire, Layer::Ps, Layer::Dbg, Layer::Net];

    /// The journal's name for this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wire => "wire",
            Layer::Ps => "ps",
            Layer::Dbg => "dbg",
            Layer::Net => "net",
            Layer::Fleet => "fleet",
        }
    }

    /// Inverse of [`Layer::name`].
    pub fn from_name(s: &str) -> Option<Layer> {
        Some(match s {
            "wire" => Layer::Wire,
            "ps" => Layer::Ps,
            "dbg" => Layer::Dbg,
            "net" => Layer::Net,
            "fleet" => Layer::Fleet,
            _ => return None,
        })
    }

    /// Dense index (`wire` 0, `ps` 1, `dbg` 2, `net` 3, `fleet` 4) for
    /// per-layer arrays, such as [`TraceConfig::min_sev`].
    pub fn idx(self) -> usize {
        match self {
            Layer::Wire => 0,
            Layer::Ps => 1,
            Layer::Dbg => 2,
            Layer::Net => 3,
            Layer::Fleet => 4,
        }
    }
}

/// Record severity, in ascending order. The per-layer filter keeps a
/// record iff its severity is at least the layer's minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Routine traffic (individual frames, frame walks).
    Debug,
    /// Lifecycle milestones (attach, stop, command, module load).
    Info,
    /// Trouble survived (faults, retransmissions, budget trips,
    /// quarantines).
    Warn,
}

impl Severity {
    /// The journal's name for this severity.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }

    /// Inverse of [`Severity::name`].
    pub fn from_name(s: &str) -> Option<Severity> {
        Some(match s {
            "debug" => Severity::Debug,
            "info" => Severity::Info,
            "warn" => Severity::Warn,
            _ => return None,
        })
    }
}

/// A scalar field value. The journal is deliberately flat: no nested
/// containers, so every record diffs line-by-line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned integer (addresses, lengths, sequence numbers).
    U64(u64),
    /// Signed integer (exit statuses).
    I64(i64),
    /// Text (request kinds, module names, commands). `Cow` so the hot
    /// paths journal `&'static str` names without allocating; equality
    /// is content-based either way.
    Str(Cow<'static, str>),
    /// Flag (event accepted, reconnect succeeded).
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v.into())
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v.into())
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(Cow::Borrowed(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Cow::Owned(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// One journal record. Serializes to a single JSON line with a fixed key
/// order (`v`, `seq`, `t`?, `layer`, `sev`, `kind`, `fields`), so equal
/// records have equal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Recorder-wide sequence number, starting at 1.
    pub seq: u64,
    /// Microseconds since the recorder started; absent in logical-clock
    /// (deterministic) mode.
    pub t_us: Option<u64>,
    /// Originating layer.
    pub layer: Layer,
    /// Severity.
    pub sev: Severity,
    /// What happened — a short stable tag (`"send"`, `"stop"`,
    /// `"quarantine"`…). The set of kinds per layer is documented in
    /// DESIGN.md §11.
    pub kind: Cow<'static, str>,
    /// Flat key→scalar payload, in emission order.
    pub fields: Vec<(Cow<'static, str>, Value)>,
}

/// Append `s` to `out` as a JSON string literal: quotes, backslashes and
/// control characters escaped, everything else verbatim.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Record {
    /// Serialize to one canonical JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"v\":");
        out.push_str(&SCHEMA_VERSION.to_string());
        out.push_str(",\"seq\":");
        out.push_str(&self.seq.to_string());
        if let Some(t) = self.t_us {
            out.push_str(",\"t\":");
            out.push_str(&t.to_string());
        }
        out.push_str(",\"layer\":\"");
        out.push_str(self.layer.name());
        out.push_str("\",\"sev\":\"");
        out.push_str(self.sev.name());
        out.push_str("\",\"kind\":");
        push_json_str(&mut out, &self.kind);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            match v {
                Value::U64(n) => out.push_str(&n.to_string()),
                Value::I64(n) => out.push_str(&n.to_string()),
                Value::Str(s) => push_json_str(&mut out, s),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push_str("}}");
        out
    }

    /// Parse and validate one journal line against the schema.
    ///
    /// Strict by design: unknown top-level keys, duplicate keys, a wrong
    /// `v`, unknown layer/severity names, nested containers inside
    /// `fields`, and trailing garbage are all rejected — a journal that
    /// parses is a journal a future reader can trust.
    ///
    /// # Errors
    /// A description of the first violation found.
    pub fn parse(line: &str) -> Result<Record, String> {
        let mut p = Parser { b: line.as_bytes(), i: 0 };
        let rec = p.record()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(rec)
    }
}

/// Validate one journal line against the versioned schema (alias for
/// [`Record::parse`], the shape test suites use).
///
/// # Errors
/// A description of the first violation found.
pub fn validate(line: &str) -> Result<Record, String> {
    Record::parse(line)
}

/// A tiny strict JSON reader specialized to the flat record shape.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(
                                char::from_u32(n)
                                    .ok_or_else(|| format!("bad code point {n:#x}"))?,
                            );
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(c) if c < 0x80 => {
                    if c < 0x20 {
                        return Err(format!("raw control byte {c:#04x} in string"));
                    }
                    out.push(c as char);
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so this is valid.
                    let s = &self.b[self.i..];
                    let c = std::str::from_utf8(s)
                        .map_err(|_| "bad utf-8".to_string())?
                        .chars()
                        .next()
                        .ok_or("empty char")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.ws();
        let start = self.i;
        let neg = self.b.get(self.i) == Some(&b'-');
        if neg {
            self.i += 1;
        }
        let digits = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == digits {
            return Err(format!("expected number at byte {start}"));
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        if neg {
            text.parse::<i64>().map(Value::I64).map_err(|_| format!("integer overflow `{text}`"))
        } else {
            text.parse::<u64>().map(Value::U64).map_err(|_| format!("integer overflow `{text}`"))
        }
    }

    fn scalar(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(Cow::Owned(self.string()?))),
            Some(b't') | Some(b'f') => {
                let (word, v): (&[u8], bool) =
                    if self.b.get(self.i) == Some(&b't') { (b"true", true) } else { (b"false", false) };
                if self.b.get(self.i..self.i + word.len()) == Some(word) {
                    self.i += word.len();
                    Ok(Value::Bool(v))
                } else {
                    Err(format!("bad literal at byte {}", self.i))
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b'{') | Some(b'[') => {
                Err(format!("nested container at byte {} (fields must be flat scalars)", self.i))
            }
            Some(b'n') => Err(format!("null at byte {} (not part of the schema)", self.i)),
            other => Err(format!("expected scalar, found {other:?} at byte {}", self.i)),
        }
    }

    fn fields(&mut self) -> Result<Vec<(Cow<'static, str>, Value)>, String> {
        self.expect(b'{')?;
        let mut out: Vec<(Cow<'static, str>, Value)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            if out.iter().any(|(k, _)| k.as_ref() == key) {
                return Err(format!("duplicate field key `{key}`"));
            }
            self.expect(b':')?;
            let value = self.scalar()?;
            out.push((Cow::Owned(key), value));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(out);
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }

    fn record(&mut self) -> Result<Record, String> {
        self.expect(b'{')?;
        let (mut v, mut seq, mut t_us) = (None, None, None);
        let (mut layer, mut sev, mut kind, mut fields) = (None, None, None, None);
        if self.peek() == Some(b'}') {
            self.i += 1;
        } else {
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                let dup = |was_set: bool| {
                    if was_set {
                        Err(format!("duplicate key `{key}`"))
                    } else {
                        Ok(())
                    }
                };
                match key.as_str() {
                    "v" => {
                        dup(v.is_some())?;
                        match self.number()? {
                            Value::U64(n) => v = Some(n),
                            other => return Err(format!("`v` must be unsigned, got {other:?}")),
                        }
                    }
                    "seq" => {
                        dup(seq.is_some())?;
                        match self.number()? {
                            Value::U64(n) => seq = Some(n),
                            other => return Err(format!("`seq` must be unsigned, got {other:?}")),
                        }
                    }
                    "t" => {
                        dup(t_us.is_some())?;
                        match self.number()? {
                            Value::U64(n) => t_us = Some(n),
                            other => return Err(format!("`t` must be unsigned, got {other:?}")),
                        }
                    }
                    "layer" => {
                        dup(layer.is_some())?;
                        let name = self.string()?;
                        layer = Some(
                            Layer::from_name(&name)
                                .ok_or_else(|| format!("unknown layer `{name}`"))?,
                        );
                    }
                    "sev" => {
                        dup(sev.is_some())?;
                        let name = self.string()?;
                        sev = Some(
                            Severity::from_name(&name)
                                .ok_or_else(|| format!("unknown severity `{name}`"))?,
                        );
                    }
                    "kind" => {
                        dup(kind.is_some())?;
                        let k = self.string()?;
                        if k.is_empty() {
                            return Err("`kind` must be non-empty".into());
                        }
                        kind = Some(k);
                    }
                    "fields" => {
                        dup(fields.is_some())?;
                        fields = Some(self.fields()?);
                    }
                    other => return Err(format!("unknown top-level key `{other}`")),
                }
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        break;
                    }
                    other => return Err(format!("expected `,` or `}}`, found {other:?}")),
                }
            }
        }
        let v = v.ok_or("missing `v`")?;
        if v != SCHEMA_VERSION {
            return Err(format!("schema version {v}, expected {SCHEMA_VERSION}"));
        }
        Ok(Record {
            seq: seq.ok_or("missing `seq`")?,
            t_us,
            layer: layer.ok_or("missing `layer`")?,
            sev: sev.ok_or("missing `sev`")?,
            kind: Cow::Owned(kind.ok_or("missing `kind`")?),
            fields: fields.ok_or("missing `fields`")?,
        })
    }
}

/// Recorder policy.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// How many records the in-memory ring keeps (`info trace` tail).
    pub ring_capacity: usize,
    /// Per-layer minimum severity, indexed as [`Layer::ALL`]. A record
    /// below its layer's minimum is not recorded at all.
    pub min_sev: [Severity; 5],
    /// Stamp records with microseconds since recorder creation. Leave
    /// off for deterministic (replayable) journals.
    pub wall_clock: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
            min_sev: [Severity::Debug; 5],
            wall_clock: false,
        }
    }
}

/// Per-layer record totals, as reported by `info trace`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Records from [`Layer::Wire`].
    pub wire: u64,
    /// Records from [`Layer::Ps`].
    pub ps: u64,
    /// Records from [`Layer::Dbg`].
    pub dbg: u64,
    /// Records from [`Layer::Net`].
    pub net: u64,
    /// Records from [`Layer::Fleet`].
    pub fleet: u64,
}

impl LayerCounts {
    /// Sum over layers.
    pub fn total(&self) -> u64 {
        self.wire + self.ps + self.dbg + self.net + self.fleet
    }
}

struct Recorder {
    cfg: TraceConfig,
    start: Instant,
    next_seq: u64,
    ring: VecDeque<Record>,
    counts: [u64; 5],
    kinds: BTreeMap<(Layer, &'static str), u64>,
    writer: Option<Box<dyn Write + Send>>,
    /// Set after the first writer failure; the journal file is then
    /// incomplete and `info trace` says so.
    write_failed: bool,
}

impl Recorder {
    fn emit(&mut self, layer: Layer, sev: Severity, kind: &'static str, fields: &[(&'static str, Value)]) {
        if sev < self.cfg.min_sev[layer.idx()] {
            return;
        }
        self.next_seq += 1;
        let rec = Record {
            seq: self.next_seq,
            t_us: self
                .cfg
                .wall_clock
                .then(|| u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)),
            layer,
            sev,
            kind: Cow::Borrowed(kind),
            fields: fields
                .iter()
                .map(|(k, v)| (Cow::Borrowed(*k), v.clone()))
                .collect(),
        };
        self.counts[layer.idx()] += 1;
        *self.kinds.entry((layer, kind)).or_insert(0) += 1;
        if let Some(w) = self.writer.as_mut() {
            let mut line = rec.to_json();
            line.push('\n');
            if w.write_all(line.as_bytes()).is_err() {
                self.write_failed = true;
                self.writer = None;
            }
        }
        if self.cfg.ring_capacity > 0 {
            if self.ring.len() == self.cfg.ring_capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(rec);
        }
    }
}

/// A cheap, cloneable, `Send` handle to one recorder — or to nothing.
///
/// Every layer of the debugger holds one of these. The disabled handle
/// ([`Trace::off`], also `Default`) costs one branch per call site and
/// allocates nothing, which is how the recorder disappears when unused.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<Mutex<Recorder>>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Trace(off)"),
            Some(_) => write!(f, "Trace(on, {:?})", self.counts()),
        }
    }
}

impl Trace {
    /// The disabled handle: records nothing, costs nothing.
    pub fn off() -> Trace {
        Trace::default()
    }

    /// A recorder with the given policy and no writer (ring buffer only).
    pub fn new(cfg: TraceConfig) -> Trace {
        Trace::build(cfg, None)
    }

    /// A deterministic ring-only recorder (logical clock, all severities).
    pub fn ring(capacity: usize) -> Trace {
        Trace::new(TraceConfig { ring_capacity: capacity, ..TraceConfig::default() })
    }

    /// A recorder that also streams every record to `writer` as JSONL.
    pub fn with_writer(cfg: TraceConfig, writer: Box<dyn Write + Send>) -> Trace {
        Trace::build(cfg, Some(writer))
    }

    /// A recorder streaming into an in-memory buffer the caller can read
    /// back — the journal capture used by the replay and schema tests.
    pub fn to_shared_buffer(cfg: TraceConfig) -> (Trace, SharedBuf) {
        let buf = SharedBuf::default();
        (Trace::build(cfg, Some(Box::new(buf.clone()))), buf)
    }

    fn build(cfg: TraceConfig, writer: Option<Box<dyn Write + Send>>) -> Trace {
        Trace {
            inner: Some(Arc::new(Mutex::new(Recorder {
                cfg,
                start: Instant::now(),
                next_seq: 0,
                ring: VecDeque::new(),
                counts: [0; 5],
                kinds: BTreeMap::new(),
                writer,
                write_failed: false,
            }))),
        }
    }

    /// Is a recorder attached? Call sites use this to skip building
    /// field values when tracing is off.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event. A no-op on a disabled handle.
    pub fn emit(&self, layer: Layer, sev: Severity, kind: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().emit(layer, sev, kind, fields);
        }
    }

    /// Would a record at (`layer`, `sev`) be kept? Hot call sites that
    /// must *allocate* to build field values (e.g. the script runner's
    /// per-command `cmd` record) check this first, so a disabled or
    /// severity-filtered recorder costs neither the allocation nor the
    /// lock round-trip of a doomed [`Trace::emit`].
    #[inline]
    pub fn enabled(&self, layer: Layer, sev: Severity) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => sev >= inner.lock().unwrap().cfg.min_sev[layer.idx()],
        }
    }

    /// Per-layer record totals (zero when disabled).
    pub fn counts(&self) -> LayerCounts {
        match &self.inner {
            None => LayerCounts::default(),
            Some(inner) => {
                let r = inner.lock().unwrap();
                LayerCounts {
                    wire: r.counts[0],
                    ps: r.counts[1],
                    dbg: r.counts[2],
                    net: r.counts[3],
                    fleet: r.counts[4],
                }
            }
        }
    }

    /// The layer's configured minimum severity, or `None` when disabled.
    /// Consumers that cross-check kind counts against external counters
    /// (e.g. `info trace` vs `WireMetrics`) use this to notice that
    /// Debug-level records were filtered out rather than never emitted.
    pub fn min_sev(&self, layer: Layer) -> Option<Severity> {
        self.inner.as_ref().map(|inner| inner.lock().unwrap().cfg.min_sev[layer.idx()])
    }

    /// How many records of `kind` the given layer has produced.
    pub fn kind_count(&self, layer: Layer, kind: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => {
                let r = inner.lock().unwrap();
                r.kinds
                    .iter()
                    .filter(|((l, k), _)| *l == layer && *k == kind)
                    .map(|(_, n)| *n)
                    .sum()
            }
        }
    }

    /// All (layer, kind, count) triples in deterministic order.
    pub fn kind_counts(&self) -> Vec<(Layer, &'static str, u64)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let r = inner.lock().unwrap();
                r.kinds.iter().map(|((l, k), n)| (*l, *k, *n)).collect()
            }
        }
    }

    /// The newest `n` records in the ring, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Record> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let r = inner.lock().unwrap();
                let skip = r.ring.len().saturating_sub(n);
                r.ring.iter().skip(skip).cloned().collect()
            }
        }
    }

    /// Did a journal write fail? (The file is incomplete if so.)
    pub fn write_failed(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.lock().unwrap().write_failed)
    }

    /// Flush the attached writer, if any.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let mut r = inner.lock().unwrap();
            if let Some(w) = r.writer.as_mut() {
                if w.flush().is_err() {
                    r.write_failed = true;
                }
            }
        }
    }
}

/// A `Write` into a shared in-memory buffer; [`Trace::to_shared_buffer`]
/// hands one back so tests can read the journal they just recorded.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }

    /// The bytes written so far, as UTF-8 text.
    ///
    /// # Panics
    /// If the journal is not valid UTF-8 (it always is).
    pub fn text(&self) -> String {
        String::from_utf8(self.contents()).expect("journal is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            seq: 7,
            t_us: None,
            layer: Layer::Wire,
            sev: Severity::Info,
            kind: Cow::Borrowed("send"),
            fields: vec![
                (Cow::Borrowed("seq"), Value::U64(42)),
                (Cow::Borrowed("req"), Value::Str("Fetch".into())),
                (Cow::Borrowed("ok"), Value::Bool(true)),
                (Cow::Borrowed("delta"), Value::I64(-3)),
            ],
        }
    }

    #[test]
    fn encode_is_canonical() {
        assert_eq!(
            sample().to_json(),
            r#"{"v":1,"seq":7,"layer":"wire","sev":"info","kind":"send","fields":{"seq":42,"req":"Fetch","ok":true,"delta":-3}}"#
        );
    }

    #[test]
    fn round_trip_is_byte_identical() {
        for rec in [
            sample(),
            Record { t_us: Some(123), ..sample() },
            Record { fields: vec![], kind: Cow::Borrowed("a\"b\\c\nd"), ..sample() },
        ] {
            let line = rec.to_json();
            let back = Record::parse(&line).unwrap();
            assert_eq!(back, rec);
            assert_eq!(back.to_json(), line);
        }
    }

    #[test]
    fn parse_rejects_schema_violations() {
        let good = sample().to_json();
        assert!(Record::parse(&good).is_ok());
        for (bad, why) in [
            (good.replace("\"v\":1", "\"v\":2"), "wrong version"),
            (good.replace("\"seq\":7", "\"seqq\":7"), "unknown key"),
            (good.replace("\"wire\"", "\"fire\""), "unknown layer"),
            (good.replace("\"info\"", "\"notice\""), "unknown severity"),
            (good.replace("\"seq\":42", "\"seq\":[42]"), "nested container"),
            (good.replace("\"ok\":true", "\"ok\":null"), "null"),
            (format!("{good} trailing"), "trailing garbage"),
            (good.replace(",\"kind\":\"send\"", ""), "missing kind"),
            (good.replace("\"fields\"", "\"seq\""), "duplicate key"),
        ] {
            assert!(Record::parse(&bad).is_err(), "{why}: {bad}");
        }
    }

    #[test]
    fn disabled_handle_is_free_and_silent() {
        let t = Trace::off();
        assert!(!t.is_on());
        t.emit(Layer::Dbg, Severity::Warn, "x", &[("a", 1u64.into())]);
        assert_eq!(t.counts(), LayerCounts::default());
        assert!(t.tail(10).is_empty());
    }

    #[test]
    fn recorder_counts_filters_and_rings() {
        let t = Trace::new(TraceConfig {
            ring_capacity: 2,
            min_sev: [
                Severity::Warn,
                Severity::Debug,
                Severity::Debug,
                Severity::Debug,
                Severity::Debug,
            ],
            wall_clock: false,
        });
        assert!(!t.enabled(Layer::Wire, Severity::Debug));
        assert!(t.enabled(Layer::Wire, Severity::Warn));
        assert!(t.enabled(Layer::Fleet, Severity::Debug));
        assert!(!Trace::off().enabled(Layer::Dbg, Severity::Warn));
        t.emit(Layer::Wire, Severity::Debug, "send", &[]); // filtered out
        t.emit(Layer::Wire, Severity::Warn, "retx", &[]);
        t.emit(Layer::Ps, Severity::Debug, "budget", &[]);
        t.emit(Layer::Dbg, Severity::Info, "cmd", &[]);
        t.emit(Layer::Dbg, Severity::Info, "cmd", &[]);
        let c = t.counts();
        assert_eq!((c.wire, c.ps, c.dbg), (1, 1, 2));
        assert_eq!(t.kind_count(Layer::Dbg, "cmd"), 2);
        assert_eq!(t.kind_count(Layer::Wire, "send"), 0, "filtered below min_sev");
        let tail = t.tail(10);
        assert_eq!(tail.len(), 2, "ring capacity bounds the tail");
        // Sequence numbers count accepted records only, monotonically.
        assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn shared_buffer_captures_jsonl() {
        let (t, buf) = Trace::to_shared_buffer(TraceConfig::default());
        t.emit(Layer::Wire, Severity::Info, "send", &[("len", 9u64.into())]);
        t.emit(Layer::Dbg, Severity::Info, "cmd", &[("text", "c".into())]);
        t.flush();
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let rec = validate(line).unwrap();
            assert_eq!(rec.to_json(), **line, "writer emits canonical lines");
        }
    }

    #[test]
    fn deterministic_mode_reproduces_bytes() {
        let run = || {
            let (t, buf) = Trace::to_shared_buffer(TraceConfig::default());
            for i in 0..10u64 {
                t.emit(Layer::Wire, Severity::Debug, "send", &[("seq", i.into())]);
            }
            buf.contents()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wall_clock_mode_stamps_t() {
        let t = Trace::new(TraceConfig { wall_clock: true, ..TraceConfig::default() });
        t.emit(Layer::Dbg, Severity::Info, "cmd", &[]);
        assert!(t.tail(1)[0].t_us.is_some());
    }
}
