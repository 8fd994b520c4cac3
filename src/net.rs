//! The daemon's service edge: the hardened connection layer between
//! untrusted TCP clients and the session registry.
//!
//! The daemon's *tenants* have been hard to kill since PR 5 (chaos
//! memory, panic quarantine, per-tenant watchdogs), but a server must
//! also survive its *clients*: Hanson's client/server split (*A
//! Machine-Independent Debugger—Revisited*) exists precisely because the
//! debugger core must not trust whatever speaks the protocol at it. This
//! module supplies the pieces `ldbd`'s front end is built from:
//!
//! - [`BoundedLineReader`] — a line reader that cannot be ballooned: a
//!   request longer than the cap is *discarded*, not buffered, and the
//!   reader resynchronizes at the next newline so the connection keeps
//!   working. A line that overruns the drain budget too is flooding, and
//!   the caller hangs up.
//! - [`ConnLimits`] / [`ConnMetrics`] — the edge policy (connection cap,
//!   request-size cap, per-connection deadlines, shedding and quarantine
//!   thresholds) and the counters the no-arg `health` verb reports.
//! - [`SweepTimer`] — the idle reaper's schedule, split out so "sweep
//!   every `reap_every`, but notice shutdown every 100 ms" is testable
//!   without a daemon.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Policy for the connection edge (all of it daemon-wide; the per-tenant
/// policy lives in `SessionConfig`).
#[derive(Debug, Clone)]
pub struct ConnLimits {
    /// Hard cap on simultaneous client connections. Accepts beyond it
    /// are shed: one `err overloaded retry_after_ms=N` line and a clean
    /// hangup, never an unbounded thread-per-connection pile-up.
    pub max_conns: usize,
    /// Longest request line the reader will buffer. Oversized lines are
    /// discarded (typed `err`), and the reader resynchronizes at the
    /// next newline.
    pub max_request_bytes: usize,
    /// Disconnect a connection that has not completed a request for this
    /// long (a mid-line stall counts as idle — bytes without a newline
    /// are not progress).
    pub idle: Duration,
    /// Per-write deadline; a client that stops reading its replies is
    /// hung up on rather than wedging a handler thread.
    pub write_timeout: Duration,
    /// The backoff hint advertised in overload rejections.
    pub retry_after_ms: u64,
    /// Protocol offenses (oversized or non-UTF-8 requests) tolerated
    /// before the connection is quarantined — hung up with a typed
    /// `err`, counted, journaled.
    pub strikes: u32,
    /// On shutdown, how long to let in-flight handlers finish writing
    /// their current reply before sockets are forced shut.
    pub drain: Duration,
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits {
            max_conns: 256,
            max_request_bytes: 64 * 1024,
            idle: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            retry_after_ms: 50,
            strikes: 3,
            drain: Duration::from_secs(2),
        }
    }
}

/// Connection-edge counters, shared by the accept loop and every handler
/// thread. `active` is a gauge; everything else is monotonic. The no-arg
/// `health` verb folds a [`ConnStats`] snapshot into its JSON.
#[derive(Debug, Default)]
pub struct ConnMetrics {
    accepted: AtomicU64,
    active: AtomicU64,
    shed: AtomicU64,
    quarantined: AtomicU64,
    idle_disconnects: AtomicU64,
    oversized: AtomicU64,
    malformed: AtomicU64,
    requests: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// A point-in-time copy of [`ConnMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Connections admitted past the cap check.
    pub accepted: u64,
    /// Handlers currently live.
    pub active: u64,
    /// Connections rejected by overload shedding.
    pub shed: u64,
    /// Connections hung up on after repeated protocol offenses.
    pub quarantined: u64,
    /// Connections dropped for idling past the deadline.
    pub idle_disconnects: u64,
    /// Requests discarded for exceeding the size cap.
    pub oversized: u64,
    /// Requests discarded as non-UTF-8.
    pub malformed: u64,
    /// Complete request lines received (well-formed or not).
    pub requests: u64,
    /// Bytes read from clients.
    pub bytes_in: u64,
    /// Bytes written to clients.
    pub bytes_out: u64,
}

impl ConnStats {
    /// The stats as one JSON object (a fragment of the daemon `health`
    /// document). Keys are the field names; values are unsigned.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"active\":{},\"shed\":{},\"quarantined\":{},\
             \"idle_disconnects\":{},\"oversized\":{},\"malformed\":{},\
             \"requests\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
            self.accepted,
            self.active,
            self.shed,
            self.quarantined,
            self.idle_disconnects,
            self.oversized,
            self.malformed,
            self.requests,
            self.bytes_in,
            self.bytes_out
        )
    }
}

impl ConnMetrics {
    /// Snapshot every counter.
    pub fn snapshot(&self) -> ConnStats {
        ConnStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            idle_disconnects: self.idle_disconnects.load(Ordering::Relaxed),
            oversized: self.oversized.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }

    /// Book an admitted connection and raise the active gauge.
    pub fn note_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the active gauge (handler exit, any reason).
    pub fn note_closed(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// The live-connection gauge (the accept loop's cap check).
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Book a shed (overloaded) connection.
    pub fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Book a quarantined connection.
    pub fn note_quarantined(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Book an idle disconnect.
    pub fn note_idle_disconnect(&self) {
        self.idle_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Book an oversized request.
    pub fn note_oversized(&self) {
        self.oversized.fetch_add(1, Ordering::Relaxed);
    }

    /// Book a malformed (non-UTF-8) request.
    pub fn note_malformed(&self) {
        self.malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// Book a completed request line.
    pub fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Add to the bytes-read counter.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Add to the bytes-written counter.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }
}

/// How much of an oversized line the reader will discard while hunting
/// for its terminating newline before declaring the client a flooder
/// (as a multiple of the request cap).
pub const DRAIN_BUDGET_MULT: usize = 8;

/// One attempt to read a request line from a bounded reader.
#[derive(Debug)]
pub enum LineOutcome {
    /// A complete line within the cap (terminator stripped, raw bytes —
    /// UTF-8 validation is the caller's protocol decision).
    Line(Vec<u8>),
    /// The line exceeded the cap; all `discarded` bytes of it were
    /// thrown away and the reader has resynchronized past its newline.
    Oversized {
        /// Bytes of the oversized line discarded (excluding the
        /// terminator).
        discarded: usize,
    },
    /// The line exceeded the drain budget without ever ending: the
    /// client is flooding and the connection should be quarantined.
    Flooded {
        /// Bytes discarded before giving up.
        discarded: usize,
    },
    /// The peer closed the connection (a partial unterminated line, if
    /// any, is discarded — a truncated request is not a request).
    Eof,
    /// No bytes arrived within the transport's read timeout; the caller
    /// decides between polling again and an idle disconnect.
    TimedOut,
    /// Transport failure.
    Err(std::io::Error),
}

/// A line reader with a hard per-line memory bound — the replacement for
/// `BufReader::lines()`, which buffers a never-terminated line forever
/// and lets one hostile client OOM the daemon.
///
/// The reader never holds more than `max + 4096` bytes: a line that
/// grows past `max` flips it into drain mode, where bytes are counted
/// and dropped until the newline (bounded resynchronization) or the
/// drain budget (flooding — hang up). Partial lines survive
/// [`LineOutcome::TimedOut`], so a slow sender accumulates across calls.
#[derive(Debug)]
pub struct BoundedLineReader<R> {
    inner: R,
    max: usize,
    pending: Vec<u8>,
    /// `Some(discarded)` while draining an oversized line.
    draining: Option<usize>,
    bytes_read: u64,
}

impl<R: Read> BoundedLineReader<R> {
    /// A reader capping lines at `max` bytes (terminator excluded).
    pub fn new(inner: R, max: usize) -> BoundedLineReader<R> {
        BoundedLineReader { inner, max, pending: Vec::new(), draining: None, bytes_read: 0 }
    }

    /// Total bytes consumed from the transport, accepted or discarded.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Read until one of the [`LineOutcome`]s.
    pub fn read_line(&mut self) -> LineOutcome {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(already) = self.draining {
                // Drain mode: hunt for the oversized line's newline,
                // dropping everything on the way.
                if let Some(i) = self.pending.iter().position(|&b| b == b'\n') {
                    self.draining = None;
                    let discarded = already + i;
                    self.pending.drain(..=i);
                    return LineOutcome::Oversized { discarded };
                }
                let discarded = already + self.pending.len();
                self.pending.clear();
                if discarded > self.max.saturating_mul(DRAIN_BUDGET_MULT) {
                    self.draining = None;
                    return LineOutcome::Flooded { discarded };
                }
                self.draining = Some(discarded);
            } else if let Some(i) = self.pending.iter().position(|&b| b == b'\n') {
                if i <= self.max {
                    let line = self.pending[..i].to_vec();
                    self.pending.drain(..=i);
                    return LineOutcome::Line(line);
                }
                let discarded = i;
                self.pending.drain(..=i);
                return LineOutcome::Oversized { discarded };
            } else if self.pending.len() > self.max {
                // Too long with no end in sight: stop buffering, start
                // counting.
                self.draining = Some(self.pending.len());
                self.pending.clear();
                continue;
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => return LineOutcome::Eof,
                Ok(n) => {
                    self.bytes_read += n as u64;
                    self.pending.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineOutcome::TimedOut
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return LineOutcome::Err(e),
            }
        }
    }
}

/// The idle reaper's schedule: sweep every `every`, but wake often
/// enough (≤ 100 ms) that shutdown is noticed promptly. Split from the
/// daemon so the "configured sweep intervals above 100 ms are honored"
/// contract is a unit test, not a timing-dependent soak.
#[derive(Debug)]
pub struct SweepTimer {
    every: Duration,
    last: Instant,
}

impl SweepTimer {
    /// A timer that first comes due `every` from now.
    pub fn new(every: Duration) -> SweepTimer {
        SweepTimer { every, last: Instant::now() }
    }

    /// How long the reaper should sleep between shutdown checks.
    pub fn poll_interval(&self) -> Duration {
        self.every.min(Duration::from_millis(100))
    }

    /// Whether a sweep is due at `now`; if so, the schedule advances.
    pub fn due(&mut self, now: Instant) -> bool {
        if now.saturating_duration_since(self.last) >= self.every {
            self.last = now;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_reader_reads_ordinary_lines() {
        let mut r = BoundedLineReader::new(Cursor::new(b"ping\nhealth 1\n".to_vec()), 64);
        assert!(matches!(r.read_line(), LineOutcome::Line(l) if l == b"ping"));
        assert!(matches!(r.read_line(), LineOutcome::Line(l) if l == b"health 1"));
        assert!(matches!(r.read_line(), LineOutcome::Eof));
        assert_eq!(r.bytes_read(), 14);
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_allowed() {
        let mut data = vec![b'a'; 8];
        data.push(b'\n');
        let mut r = BoundedLineReader::new(Cursor::new(data), 8);
        assert!(matches!(r.read_line(), LineOutcome::Line(l) if l.len() == 8));
    }

    #[test]
    fn oversized_lines_are_discarded_and_the_reader_resyncs() {
        let mut data = vec![b'a'; 100];
        data.extend_from_slice(b"\nping\n");
        let mut r = BoundedLineReader::new(Cursor::new(data), 8);
        match r.read_line() {
            LineOutcome::Oversized { discarded } => assert_eq!(discarded, 100),
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The oversized line did not poison the stream: the next request
        // parses.
        assert!(matches!(r.read_line(), LineOutcome::Line(l) if l == b"ping"));
    }

    #[test]
    fn memory_stays_bounded_while_draining() {
        // A 1 MiB line against an 8-byte cap: the reader must never
        // buffer it (pending is cleared each drain step), and the drain
        // budget (8 × cap) gives up long before the newline.
        let data = vec![b'a'; 1 << 20];
        let mut r = BoundedLineReader::new(Cursor::new(data), 8);
        match r.read_line() {
            LineOutcome::Flooded { discarded } => assert!(discarded > 8 * DRAIN_BUDGET_MULT),
            other => panic!("expected Flooded, got {other:?}"),
        }
        assert!(r.pending.capacity() <= 8192, "drain mode buffered the flood");
    }

    #[test]
    fn eof_mid_line_discards_the_partial_request() {
        let mut r = BoundedLineReader::new(Cursor::new(b"open mi".to_vec()), 64);
        assert!(matches!(r.read_line(), LineOutcome::Eof));
    }

    #[test]
    fn sweep_timer_honors_intervals_above_the_poll_rate() {
        let every = Duration::from_millis(500);
        let mut t = SweepTimer::new(every);
        let start = t.last;
        // Polling every 100 ms: not due until the full interval elapsed.
        assert_eq!(t.poll_interval(), Duration::from_millis(100));
        assert!(!t.due(start + Duration::from_millis(100)));
        assert!(!t.due(start + Duration::from_millis(499)));
        assert!(t.due(start + Duration::from_millis(500)));
        // The schedule advanced: the next sweep is a full interval out.
        assert!(!t.due(start + Duration::from_millis(700)));
        assert!(t.due(start + Duration::from_millis(1000)));
    }

    #[test]
    fn sweep_timer_short_intervals_poll_at_the_interval() {
        let t = SweepTimer::new(Duration::from_millis(20));
        assert_eq!(t.poll_interval(), Duration::from_millis(20));
    }

    #[test]
    fn conn_stats_json_shape() {
        let m = ConnMetrics::default();
        m.note_accepted();
        m.note_request();
        m.add_bytes_in(5);
        m.add_bytes_out(7);
        m.note_closed();
        let j = m.snapshot().to_json();
        assert!(j.contains("\"accepted\":1"), "{j}");
        assert!(j.contains("\"active\":0"), "{j}");
        assert!(j.contains("\"bytes_in\":5"), "{j}");
        assert!(j.contains("\"bytes_out\":7"), "{j}");
    }
}
