//! The debugger side of the nub protocol: a small typed stub over a
//! [`Wire`]. This is the whole interface the debugger has to a target
//! process — fetch, store, continue, and stop notifications. Keeping the
//! interface this small is what makes the nub easy to reimplement in
//! other environments (paper, Sec. 4.2).
//!
//! The client speaks the *enveloped* session layer (see
//! [`crate::proto::Envelope`]): every request carries a sequence number
//! and a checksum, replies are matched to their request, and asynchronous
//! stop notifications are deduplicated by generation. On top of that sit
//! the resilience policies: a per-transaction reply timeout, bounded
//! retransmission with exponential backoff (safe for every request — the
//! nub executes each sequence number at most once), and [`Request::Ping`]
//! probing while waiting for events, so a dead wire is distinguished from
//! a target that is simply still running. [`NubClient::reconnect`] swaps
//! the transport under a live client without losing any debugger-side
//! state, which is what lets a session survive a severed connection.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldb_trace::seeded::splitmix64;
use ldb_trace::{Layer, Severity, Trace};

use crate::proto::{Envelope, Reply, Request, Sig};
use crate::transport::Wire;

/// An event reported by the nub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NubEvent {
    /// The target stopped.
    Stopped {
        /// Why.
        sig: Sig,
        /// Auxiliary code (trap pc, fault address...).
        code: u32,
        /// Address of the context block in the target's data space.
        context: u32,
    },
    /// The target exited.
    Exited(i32),
}

/// Errors from nub operations.
#[derive(Debug)]
pub enum NubError {
    /// The connection failed (the nub may still be alive and will keep the
    /// target's state; reconnect to resume debugging).
    Io(io::Error),
    /// The nub rejected the request.
    Nub(u8),
    /// The protocol got out of sync.
    Protocol(String),
    /// The nub stopped answering within the retry budget; the wire may be
    /// dead or the peer wedged. Reconnect (or retry) to find out.
    Timeout(String),
    /// The operation was aborted by the session's cancellation token
    /// (see [`NubClient::set_cancel`]). The wire is fine — a watchdog
    /// cut the command short, nothing more.
    Cancelled,
}

impl std::fmt::Display for NubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NubError::Io(e) => write!(f, "nub connection: {e}"),
            NubError::Nub(1) => write!(f, "nub: bad address"),
            NubError::Nub(2) => write!(f, "nub: bad space"),
            NubError::Nub(3) => write!(f, "nub: bad size"),
            NubError::Nub(4) => write!(f, "nub: target is not stopped"),
            NubError::Nub(c) => write!(f, "nub: error {c}"),
            NubError::Protocol(s) => write!(f, "nub protocol: {s}"),
            NubError::Timeout(s) => write!(f, "nub timeout: {s}"),
            NubError::Cancelled => f.write_str("cancelled by session watchdog"),
        }
    }
}

impl std::error::Error for NubError {}

impl From<io::Error> for NubError {
    fn from(e: io::Error) -> Self {
        NubError::Io(e)
    }
}

/// Resilience policy knobs for a [`NubClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long one transaction attempt waits for its reply before
    /// retransmitting.
    pub reply_timeout: Duration,
    /// Retransmissions allowed per transaction (on top of the first
    /// attempt). Safe for every request: the nub deduplicates by
    /// sequence number, so a retransmission is never executed twice.
    pub retries: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub backoff: Duration,
    /// How often to probe with [`Request::Ping`] while waiting for a
    /// stop notification.
    pub event_poll: Duration,
    /// Seed for deterministic retransmission jitter. `0` (the default)
    /// keeps the exact exponential schedule; any other value spreads each
    /// backoff sleep over `[backoff/2, backoff]` with a per-client
    /// splitmix64 sequence, so N clients sharing a lossy link do not
    /// retransmit in lockstep. Jitter only ever *shortens* a sleep, so a
    /// transaction always stays within the configured retry budget.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            reply_timeout: Duration::from_millis(150),
            retries: 10,
            backoff: Duration::from_millis(1),
            event_poll: Duration::from_millis(10),
            jitter_seed: 0,
        }
    }
}

/// The sleep before a retransmission: exactly `base` without jitter
/// (`rng == None`), otherwise a deterministic draw from
/// `[base/2, base]` — never longer than `base`, so the total retry
/// budget is an upper bound in both modes.
fn jittered_backoff(base: Duration, rng: Option<&mut u64>) -> Duration {
    match rng {
        None => base,
        Some(state) => {
            let half = base / 2;
            let span = base.saturating_sub(half);
            let span_us = span.as_micros() as u64;
            if span_us == 0 {
                return base;
            }
            half + Duration::from_micros(splitmix64(state) % (span_us + 1))
        }
    }
}

/// Running traffic counters for one client, kept since connect. Frame
/// byte counts are wire-level: envelope overhead included, transport
/// length prefix excluded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Transactions started (one per request, however many attempts).
    pub transactions: u64,
    /// Extra attempts beyond the first send of a transaction.
    pub retransmits: u64,
    /// Bytes put on the wire (every attempt counts).
    pub bytes_sent: u64,
    /// Bytes received off the wire (replies, events, noise alike).
    pub bytes_received: u64,
}

/// What one inbound frame was, once [`NubClient::take_inbound`] has
/// counted and journaled it.
enum Inbound {
    /// The reply to the transaction in flight.
    Reply(Reply),
    /// A stop/exit event (queued) or a stale reply (dropped).
    Handled,
    /// Corruption, a stray request, or a bare frame such as the connect
    /// announcement: dropped.
    Junk,
}

/// The debugger's connection to one nub.
pub struct NubClient {
    wire: Box<dyn Wire>,
    cfg: ClientConfig,
    /// Last sequence number used; each transaction takes the next one.
    seq: u32,
    /// Generation of the newest accepted event (duplicate suppression).
    last_event_gen: Option<u32>,
    /// Events noticed while a transaction was in flight.
    pending_events: VecDeque<NubEvent>,
    /// Traffic counters, surfaced by `info wire`.
    metrics: WireMetrics,
    /// Flight-recorder handle; [`Trace::off`] (the default) costs one
    /// branch per frame. Every record it emits is [`Layer::Wire`].
    trace: Trace,
    /// Jitter RNG state (`None` when [`ClientConfig::jitter_seed`] is 0).
    jitter: Option<u64>,
    /// Cross-thread cancellation token: a session watchdog sets it to
    /// abort a wedged transaction or event wait from outside the owning
    /// thread (polled once per attempt and once per poll interval).
    cancel: Option<Arc<AtomicBool>>,
}

impl std::fmt::Debug for NubClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NubClient(seq {})", self.seq)
    }
}

impl NubClient {
    /// Wrap a connected wire with default resilience policy.
    pub fn new(wire: Box<dyn Wire>) -> NubClient {
        NubClient::with_config(wire, ClientConfig::default())
    }

    /// Wrap a connected wire with an explicit policy (tests shrink the
    /// timeouts; lossy links may want a larger retry budget).
    pub fn with_config(wire: Box<dyn Wire>, cfg: ClientConfig) -> NubClient {
        let jitter = (cfg.jitter_seed != 0).then_some(cfg.jitter_seed);
        NubClient {
            wire,
            cfg,
            seq: 0,
            last_event_gen: None,
            pending_events: VecDeque::new(),
            metrics: WireMetrics::default(),
            trace: Trace::off(),
            jitter,
            cancel: None,
        }
    }

    /// Install (or remove, with `None`) a cross-thread cancellation
    /// token. A set token makes the next transaction attempt or event
    /// poll return [`NubError::Cancelled`] — how a session watchdog
    /// unblocks a command wedged waiting on a target that never stops.
    pub fn set_cancel(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.cancel = cancel;
    }

    /// Whether the installed cancellation token has been set.
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Attach (or detach, with [`Trace::off`]) the flight recorder. The
    /// journal invariants the schema tests rely on: one `send` record per
    /// frame put on the wire, one `recv` per frame taken off it, `retx`
    /// exactly where [`WireMetrics::retransmits`] increments, so the
    /// journal and the metrics always agree.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Traffic counters since connect or the last reset.
    pub fn metrics(&self) -> WireMetrics {
        self.metrics
    }

    /// Swap the transport under the client, e.g. after the old wire died.
    ///
    /// Debugger-side state survives; session-side state resets: event
    /// deduplication forgets the old connection (the nub re-announces the
    /// current stop on a fresh wire, and that announcement must be
    /// delivered, not deduplicated) and buffered events from the dead
    /// wire are discarded. Sequence numbers keep counting — the nub's
    /// duplicate suppression is per-connection.
    pub fn reconnect(&mut self, wire: Box<dyn Wire>) {
        self.wire = wire;
        self.last_event_gen = None;
        self.pending_events.clear();
        self.trace.emit(
            Layer::Wire,
            Severity::Info,
            "reconnect",
            &[("next_seq", (self.seq.wrapping_add(1)).into())],
        );
    }

    /// Record an event frame, deduplicating by generation.
    fn note_event(&mut self, generation: u32, reply: Reply) {
        // Decode first: an envelope whose reply isn't event-shaped is
        // silently ignored whatever its generation, so it must not be
        // journaled as a rejected event either.
        let event = match reply {
            Reply::Signal { sig, code, context } => match Sig::from_number(sig) {
                Some(sig) => NubEvent::Stopped { sig, code, context },
                None => return, // unknown signal in a checksummed frame: drop
            },
            Reply::Exited { status } => NubEvent::Exited(status),
            _ => return,
        };
        if self.last_event_gen.is_some_and(|g| generation <= g) {
            if self.trace.is_on() {
                self.trace.emit(
                    Layer::Wire,
                    Severity::Debug,
                    "event",
                    &[("gen", generation.into()), ("accepted", false.into())],
                );
            }
            return; // duplicated or stale notification
        }
        if self.trace.is_on() {
            let what = match event {
                NubEvent::Stopped { sig, .. } => format!("stop:{sig:?}"),
                NubEvent::Exited(s) => format!("exit:{s}"),
            };
            self.trace.emit(
                Layer::Wire,
                Severity::Info,
                "event",
                &[
                    ("gen", generation.into()),
                    ("accepted", true.into()),
                    ("what", what.into()),
                ],
            );
        }
        self.last_event_gen = Some(generation);
        self.pending_events.push_back(event);
    }

    /// Take one inbound frame: count its bytes, journal one `recv` record
    /// with its disposition, and queue it if it is an event. `want` is the
    /// sequence number of the transaction in flight, if any; a reply to
    /// any other is stale.
    fn take_inbound(&mut self, raw: &[u8], want: Option<u32>) -> Inbound {
        let len = raw.len();
        self.metrics.bytes_received += len as u64;
        match Envelope::decode(raw) {
            Some(Envelope::Reply { seq, reply }) if Some(seq) == want => {
                let f = [
                    ("disp", "reply".into()),
                    ("seq", seq.into()),
                    ("reply", reply.kind_name().into()),
                    ("len", len.into()),
                ];
                self.trace.emit(Layer::Wire, Severity::Debug, "recv", &f);
                Inbound::Reply(reply)
            }
            Some(Envelope::Reply { seq, .. }) => {
                let f = [("disp", "stale".into()), ("seq", seq.into()), ("len", len.into())];
                self.trace.emit(Layer::Wire, Severity::Debug, "recv", &f);
                Inbound::Handled
            }
            Some(Envelope::Event { generation, reply }) => {
                let f = [("disp", "event".into()), ("gen", generation.into()), ("len", len.into())];
                self.trace.emit(Layer::Wire, Severity::Debug, "recv", &f);
                self.note_event(generation, reply);
                Inbound::Handled
            }
            Some(Envelope::Req { .. }) | None => {
                let f = [("disp", "junk".into()), ("len", len.into())];
                self.trace.emit(Layer::Wire, Severity::Warn, "recv", &f);
                Inbound::Junk
            }
        }
    }

    /// One at-most-once transaction: send the sequenced request, collect
    /// its reply, retransmitting within the configured budget. Corrupted,
    /// stale, and duplicated inbound frames are discarded; events that
    /// arrive meanwhile are queued for [`NubClient::wait_event`].
    fn transact(&mut self, req: &Request) -> Result<Reply, NubError> {
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;
        let frame = Envelope::Req { seq, req: req.clone() }.encode();
        let mut backoff = self.cfg.backoff;
        let mut corrupt_seen = false;
        self.metrics.transactions += 1;
        for attempt in 0..=self.cfg.retries {
            if self.cancelled() {
                return Err(NubError::Cancelled);
            }
            if attempt > 0 {
                self.metrics.retransmits += 1;
                self.trace.emit(
                    Layer::Wire,
                    Severity::Warn,
                    "retx",
                    &[("seq", seq.into()), ("attempt", attempt.into())],
                );
                std::thread::sleep(jittered_backoff(backoff, self.jitter.as_mut()));
                backoff = (backoff * 2).min(Duration::from_millis(80));
            }
            if let Err(e) = self.wire.send(&frame) {
                self.trace.emit(
                    Layer::Wire,
                    Severity::Warn,
                    "send_err",
                    &[
                        ("seq", seq.into()),
                        ("attempt", attempt.into()),
                        ("err", e.to_string().into()),
                    ],
                );
                return Err(e.into());
            }
            self.metrics.bytes_sent += frame.len() as u64;
            if self.trace.is_on() {
                self.trace.emit(
                    Layer::Wire,
                    Severity::Debug,
                    "send",
                    &[
                        ("seq", seq.into()),
                        ("req", req.kind_name().into()),
                        ("attempt", attempt.into()),
                        ("len", frame.len().into()),
                    ],
                );
            }
            let deadline = Instant::now() + self.cfg.reply_timeout;
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break; // this attempt's budget is spent: retransmit
                }
                let Some(raw) = self.wire.recv_timeout(left)? else { break };
                match self.take_inbound(&raw, Some(seq)) {
                    Inbound::Reply(reply) => return Ok(reply),
                    Inbound::Junk => corrupt_seen = true,
                    Inbound::Handled => {}
                }
            }
        }
        if self.trace.is_on() {
            self.trace.emit(
                Layer::Wire,
                Severity::Warn,
                "timeout",
                &[
                    ("seq", seq.into()),
                    ("req", req.kind_name().into()),
                    ("attempts", (self.cfg.retries + 1).into()),
                    ("corrupt", corrupt_seen.into()),
                ],
            );
        }
        let what = format!(
            "no reply to {req:?} after {} attempts of {:?}",
            self.cfg.retries + 1,
            self.cfg.reply_timeout
        );
        if corrupt_seen {
            Err(NubError::Protocol(format!("{what} (corrupted frames seen)")))
        } else {
            Err(NubError::Timeout(what))
        }
    }

    /// Wait for the next stop/exit notification.
    ///
    /// While the target runs, the client probes the nub with pings at the
    /// configured poll interval; `Running` answers keep the wait alive
    /// indefinitely (a busy target is not an error), while a dead wire
    /// surfaces as [`NubError::Io`]/[`NubError::Timeout`] from the probe.
    ///
    /// # Errors
    /// Connection loss, protocol corruption past the retry budget.
    pub fn wait_event(&mut self) -> Result<NubEvent, NubError> {
        loop {
            if let Some(e) = self.pending_events.pop_front() {
                return Ok(e);
            }
            if self.cancelled() {
                return Err(NubError::Cancelled);
            }
            match self.wire.recv_timeout(self.cfg.event_poll)? {
                Some(raw) => {
                    self.take_inbound(&raw, None);
                }
                None => {
                    // Quiet wire: probe. A stopped nub answers by
                    // re-sending the stop notification as an event (picked
                    // up by the next loop turn); a running target answers
                    // `Running`; a dead wire errors out of the probe.
                    match self.transact(&Request::Ping)? {
                        Reply::Running | Reply::Ack => {}
                        Reply::Error { code } => return Err(NubError::Nub(code)),
                        other => {
                            return Err(NubError::Protocol(format!(
                                "ping answered with {other:?}"
                            )))
                        }
                    }
                }
            }
        }
    }

    /// Fetch a value from the code or data space.
    ///
    /// # Errors
    /// Bad addresses and connection loss.
    pub fn fetch(&mut self, space: char, addr: u32, size: u8) -> Result<u64, NubError> {
        match self.transact(&Request::Fetch { space: space as u8, addr, size })? {
            Reply::Fetched { value } => Ok(value),
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// Store a value into the code or data space.
    ///
    /// # Errors
    /// Bad addresses and connection loss.
    pub fn store(&mut self, space: char, addr: u32, size: u8, value: u64) -> Result<(), NubError> {
        match self.transact(&Request::Store { space: space as u8, addr, size, value })? {
            Reply::Stored => Ok(()),
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// Fetch `len` raw bytes from the code or data space in one round
    /// trip (the cache layer's line fill). Returns the target's byte
    /// order (0 = little, 1 = big) alongside the bytes, so callers can
    /// assemble multi-byte values exactly as [`NubClient::fetch`] would.
    ///
    /// # Errors
    /// Bad addresses (the fetch is all-or-nothing), bad lengths
    /// (`0` or above [`crate::proto::MAX_BLOCK`]), connection loss.
    pub fn fetch_block(
        &mut self,
        space: char,
        addr: u32,
        len: u32,
    ) -> Result<(u8, Vec<u8>), NubError> {
        match self.transact(&Request::FetchBlock { space: space as u8, addr, len })? {
            Reply::Block { order, bytes } => {
                if bytes.len() != len as usize {
                    return Err(NubError::Protocol(format!(
                        "block reply carries {} bytes, requested {len}",
                        bytes.len()
                    )));
                }
                Ok((order, bytes))
            }
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// Plant a breakpoint store; the nub records the original instruction
    /// so a future debugger can recover it.
    ///
    /// # Errors
    /// Bad addresses and connection loss.
    pub fn plant(&mut self, addr: u32, size: u8, value: u64) -> Result<(), NubError> {
        match self.transact(&Request::Plant { addr, size, value })? {
            Reply::Stored => Ok(()),
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// List the nub's recorded plants: (address, size, original value).
    ///
    /// # Errors
    /// Connection loss.
    pub fn query_plants(&mut self) -> Result<Vec<(u32, u8, u64)>, NubError> {
        match self.transact(&Request::QueryPlants)? {
            Reply::Plants(v) => Ok(v),
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// Send a resume-class request and collect its acknowledgement.
    fn resume(&mut self, req: Request) -> Result<(), NubError> {
        match self.transact(&req)? {
            Reply::Ack => Ok(()),
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// Resume the target and wait for the next event.
    ///
    /// # Errors
    /// Connection loss.
    pub fn continue_and_wait(&mut self) -> Result<NubEvent, NubError> {
        self.resume(Request::Continue)?;
        self.wait_event()
    }

    /// Execute one instruction and wait for the resulting stop (requires
    /// the nub's single-step extension).
    ///
    /// # Errors
    /// Connection loss.
    pub fn step_and_wait(&mut self) -> Result<NubEvent, NubError> {
        self.resume(Request::Step)?;
        self.wait_event()
    }

    /// Execute up to `n` instructions and wait for the resulting stop: a
    /// breakpoint/fault if one hits first, otherwise a budget-exhaustion
    /// pause announced with the `Step` signal. `StepN { n: 0 }` re-announces
    /// the current state without executing (used after a snapshot restore).
    ///
    /// # Errors
    /// Connection loss.
    pub fn step_n_and_wait(&mut self, n: u64) -> Result<NubEvent, NubError> {
        self.resume(Request::StepN { n })?;
        self.wait_event()
    }

    /// Ask the nub how many instructions the target has retired.
    ///
    /// # Errors
    /// Connection loss.
    pub fn query_steps(&mut self) -> Result<u64, NubError> {
        match self.transact(&Request::QuerySteps)? {
            Reply::Fetched { value } => Ok(value),
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// Capture the stopped target's full state (registers plus dirty memory
    /// pages, with planted traps lifted) and stream the serialized image
    /// back in [`MAX_BLOCK`]-sized chunks.
    ///
    /// [`MAX_BLOCK`]: crate::proto::MAX_BLOCK
    ///
    /// # Errors
    /// Connection loss, or a nub that reports a short or oversized image.
    pub fn take_snapshot(&mut self) -> Result<Vec<u8>, NubError> {
        let total = match self.transact(&Request::TakeSnapshot)? {
            Reply::Fetched { value } => value,
            Reply::Error { code } => return Err(NubError::Nub(code)),
            other => return Err(NubError::Protocol(format!("{other:?}"))),
        };
        let total = usize::try_from(total)
            .map_err(|_| NubError::Protocol(format!("snapshot length {total} overflows")))?;
        let mut image = Vec::with_capacity(total);
        while image.len() < total {
            let off = image.len() as u32;
            let len = (total - image.len()).min(crate::proto::MAX_BLOCK as usize) as u32;
            match self.transact(&Request::ReadSnapshot { off, len })? {
                Reply::Block { bytes, .. } => {
                    if bytes.len() != len as usize {
                        return Err(NubError::Protocol(format!(
                            "snapshot chunk carries {} bytes, requested {len}",
                            bytes.len()
                        )));
                    }
                    image.extend_from_slice(&bytes);
                }
                Reply::Error { code } => return Err(NubError::Nub(code)),
                other => return Err(NubError::Protocol(format!("{other:?}"))),
            }
        }
        Ok(image)
    }

    /// Stream a serialized snapshot to the nub and atomically restore the
    /// target to it. The nub re-arms its live plants afterwards, so replay
    /// from the restored state takes the same traps the original run took.
    ///
    /// Note this resets the target's retired-step counter to the snapshot's;
    /// callers tracking progress should [`NubClient::query_steps`] after.
    ///
    /// # Errors
    /// Connection loss, or a nub that rejects the image as corrupt
    /// (`NubError::Nub(5)`).
    pub fn load_snapshot(&mut self, image: &[u8]) -> Result<(), NubError> {
        let mut off = 0usize;
        // An empty image still needs one LoadSnapshot to reset the staging
        // buffer before the commit length check.
        loop {
            let len = (image.len() - off).min(crate::proto::MAX_BLOCK as usize);
            let chunk = Request::LoadSnapshot {
                off: off as u32,
                bytes: image[off..off + len].to_vec(),
            };
            match self.transact(&chunk)? {
                Reply::Stored => {}
                Reply::Error { code } => return Err(NubError::Nub(code)),
                other => return Err(NubError::Protocol(format!("{other:?}"))),
            }
            off += len;
            if off >= image.len() {
                break;
            }
        }
        match self.transact(&Request::CommitSnapshot { len: image.len() as u32 })? {
            Reply::Stored => Ok(()),
            Reply::Error { code } => Err(NubError::Nub(code)),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }

    /// Break the connection; the nub preserves the target's state.
    ///
    /// # Errors
    /// Currently infallible: a dead wire achieves the same thing.
    pub fn detach(mut self) -> Result<(), NubError> {
        self.detach_in_place()
    }

    /// As [`NubClient::detach`], without consuming the client (the
    /// connection is dead afterwards).
    ///
    /// # Errors
    /// Currently infallible: a dead wire achieves the same thing.
    pub fn detach_in_place(&mut self) -> Result<(), NubError> {
        // Best effort: if the acknowledgement is lost because the nub
        // already dropped the connection, the detach still happened.
        let _ = self.transact(&Request::Detach);
        Ok(())
    }

    /// Break the connection and let the target continue running free.
    ///
    /// # Errors
    /// Currently infallible: a dead wire achieves the same thing.
    pub fn detach_and_run(&mut self) -> Result<(), NubError> {
        let _ = self.transact(&Request::DetachRun);
        Ok(())
    }

    /// Best-effort [`Request::Detach`] bounded by `deadline`: one attempt,
    /// no retransmissions, and any installed cancellation token is
    /// ignored for its duration. Teardown paths (session watchdog kill,
    /// idle eviction, daemon shutdown) use this so an abandoned session
    /// never leaves the target running with breakpoints planted — and
    /// never wedges the teardown on a dead wire either.
    pub fn detach_with_deadline(&mut self, deadline: Duration) {
        let saved_cfg = self.cfg.clone();
        let saved_cancel = self.cancel.take();
        self.cfg.reply_timeout = deadline;
        self.cfg.retries = 0;
        let _ = self.transact(&Request::Detach);
        self.cfg = saved_cfg;
        self.cancel = saved_cancel;
    }

    /// Terminate the target.
    ///
    /// # Errors
    /// Connection loss.
    pub fn kill(mut self) -> Result<i32, NubError> {
        match self.transact(&Request::Kill)? {
            Reply::Ack => {}
            Reply::Exited { status } => return Ok(status),
            Reply::Error { code } => return Err(NubError::Nub(code)),
            other => return Err(NubError::Protocol(format!("{other:?}"))),
        }
        match self.wait_event()? {
            NubEvent::Exited(s) => Ok(s),
            other => Err(NubError::Protocol(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The backoff schedule a client with `seed` would sleep through for
    /// `attempts` retransmissions, mirroring the doubling in `transact`.
    fn schedule(seed: u64, attempts: u32) -> Vec<Duration> {
        let cfg = ClientConfig { backoff: Duration::from_millis(8), jitter_seed: seed, ..ClientConfig::default() };
        let mut rng = (cfg.jitter_seed != 0).then_some(cfg.jitter_seed);
        let mut backoff = cfg.backoff;
        let mut out = Vec::new();
        for _ in 0..attempts {
            out.push(jittered_backoff(backoff, rng.as_mut()));
            backoff = (backoff * 2).min(Duration::from_millis(80));
        }
        out
    }

    #[test]
    fn zero_seed_keeps_exact_exponential_backoff() {
        let s = schedule(0, 4);
        assert_eq!(
            s,
            vec![
                Duration::from_millis(8),
                Duration::from_millis(16),
                Duration::from_millis(32),
                Duration::from_millis(64)
            ]
        );
    }

    #[test]
    fn seed_zero_schedule_is_pinned() {
        // Seed 0 draws nothing: the exact doubling, capped at 80 ms.
        let ms = |v: &[u64]| v.iter().map(|&m| Duration::from_millis(m)).collect::<Vec<_>>();
        assert_eq!(schedule(0, 8), ms(&[8, 16, 32, 64, 80, 80, 80, 80]));
    }

    #[test]
    fn different_seeds_desynchronize() {
        let a = schedule(1, 6);
        let b = schedule(2, 6);
        assert_ne!(a, b, "two seeds produced the same retransmission schedule");
        // Not a single retransmission instant coincides once jitter is on
        // (the point of the exercise: no lockstep on a shared link).
        let coincide = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(coincide <= 1, "schedules still mostly in lockstep: {a:?} vs {b:?}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        assert_eq!(schedule(7, 8), schedule(7, 8), "same seed must replay the same schedule");
    }

    #[test]
    fn jitter_never_exceeds_the_retry_budget() {
        // Every jittered sleep stays within [base/2, base], so the total
        // is bounded by the unjittered schedule — the retry budget a
        // caller planned for without jitter still holds.
        for seed in 1..64u64 {
            let jittered = schedule(seed, 8);
            let exact = schedule(0, 8);
            for (j, e) in jittered.iter().zip(&exact) {
                assert!(*j <= *e, "seed {seed}: jittered sleep {j:?} over base {e:?}");
                assert!(*j >= *e / 2, "seed {seed}: jittered sleep {j:?} under half of {e:?}");
            }
        }
    }
}
