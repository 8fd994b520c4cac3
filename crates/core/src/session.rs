//! Sessions as self-contained values owned by worker threads — the
//! multi-tenant substrate under the `ldbd` daemon.
//!
//! [`Ldb`] is a deliberately single-threaded value: the interpreter, the
//! target views, and the wire cache share state through `Rc<RefCell<…>>`.
//! Rather than rewrite that web in `Arc`, a [`Session`] constructs the
//! *entire* debugger — interpreter, compiled target, cache, chaos layer,
//! trace, health counters — on its own worker thread and never lets it
//! leave: only `Send` data (command strings, transcripts, [`Health`]
//! snapshots, close reasons) crosses the command/response channels. One
//! tenant's panic unwinds one worker's stack; one tenant's wedged target
//! stalls one worker's loop; the neighbors never notice.
//!
//! Robustness is layered per tenant:
//!
//! - **Quarantine** — [`script::run_script`] already catches per-command
//!   panics; the worker adds a second `catch_unwind` around the whole
//!   script so even a panic in the runner itself leaves the worker alive.
//! - **Watchdog** — the controlling side arms a deadline per command
//!   ([`SessionConfig::watchdog`]). On expiry it sets the session's
//!   cancellation token (polled by the interpreter dispatch loop and the
//!   nub client's retry loops), waits [`SessionConfig::grace`] for the
//!   cancelled command's late reply, and the worker books the kill in
//!   that tenant's `info health` before running
//!   [`Ldb::recover_session`].
//! - **Bounded teardown** — every close path (client request, idle
//!   eviction, daemon shutdown, wedge) detaches live targets through
//!   [`Ldb::detach_all_with_deadline`] instead of relying on drop order,
//!   and journals a typed [`CloseReason`].
//!
//! [`SessionRegistry`] multiplexes many sessions behind one value: a hard
//! capacity cap with graceful rejection, per-tenant locking so tenants
//! run concurrently, idle eviction, and a shutdown that closes every
//! live tenant.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ldb_trace::{Layer, Severity};

use crate::debugger::Ldb;
use crate::target::Health;
use crate::script;
use crate::LdbError;

/// Why a session was closed — journaled as the tenant's final `close`
/// record and reported over the daemon protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The client asked (`close <id>`).
    ClientRequest,
    /// The idle reaper evicted it ([`SessionRegistry::evict_idle`]).
    Idle,
    /// The daemon is shutting down ([`SessionRegistry::close_all`]).
    Shutdown,
    /// The watchdog cancelled a command and the worker never came back
    /// within the grace period.
    Wedged,
}

impl CloseReason {
    /// The stable token used in journals and protocol replies.
    pub fn token(self) -> &'static str {
        match self {
            CloseReason::ClientRequest => "client-request",
            CloseReason::Idle => "idle",
            CloseReason::Shutdown => "shutdown",
            CloseReason::Wedged => "wedged",
        }
    }
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Per-session robustness policy.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Deadline per command. On expiry the controller sets the session's
    /// cancellation token and the wedged command aborts at its next poll
    /// point (interpreter dispatch, nub retry loop). `None` disables the
    /// watchdog: commands may block indefinitely.
    pub watchdog: Option<Duration>,
    /// After the watchdog fires, how long to wait for the cancelled
    /// command's late reply before declaring the worker wedged.
    pub grace: Duration,
    /// Per-target deadline for the best-effort `Detach` on teardown
    /// (see [`Ldb::detach_all_with_deadline`]).
    pub detach_deadline: Duration,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            watchdog: None,
            grace: Duration::from_secs(2),
            detach_deadline: Duration::from_millis(200),
        }
    }
}

/// Constructs the tenant's debugger on the worker thread: compile or
/// load the target, attach, set trace/chaos/fault policy. Returns a
/// banner for the `open` reply. Everything the closure captures must be
/// `Send`; the [`Ldb`] it receives never leaves the worker.
pub type SessionBuilder = Box<dyn FnOnce(&mut Ldb) -> Result<String, LdbError> + Send>;

/// Session failures as seen by the controlling side.
#[derive(Debug)]
pub enum SessionError {
    /// The registry is at its hard session cap.
    AtCapacity(usize),
    /// No session with that id (never existed, or already closed).
    UnknownSession(u64),
    /// The session was closed; the id is no longer usable.
    Closed,
    /// The watchdog cancelled a command and the worker missed the grace
    /// deadline; the session is unusable until closed.
    Wedged,
    /// The session builder failed (compile error, attach failure, panic
    /// during construction).
    Open(String),
    /// The worker thread died or broke protocol.
    Worker(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::AtCapacity(max) => {
                write!(f, "session limit reached ({max} live sessions)")
            }
            SessionError::UnknownSession(id) => write!(f, "no session {id}"),
            SessionError::Closed => f.write_str("session closed"),
            SessionError::Wedged => {
                f.write_str("session wedged (watchdog fired, worker missed grace deadline)")
            }
            SessionError::Open(m) => write!(f, "open failed: {m}"),
            SessionError::Worker(m) => write!(f, "session worker failed: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

enum ToWorker {
    Run(String),
    Health,
    Close(CloseReason),
}

enum FromWorker {
    Opened(Result<String, String>),
    Ran {
        transcript: String,
        outcome: script::BatchOutcome,
    },
    Health(Box<Health>),
    Closed(CloseReason),
}

/// How long a close waits for the worker's `Closed` acknowledgement
/// before abandoning the thread (it still exits on its own once its
/// cancelled command unwedges — the channel disconnect tears it down).
const CLOSE_DEADLINE: Duration = Duration::from_secs(10);

/// The controlling half of one tenant: a handle to a worker thread that
/// owns the whole debugger. All methods are request/response over
/// channels; the watchdog lives here, on the side that cannot wedge.
pub struct Session {
    to: Sender<ToWorker>,
    from: Receiver<FromWorker>,
    cancel: Arc<AtomicBool>,
    cfg: SessionConfig,
    join: Option<std::thread::JoinHandle<()>>,
    /// Set once closed (or abandoned as wedged): the handle is dead.
    closed: bool,
    /// Set when a command missed the grace deadline: the reply protocol
    /// is desynchronized, so only `close` is allowed.
    wedged: bool,
    last_used: Instant,
}

impl Session {
    /// Spawn a worker thread, construct the tenant's debugger on it via
    /// `builder`, and return the controlling handle once the build
    /// succeeds.
    ///
    /// # Errors
    /// [`SessionError::Open`] if the builder fails or panics;
    /// [`SessionError::Worker`] if the thread cannot be spawned or dies
    /// before replying.
    pub fn open(cfg: SessionConfig, builder: SessionBuilder) -> Result<Session, SessionError> {
        let (to_tx, to_rx) = unbounded::<ToWorker>();
        let (from_tx, from_rx) = unbounded::<FromWorker>();
        let cancel = Arc::new(AtomicBool::new(false));
        let worker_cancel = Arc::clone(&cancel);
        let worker_cfg = cfg.clone();
        let join = std::thread::Builder::new()
            .name("ldb-session".to_string())
            .spawn(move || worker(worker_cfg, worker_cancel, builder, to_rx, from_tx))
            .map_err(|e| SessionError::Worker(format!("spawn: {e}")))?;
        let mut session = Session {
            to: to_tx,
            from: from_rx,
            cancel,
            cfg,
            join: Some(join),
            closed: false,
            wedged: false,
            last_used: Instant::now(),
        };
        match session.from.recv() {
            Ok(FromWorker::Opened(Ok(_banner))) => Ok(session),
            Ok(FromWorker::Opened(Err(msg))) => {
                session.join_worker();
                session.closed = true;
                Err(SessionError::Open(msg))
            }
            Ok(_) | Err(_) => {
                session.join_worker();
                session.closed = true;
                Err(SessionError::Worker("worker died during open".to_string()))
            }
        }
    }

    /// Run a command script (one line or many) against the tenant's
    /// debugger and return the transcript, exactly as
    /// [`script::run_script`] formats it. Under a watchdog, a command
    /// that exceeds the deadline is cancelled; its transcript carries the
    /// cancellation as an `error:` line and the tenant's health counts
    /// the timeout.
    ///
    /// # Errors
    /// [`SessionError::Wedged`] if the cancelled command also missed the
    /// grace deadline (the session is then only good for closing).
    pub fn run(&mut self, commands: &str) -> Result<String, SessionError> {
        self.run_classified(commands).map(|(transcript, _)| transcript)
    }

    /// As [`Session::run`], returning the worker's typed
    /// [`BatchOutcome`](script::BatchOutcome) alongside the transcript —
    /// classified *inside* the worker, where the debugger's wire state
    /// and health counters live. The fleet supervisor builds its
    /// per-session outcome from this without parsing transcripts.
    ///
    /// # Errors
    /// As [`Session::run`].
    pub fn run_classified(
        &mut self,
        commands: &str,
    ) -> Result<(String, script::BatchOutcome), SessionError> {
        self.ready()?;
        self.last_used = Instant::now();
        self.to
            .send(ToWorker::Run(commands.to_string()))
            .map_err(|_| SessionError::Worker("worker gone".to_string()))?;
        let reply = match self.cfg.watchdog {
            None => self.from.recv().map_err(|_| recv_lost()),
            Some(deadline) => match self.from.recv_timeout(deadline) {
                Ok(m) => Ok(m),
                Err(RecvTimeoutError::Disconnected) => Err(recv_lost()),
                Err(RecvTimeoutError::Timeout) => {
                    // The command blew its deadline: cancel it and give
                    // the worker `grace` to abort, recover, and reply.
                    self.cancel.store(true, Ordering::Relaxed);
                    match self.from.recv_timeout(self.cfg.grace) {
                        Ok(m) => {
                            // The worker normally clears the token after
                            // booking the timeout; clear it here too for
                            // the race where the command finished just as
                            // the watchdog fired.
                            self.cancel.store(false, Ordering::Relaxed);
                            Ok(m)
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            self.wedged = true;
                            Err(SessionError::Wedged)
                        }
                        Err(RecvTimeoutError::Disconnected) => Err(recv_lost()),
                    }
                }
            },
        }?;
        match reply {
            FromWorker::Ran { transcript, outcome } => Ok((transcript, outcome)),
            _ => Err(SessionError::Worker("protocol desync on run".to_string())),
        }
    }

    /// A snapshot of the tenant's health counters. A read-only probe: it
    /// deliberately does *not* touch the idle clock, so a monitor polling
    /// health cannot keep an otherwise-idle tenant alive past
    /// [`SessionRegistry::evict_idle`]'s deadline.
    ///
    /// # Errors
    /// As [`Session::run`].
    pub fn health(&mut self) -> Result<Health, SessionError> {
        self.ready()?;
        self.to
            .send(ToWorker::Health)
            .map_err(|_| SessionError::Worker("worker gone".to_string()))?;
        // Health is answered from the worker's loop without touching the
        // target, so a generous fixed deadline suffices.
        match self.from.recv_timeout(CLOSE_DEADLINE) {
            Ok(FromWorker::Health(h)) => Ok(*h),
            Ok(_) => Err(SessionError::Worker("protocol desync on health".to_string())),
            Err(_) => Err(recv_lost()),
        }
    }

    /// Close the session: the worker journals the typed `reason`,
    /// detaches every live target with a bounded deadline, and exits;
    /// the thread is joined. Returns the reason the worker acknowledged.
    /// Closing twice is a no-op.
    ///
    /// # Errors
    /// [`SessionError::Wedged`] if the worker missed [`CLOSE_DEADLINE`];
    /// its thread is abandoned and exits on its own once the cancelled
    /// command unwedges (channel disconnect tears it down).
    pub fn close(&mut self, reason: CloseReason) -> Result<CloseReason, SessionError> {
        if self.closed {
            return Ok(reason);
        }
        // Abort whatever is in flight so the worker reaches its loop.
        self.cancel.store(true, Ordering::Relaxed);
        if self.to.send(ToWorker::Close(reason)).is_err() {
            // Worker already gone (it tears down on disconnect).
            self.join_worker();
            self.closed = true;
            return Ok(reason);
        }
        let deadline = Instant::now() + CLOSE_DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.from.recv_timeout(left) {
                // Drain stale replies (a wedged command's late `Ran`)
                // until the close acknowledgement.
                Ok(FromWorker::Closed(acked)) => {
                    self.join_worker();
                    self.closed = true;
                    return Ok(acked);
                }
                Ok(_) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    self.join_worker();
                    self.closed = true;
                    return Ok(reason);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Abandon: drop our channel ends on return; the
                    // worker exits (and detaches) once it unwedges.
                    self.closed = true;
                    self.join = None;
                    return Err(SessionError::Wedged);
                }
            }
        }
    }

    /// Whether [`Session::close`] has retired this handle.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// How long since the last `run` request — what the idle reaper
    /// compares against its threshold. Health probes do not count as use.
    pub fn idle_for(&self) -> Duration {
        self.last_used.elapsed()
    }

    /// The session's cancellation token. The registry keeps a clone so
    /// daemon shutdown can abort in-flight commands *before* it can get
    /// each tenant's lock.
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    fn ready(&self) -> Result<(), SessionError> {
        if self.closed {
            return Err(SessionError::Closed);
        }
        if self.wedged {
            return Err(SessionError::Wedged);
        }
        Ok(())
    }

    fn join_worker(&mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.close(CloseReason::Shutdown);
        }
    }
}

fn recv_lost() -> SessionError {
    SessionError::Worker("worker died mid-command".to_string())
}

/// The worker thread: owns the tenant's entire debugger; nothing
/// non-`Send` escapes.
fn worker(
    cfg: SessionConfig,
    cancel: Arc<AtomicBool>,
    builder: SessionBuilder,
    to_worker: Receiver<ToWorker>,
    from_worker: Sender<FromWorker>,
) {
    let mut ldb = Ldb::new();
    ldb.set_cancel(Some(Arc::clone(&cancel)));
    match catch_unwind(AssertUnwindSafe(|| builder(&mut ldb))) {
        Ok(Ok(banner)) => {
            let _ = from_worker.send(FromWorker::Opened(Ok(banner)));
        }
        Ok(Err(e)) => {
            let _ = from_worker.send(FromWorker::Opened(Err(e.to_string())));
            ldb.detach_all_with_deadline(cfg.detach_deadline);
            return;
        }
        Err(payload) => {
            let msg = script::panic_text(payload.as_ref());
            let _ = from_worker
                .send(FromWorker::Opened(Err(format!("session builder panicked: {msg}"))));
            ldb.detach_all_with_deadline(cfg.detach_deadline);
            return;
        }
    }
    loop {
        match to_worker.recv() {
            Ok(ToWorker::Run(commands)) => {
                // run_script quarantines per-command panics itself; this
                // outer guard keeps the *worker* alive even if the runner
                // or the trace layer panics — one tenant, one blast
                // radius.
                let transcript =
                    match catch_unwind(AssertUnwindSafe(|| script::run_script(&mut ldb, &commands))) {
                        Ok(t) => t,
                        Err(payload) => {
                            let msg = script::panic_text(payload.as_ref());
                            ldb.note_quarantined();
                            ldb.recover_session();
                            format!("error: command quarantined (worker panic: {msg})\n")
                        }
                    };
                if cancel.load(Ordering::Relaxed) {
                    // The watchdog (or a shutdown) cancelled this
                    // command: book it in this tenant's health, put the
                    // session back into a coherent state, and re-arm.
                    ldb.note_watchdog_timeout();
                    ldb.recover_session();
                    cancel.store(false, Ordering::Relaxed);
                }
                // Classified here, where the debugger lives: wire state
                // and health counters never cross the channel raw.
                let outcome = script::BatchOutcome::classify(&ldb, &transcript);
                let _ = from_worker.send(FromWorker::Ran { transcript, outcome });
            }
            Ok(ToWorker::Health) => {
                let _ = from_worker.send(FromWorker::Health(Box::new(ldb.health())));
            }
            Ok(ToWorker::Close(reason)) => {
                ldb.trace().emit(
                    Layer::Dbg,
                    Severity::Info,
                    "close",
                    &[("reason", reason.token().to_string().into())],
                );
                ldb.detach_all_with_deadline(cfg.detach_deadline);
                let _ = from_worker.send(FromWorker::Closed(reason));
                return;
            }
            Err(_) => {
                // Controller abandoned us (wedge teardown or dropped
                // registry): journal it and detach anyway — the target
                // must not be left running with breakpoints planted.
                ldb.trace().emit(
                    Layer::Dbg,
                    Severity::Warn,
                    "close",
                    &[("reason", CloseReason::Shutdown.token().to_string().into())],
                );
                ldb.detach_all_with_deadline(cfg.detach_deadline);
                return;
            }
        }
    }
}

struct Tenant {
    session: Arc<Mutex<Session>>,
    /// Clone of the session's cancellation token, reachable without the
    /// per-tenant lock: shutdown aborts in-flight commands first, then
    /// takes each lock.
    cancel: Arc<AtomicBool>,
}

struct RegistryInner {
    next_id: u64,
    /// Opens in flight (capacity is reserved before the build so a burst
    /// of concurrent opens cannot overshoot the cap).
    reserved: usize,
    tenants: HashMap<u64, Tenant>,
}

/// Many sessions behind one value: the daemon's tenant table. A hard
/// capacity cap with graceful rejection, per-tenant locks so tenants run
/// concurrently, idle eviction, and whole-fleet shutdown.
pub struct SessionRegistry {
    max: usize,
    inner: Mutex<RegistryInner>,
    /// Worker threads abandoned because a close missed its deadline (see
    /// [`Session::close`]). Each exits on its own once its cancelled
    /// command unwedges, but until then it holds a thread and a target —
    /// soaks assert this gauge stays bounded.
    leaked_workers: std::sync::atomic::AtomicU64,
}

/// Lock a mutex, shrugging off poisoning: a tenant panicking while
/// holding its lock must not take the registry (or the tenant's own
/// handle) down with it — the state is channel-based and stays coherent.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SessionRegistry {
    /// A registry admitting at most `max` simultaneous sessions.
    pub fn new(max: usize) -> SessionRegistry {
        SessionRegistry {
            max,
            inner: Mutex::new(RegistryInner {
                next_id: 1,
                reserved: 0,
                tenants: HashMap::new(),
            }),
            leaked_workers: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The hard session cap.
    pub fn capacity(&self) -> usize {
        self.max
    }

    /// How many wedged worker threads have been abandoned by closes that
    /// missed their deadline. Monotonic: it counts abandonments, not
    /// currently-live leaked threads (each thread exits once its
    /// cancelled command unwedges) — a soak asserting boundedness wants
    /// the total, not a racy live count.
    pub fn leaked_workers(&self) -> u64 {
        self.leaked_workers.load(Ordering::Relaxed)
    }

    fn note_leaked(&self, r: &Result<CloseReason, SessionError>) {
        if matches!(r, Err(SessionError::Wedged)) {
            self.leaked_workers.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Live session count (not counting opens still building).
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).tenants.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a new session (see [`Session::open`]) and register it.
    /// Capacity is reserved up front, so the (possibly slow) build runs
    /// without holding the registry lock and a burst of opens cannot
    /// overshoot the cap.
    ///
    /// # Errors
    /// [`SessionError::AtCapacity`] at the cap — a graceful rejection,
    /// never a crash — plus the [`Session::open`] failures.
    pub fn open(&self, cfg: SessionConfig, builder: SessionBuilder) -> Result<u64, SessionError> {
        {
            let mut g = lock_unpoisoned(&self.inner);
            if g.tenants.len() + g.reserved >= self.max {
                return Err(SessionError::AtCapacity(self.max));
            }
            g.reserved += 1;
        }
        let opened = Session::open(cfg, builder);
        let mut g = lock_unpoisoned(&self.inner);
        g.reserved -= 1;
        let session = opened?;
        let id = g.next_id;
        g.next_id += 1;
        let cancel = session.cancel_token();
        g.tenants.insert(id, Tenant { session: Arc::new(Mutex::new(session)), cancel });
        Ok(id)
    }

    fn tenant(&self, id: u64) -> Result<Arc<Mutex<Session>>, SessionError> {
        lock_unpoisoned(&self.inner)
            .tenants
            .get(&id)
            .map(|t| Arc::clone(&t.session))
            .ok_or(SessionError::UnknownSession(id))
    }

    /// Run a command script in session `id` (see [`Session::run`]).
    /// Tenants lock individually: two tenants' commands run in parallel.
    ///
    /// # Errors
    /// [`SessionError::UnknownSession`], plus the [`Session::run`]
    /// failures.
    pub fn run(&self, id: u64, commands: &str) -> Result<String, SessionError> {
        let s = self.tenant(id)?;
        let mut s = lock_unpoisoned(&s);
        s.run(commands)
    }

    /// Session `id`'s health counters (see [`Session::health`]).
    ///
    /// # Errors
    /// As [`SessionRegistry::run`].
    pub fn health(&self, id: u64) -> Result<Health, SessionError> {
        let s = self.tenant(id)?;
        let mut s = lock_unpoisoned(&s);
        s.health()
    }

    /// Close session `id` with a typed reason and drop it from the
    /// table.
    ///
    /// # Errors
    /// [`SessionError::UnknownSession`]; [`SessionError::Wedged`] if the
    /// worker missed the close deadline (it is abandoned and still
    /// detaches on its own).
    pub fn close(&self, id: u64, reason: CloseReason) -> Result<CloseReason, SessionError> {
        let tenant = lock_unpoisoned(&self.inner)
            .tenants
            .remove(&id)
            .ok_or(SessionError::UnknownSession(id))?;
        // Abort any in-flight command before waiting on the lock.
        tenant.cancel.store(true, Ordering::Relaxed);
        let mut s = lock_unpoisoned(&tenant.session);
        let r = s.close(reason);
        self.note_leaked(&r);
        r
    }

    /// Evict every session idle for at least `max_idle`, closing each
    /// with [`CloseReason::Idle`]. A tenant whose lock is held is mid-
    /// command and therefore not idle — it is skipped, not waited on.
    /// Returns the evicted ids.
    pub fn evict_idle(&self, max_idle: Duration) -> Vec<u64> {
        let snapshot: Vec<(u64, Arc<Mutex<Session>>)> = lock_unpoisoned(&self.inner)
            .tenants
            .iter()
            .map(|(id, t)| (*id, Arc::clone(&t.session)))
            .collect();
        let mut evicted = Vec::new();
        for (id, session) in snapshot {
            let Ok(mut s) = session.try_lock() else { continue };
            if !s.is_closed() && s.idle_for() >= max_idle {
                let r = s.close(CloseReason::Idle);
                self.note_leaked(&r);
                evicted.push(id);
            }
        }
        if !evicted.is_empty() {
            let mut g = lock_unpoisoned(&self.inner);
            for id in &evicted {
                g.tenants.remove(id);
            }
        }
        evicted
    }

    /// Close every live session with the given reason (daemon shutdown
    /// uses [`CloseReason::Shutdown`]): all in-flight commands are
    /// cancelled first, then each tenant is closed — every live target
    /// gets its best-effort bounded `Detach`. Returns how many sessions
    /// were closed.
    pub fn close_all(&self, reason: CloseReason) -> usize {
        let tenants: Vec<Tenant> = {
            let mut g = lock_unpoisoned(&self.inner);
            g.tenants.drain().map(|(_, t)| t).collect()
        };
        // First pass: abort all in-flight commands at once, so a fleet of
        // mid-command tenants unwedges in parallel rather than serially.
        for t in &tenants {
            t.cancel.store(true, Ordering::Relaxed);
        }
        let mut closed = 0;
        for t in tenants {
            let mut s = lock_unpoisoned(&t.session);
            let r = s.close(reason);
            self.note_leaked(&r);
            if r.is_ok() {
                closed += 1;
            }
        }
        closed
    }
}

impl Drop for SessionRegistry {
    fn drop(&mut self) {
        self.close_all(CloseReason::Shutdown);
    }
}
