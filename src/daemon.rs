//! `ldbd`: the multi-session debug daemon — many tenants, one process,
//! per-tenant fault containment.
//!
//! The paper's machine-independent core was designed so "the debugger
//! need not run on the target machine"; `ldbd` takes the next step and
//! detaches the debugger from the *client* too. Each tenant's whole
//! debugger (interpreter, compiled target, nub, cache, chaos, trace,
//! health counters) lives on its own worker thread behind an
//! [`ldb_core::Session`]; the daemon multiplexes them through an
//! [`ldb_core::SessionRegistry`] with a hard session cap, per-command
//! watchdog deadlines, idle eviction, and bounded best-effort `Detach`
//! on every teardown path.
//!
//! The front end is a line protocol over TCP, one request per line, one
//! reply per line (payloads are newline-escaped, see [`escape_line`]):
//!
//! ```text
//! open <arch> [prog=count|spin] [chaos=SPEC] [fault=SPEC] [watchdog_ms=N] [jitter=N]
//!     -> ok <session-id>
//! cmd <id> <command line>      -> ok <transcript>     (run_script format)
//! health <id>                  -> ok <health json>
//! health                       -> ok <daemon json>    (sessions + module cache)
//! close <id>                   -> ok closed <reason>
//! ping                         -> ok pong
//! shutdown                     -> ok shutdown <n-closed>
//! anything else                -> err <message>
//! ```
//!
//! Targets are built-in programs compiled in the session's own worker
//! (compilation is deterministic, so a tenant's transcript matches a
//! solo run byte for byte): `count`, a healthy compute loop with
//! breakpoint-friendly structure, and `spin`, which never stops — the
//! wedge that demonstrates watchdog recovery.
//!
//! Symbol tables, by contrast, are compiled *once per distinct unit*:
//! the daemon owns a shared read-only [`ModuleCache`] keyed by table
//! content, so N tenants attached to the same binary pay one bytecode
//! compile and share the `Arc`-interned result (the no-argument `health`
//! verb reports the hit/miss counters).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldb_cc::driver::{compile_many, program_load_plan, CompileOpts};
use ldb_cc::pssym::PsMode;
use ldb_core::{
    AttachOpts, ChaosConfig, CloseReason, CompiledTable, ModuleCache, SessionBuilder,
    SessionConfig, SessionError, SessionRegistry, TableSource,
};
use ldb_machine::Arch;
use ldb_nub::{spawn, ClientConfig, FaultConfig, NubConfig};
use ldb_trace::{Layer, Severity, Trace};

use crate::net::{BoundedLineReader, ConnLimits, ConnMetrics, LineOutcome, SweepTimer};

/// The healthy built-in target: enough structure for breakpoints, stack
/// walks, typed prints, and expression evaluation.
pub const PROG_COUNT: &str = r#"
char msg[16] = "hi there";
char *p;
static int calls;
static int limit = 100;
int clamp(int v) {
    calls++;
    if (v > limit) return limit;
    return v;
}
int main(void) {
    int i; int s;
    s = 0;
    p = msg;
    for (i = 0; i < 10; i++) s += clamp(i * 30);
    printf("%d\n", s);
    return 0;
}
"#;

/// The wedge built-in: never stops, never exits. A `c` against it blocks
/// until the tenant's watchdog cancels the command.
pub const PROG_SPIN: &str = r#"
int main(void) {
    int i;
    i = 0;
    while (1) i = i + 1;
    return 0;
}
"#;

/// Look up a built-in target program by protocol name.
pub fn builtin_program(name: &str) -> Option<&'static str> {
    match name {
        "count" => Some(PROG_COUNT),
        "spin" => Some(PROG_SPIN),
        _ => None,
    }
}

/// Escape a payload onto one protocol line: `\` → `\\`, newline → `\n`,
/// carriage return → `\r` (a bare `\r` would be eaten as framing by
/// CRLF-terminating clients).
pub fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_line`]. Unknown escapes pass the escaped character
/// through, so output from older peers (which left `\r` bare) still
/// decodes.
pub fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(c) => out.push(c),
            None => out.push('\\'),
        }
    }
    out
}

/// Daemon-wide policy.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Hard cap on simultaneous sessions; opens beyond it are rejected
    /// with `err`, never a crash.
    pub max_sessions: usize,
    /// Default per-command watchdog for tenants that don't pass
    /// `watchdog_ms` at open.
    pub watchdog: Option<Duration>,
    /// Grace after a watchdog cancellation before a tenant is declared
    /// wedged.
    pub grace: Duration,
    /// Per-target deadline for the best-effort `Detach` on teardown.
    pub detach_deadline: Duration,
    /// Evict sessions idle at least this long (`None` disables the
    /// reaper).
    pub idle_timeout: Option<Duration>,
    /// How often the idle reaper sweeps.
    pub reap_every: Duration,
    /// The connection edge: caps, deadlines, shedding and quarantine
    /// policy (see [`ConnLimits`]).
    pub limits: ConnLimits,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            max_sessions: 128,
            watchdog: Some(Duration::from_secs(10)),
            grace: Duration::from_secs(2),
            detach_deadline: Duration::from_millis(200),
            idle_timeout: None,
            reap_every: Duration::from_secs(5),
            limits: ConnLimits::default(),
        }
    }
}

/// Build the [`SessionBuilder`] for one tenant with a private
/// single-tenant module cache. The daemon itself uses
/// [`session_builder_with_cache`] so tenants share compiled tables; this
/// entry point is for solo baselines and tests, which must behave
/// identically (same compiled-lazy load path, cache population aside).
pub fn session_builder(
    arch: Arch,
    src: &str,
    chaos: Option<ChaosConfig>,
    fault: Option<FaultConfig>,
    jitter_seed: u64,
) -> SessionBuilder {
    session_builder_with_cache(arch, src, chaos, fault, jitter_seed, Arc::new(ModuleCache::new()))
}

/// Build the [`SessionBuilder`] for one tenant: compile `src` for
/// `arch`, intern its symbol tables in `cache` (one bytecode compile per
/// distinct table content, however many tenants attach), spawn a fresh
/// nub, optionally wrap the wire in a fault injector, optionally arm the
/// chaos layer, and attach lazily — all of it on the session's worker
/// thread.
pub fn session_builder_with_cache(
    arch: Arch,
    src: &str,
    chaos: Option<ChaosConfig>,
    fault: Option<FaultConfig>,
    jitter_seed: u64,
    cache: Arc<ModuleCache>,
) -> SessionBuilder {
    let src = src.to_string();
    Box::new(move |ldb| {
        let p = compile_many(&[("target.c", src.as_str())], arch, CompileOpts::default())
            .map_err(|e| ldb_core::LdbError::msg(format!("compile: {e}")))?;
        let (frame_ps, modules) = program_load_plan(&p, PsMode::Deferred);
        let (frame, _hit) = cache
            .get_or_compile(&frame_ps)
            .map_err(|e| ldb_core::LdbError::msg(format!("loader frame: {e}")))?;
        let modules: Vec<CompiledTable> = modules
            .into_iter()
            .map(|(name, ps)| {
                let (module, _hit) = cache
                    .get_or_compile(&ps)
                    .map_err(|e| ldb_core::LdbError::msg(format!("table `{name}`: {e}")))?;
                Ok(CompiledTable { name, module })
            })
            .collect::<Result<_, ldb_core::LdbError>>()?;
        let handle = spawn(&p.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
        let wire = handle
            .connect_channel()
            .map_err(|e| ldb_core::LdbError::msg(format!("connect: {e}")))?;
        ldb.set_chaos(chaos);
        let client = ClientConfig {
            reply_timeout: Duration::from_secs(2),
            retries: 4,
            backoff: Duration::from_millis(1),
            event_poll: Duration::from_millis(100),
            jitter_seed,
        };
        let source = TableSource::Compiled { frame: &frame, modules: &modules };
        ldb.attach(Box::new(wire), source, Some(handle), AttachOpts { client, fault })?;
        Ok(format!("{arch}"))
    })
}

/// The daemon proper: a [`SessionRegistry`] plus the line-protocol front
/// end. [`Daemon::handle_line`] is the whole protocol — the TCP layer
/// ([`Daemon::serve`]) and tests drive the same entry point.
pub struct Daemon {
    cfg: DaemonConfig,
    registry: Arc<SessionRegistry>,
    /// Compiled symbol tables shared by every tenant (read-only entries,
    /// keyed by table content).
    cache: Arc<ModuleCache>,
    /// Connection-edge counters (`health` folds a snapshot in).
    net: Arc<ConnMetrics>,
    /// Monotonic connection ids for the net-layer journal.
    next_conn: AtomicU64,
    /// Flight recorder for the connection edge ([`Layer::Net`] records:
    /// accept, shed, oversize, malformed, quarantine, idle disconnect),
    /// so hostile-client incidents replay deterministically.
    trace: Trace,
    shutdown: Arc<AtomicBool>,
}

impl Daemon {
    /// A daemon with an empty registry and an empty module cache.
    pub fn new(cfg: DaemonConfig) -> Daemon {
        Daemon::with_trace(cfg, Trace::off())
    }

    /// A daemon journaling its connection edge to `trace` as
    /// [`Layer::Net`] records.
    pub fn with_trace(cfg: DaemonConfig, trace: Trace) -> Daemon {
        let registry = Arc::new(SessionRegistry::new(cfg.max_sessions));
        Daemon {
            cfg,
            registry,
            cache: Arc::new(ModuleCache::new()),
            net: Arc::new(ConnMetrics::default()),
            next_conn: AtomicU64::new(0),
            trace,
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The tenant table (tests aggregate per-tenant health through it).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// The shared compiled-module cache (tests assert its counters).
    pub fn module_cache(&self) -> &Arc<ModuleCache> {
        &self.cache
    }

    /// The connection-edge counters (tests assert every rejection is
    /// accounted for).
    pub fn conn_metrics(&self) -> &Arc<ConnMetrics> {
        &self.net
    }

    /// Whether `shutdown` has been processed.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Execute one protocol request and produce one reply line (without
    /// the trailing newline). Never panics a caller: every failure is an
    /// `err …` reply.
    pub fn handle_line(&self, line: &str) -> String {
        // Strip the line terminator only (CRLF clients leave a trailing
        // `\r` after `lines()` takes the `\n`); anything else trailing
        // may be a whitespace-significant escaped payload. Leading
        // whitespace precedes the verb, so it is always framing.
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        match self.dispatch(line.trim_start()) {
            Ok(reply) => format!("ok {}", escape_line(&reply)),
            Err(msg) => format!("err {}", escape_line(&msg)),
        }
    }

    fn dispatch(&self, line: &str) -> Result<String, String> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err("daemon is shutting down".to_string());
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        match verb {
            "ping" => Ok("pong".to_string()),
            "open" => self.open(rest.trim()),
            "cmd" => {
                // The id is framing; everything after the single
                // separator is the escaped payload, whitespace included.
                let (id, commands) = rest
                    .trim_start()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| "usage: cmd <id> <command>".to_string())?;
                let id = parse_id(id)?;
                let commands = unescape_line(commands);
                self.registry.run(id, &commands).map_err(|e| self.after_error(id, e))
            }
            "health" => {
                let rest = rest.trim();
                if rest.is_empty() {
                    // No id: daemon-level health — the session count and
                    // the shared module-cache counters.
                    return Ok(self.health_json());
                }
                let id = parse_id(rest)?;
                self.registry
                    .health(id)
                    .map(|h| h.to_json())
                    .map_err(|e| self.after_error(id, e))
            }
            "close" => {
                let id = parse_id(rest)?;
                match self.registry.close(id, CloseReason::ClientRequest) {
                    Ok(reason) => Ok(format!("closed {reason}")),
                    Err(e) => Err(e.to_string()),
                }
            }
            "shutdown" => {
                self.shutdown.store(true, Ordering::Relaxed);
                let closed = self.registry.close_all(CloseReason::Shutdown);
                Ok(format!("shutdown {closed}"))
            }
            "" => Err("empty request".to_string()),
            other => Err(format!("unknown verb `{other}`")),
        }
    }

    /// The daemon-level health document: live session count, the
    /// abandoned-worker gauge, the shared module-cache counters, and the
    /// connection-edge counters. `misses` is the number of bytecode
    /// compiles actually paid; N same-binary tenants should show N-1
    /// hits and one miss per table.
    fn health_json(&self) -> String {
        let s = self.cache.stats();
        format!(
            "{{\"sessions\":{},\"leaked_workers\":{},\
             \"module_cache\":{{\"hits\":{},\"misses\":{},\"entries\":{}}},\
             \"connections\":{}}}",
            self.registry.len(),
            self.registry.leaked_workers(),
            s.hits,
            s.misses,
            s.entries,
            self.net.snapshot().to_json()
        )
    }

    /// A wedged tenant is unusable: close it (typed) so the id stops
    /// answering and its worker tears down once it unwedges.
    fn after_error(&self, id: u64, e: SessionError) -> String {
        if matches!(e, SessionError::Wedged) {
            let _ = self.registry.close(id, CloseReason::Wedged);
        }
        e.to_string()
    }

    fn open(&self, rest: &str) -> Result<String, String> {
        let mut words = rest.split_whitespace();
        let arch_name = words.next().ok_or("usage: open <arch> [k=v]...")?;
        let arch = Arch::from_name(arch_name).ok_or_else(|| format!("unknown arch `{arch_name}`"))?;
        let mut prog = PROG_COUNT;
        let mut chaos = None;
        let mut fault = None;
        let mut jitter = 0u64;
        let mut cfg = SessionConfig {
            watchdog: self.cfg.watchdog,
            grace: self.cfg.grace,
            detach_deadline: self.cfg.detach_deadline,
        };
        for word in words {
            let (key, value) = word
                .split_once('=')
                .ok_or_else(|| format!("bad open option `{word}` (want k=v)"))?;
            match key {
                "prog" => {
                    prog = builtin_program(value)
                        .ok_or_else(|| format!("unknown program `{value}` (count|spin)"))?;
                }
                "chaos" => chaos = Some(ChaosConfig::parse(value)?),
                "fault" => fault = Some(FaultConfig::parse(value)?),
                "watchdog_ms" => {
                    let ms: u64 = value.parse().map_err(|_| "bad watchdog_ms".to_string())?;
                    cfg.watchdog = (ms > 0).then(|| Duration::from_millis(ms));
                }
                "jitter" => {
                    jitter = value.parse().map_err(|_| "bad jitter seed".to_string())?;
                }
                other => return Err(format!("unknown open option `{other}`")),
            }
        }
        let builder =
            session_builder_with_cache(arch, prog, chaos, fault, jitter, Arc::clone(&self.cache));
        match self.registry.open(cfg, builder) {
            Ok(id) => Ok(format!("{id}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Serve the line protocol on `listener` until a client sends
    /// `shutdown`: one thread per connection up to
    /// [`ConnLimits::max_conns`] (accepts beyond the cap are shed with a
    /// typed `err overloaded` and a clean hangup), a reaper sweeping
    /// idle sessions on the configured interval, a bounded per-request
    /// reader with idle disconnect on every connection, and on the way
    /// out a drain window that lets in-flight replies finish before
    /// sockets are forced shut. Returns once shutdown completes.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut clients: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
        let reaper = self.cfg.idle_timeout.map(|idle| {
            let daemon = Arc::clone(self);
            std::thread::spawn(move || {
                let mut timer = SweepTimer::new(daemon.cfg.reap_every);
                while !daemon.shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(timer.poll_interval());
                    // Sweep only when the configured interval has really
                    // elapsed — the short sleep is for noticing shutdown,
                    // not for sweeping faster than asked.
                    if timer.due(Instant::now()) {
                        daemon.registry.evict_idle(idle);
                    }
                }
            })
        });
        while !self.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    // Finished handlers retire their slots here, so the
                    // handle list does not grow with connection churn.
                    clients.retain(|(h, _)| !h.is_finished());
                    let conn = self.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.net.active() >= self.cfg.limits.max_conns as u64 {
                        self.shed(stream, conn);
                        continue;
                    }
                    self.net.note_accepted();
                    self.trace.emit(
                        Layer::Net,
                        Severity::Info,
                        "accept",
                        &[("conn", conn.into())],
                    );
                    let daemon = Arc::clone(self);
                    // Keep a handle to the socket: if a handler outlives
                    // the drain window at shutdown, the serve loop must
                    // be able to hang up for it.
                    let sock = stream.try_clone()?;
                    clients.push((
                        std::thread::spawn(move || daemon.serve_client(stream, conn)),
                        sock,
                    ));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        // Graceful drain: handlers poll the shutdown flag between reads
        // and finish writing the reply they owe first; give them the
        // drain window before cutting sockets out from under them.
        let deadline = Instant::now() + self.cfg.limits.drain;
        while clients.iter().any(|(h, _)| !h.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for (handle, sock) in clients {
            let _ = sock.shutdown(std::net::Shutdown::Both);
            let _ = handle.join();
        }
        if let Some(r) = reaper {
            let _ = r.join();
        }
        // Belt and braces: `shutdown` already closed the registry, but a
        // serve loop ending any other way must still detach every target.
        self.registry.close_all(CloseReason::Shutdown);
        Ok(())
    }

    /// Reject a connection beyond the cap: one typed `err` carrying the
    /// backoff hint, then a clean hangup. Runs on the accept thread, so
    /// the write is deadline-bounded — a shed client that never reads
    /// cannot stall the accept loop.
    fn shed(&self, stream: TcpStream, conn: u64) {
        self.net.note_shed();
        self.trace.emit(
            Layer::Net,
            Severity::Warn,
            "shed",
            &[("conn", conn.into()), ("retry_after_ms", self.cfg.limits.retry_after_ms.into())],
        );
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(self.cfg.limits.write_timeout));
        let reply = format!(
            "err overloaded retry_after_ms={} ({} connections at cap)\n",
            self.cfg.limits.retry_after_ms, self.cfg.limits.max_conns
        );
        if stream.write_all(reply.as_bytes()).is_ok() {
            self.net.add_bytes_out(reply.len() as u64);
        }
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// One client connection: a bounded reader, per-read and per-write
    /// deadlines, an idle clock, and a strike counter — repeat protocol
    /// offenders (oversized or non-UTF-8 requests) are quarantined with
    /// a typed `err` and a hangup. Every exit path lowers the active
    /// gauge.
    fn serve_client(&self, stream: TcpStream, conn: u64) {
        let sock = stream.try_clone().ok();
        self.serve_client_inner(stream, conn);
        // The serve loop holds its own clone of this socket for the
        // shutdown drain, so dropping the handler's fds is not a hangup
        // — send the FIN explicitly, or an idle-disconnected or
        // quarantined client would dangle half-open until the next
        // accept retires the slot.
        if let Some(sock) = sock {
            let _ = sock.shutdown(std::net::Shutdown::Both);
        }
        self.net.note_closed();
        self.trace.emit(Layer::Net, Severity::Debug, "conn_end", &[("conn", conn.into())]);
    }

    fn serve_client_inner(&self, stream: TcpStream, conn: u64) {
        // Read in short slices so shutdown and the idle clock are
        // noticed even while a client stalls mid-line.
        let poll = self.cfg.limits.idle.min(Duration::from_millis(100));
        if stream.set_read_timeout(Some(poll)).is_err()
            || stream.set_write_timeout(Some(self.cfg.limits.write_timeout)).is_err()
        {
            return;
        }
        let Ok(peer) = stream.try_clone() else { return };
        let mut writer = peer;
        let mut reader = BoundedLineReader::new(stream, self.cfg.limits.max_request_bytes);
        let mut strikes = 0u32;
        let mut synced_bytes = 0u64;
        let mut last_progress = Instant::now();
        let write_reply = |w: &mut TcpStream, net: &ConnMetrics, reply: &str| -> bool {
            let mut line = String::with_capacity(reply.len() + 1);
            line.push_str(reply);
            line.push('\n');
            let ok = w.write_all(line.as_bytes()).is_ok();
            if ok {
                net.add_bytes_out(line.len() as u64);
            }
            ok
        };
        loop {
            let outcome = reader.read_line();
            self.net.add_bytes_in(reader.bytes_read() - synced_bytes);
            synced_bytes = reader.bytes_read();
            let offense: Option<String> = match outcome {
                LineOutcome::Line(bytes) => {
                    last_progress = Instant::now();
                    self.net.note_request();
                    match String::from_utf8(bytes) {
                        Ok(line) => {
                            let reply = self.handle_line(&line);
                            if !write_reply(&mut writer, &self.net, &reply) {
                                return;
                            }
                            if self.shutdown.load(Ordering::Relaxed) {
                                // The reply this client was owed is out;
                                // drain over, hang up.
                                return;
                            }
                            // A long-running command is progress, not
                            // idling: the idle clock restarts at the
                            // reply, not the request.
                            last_progress = Instant::now();
                            None
                        }
                        Err(_) => {
                            self.net.note_malformed();
                            self.trace.emit(
                                Layer::Net,
                                Severity::Warn,
                                "malformed",
                                &[("conn", conn.into())],
                            );
                            Some("err request is not valid UTF-8".to_string())
                        }
                    }
                }
                LineOutcome::Oversized { discarded } => {
                    last_progress = Instant::now();
                    self.net.note_request();
                    self.net.note_oversized();
                    self.trace.emit(
                        Layer::Net,
                        Severity::Warn,
                        "oversize",
                        &[("conn", conn.into()), ("discarded", discarded.into())],
                    );
                    Some(format!(
                        "err request too long ({discarded} bytes, cap {})",
                        self.cfg.limits.max_request_bytes
                    ))
                }
                LineOutcome::Flooded { discarded } => {
                    // An unterminated flood: no resync point exists, so
                    // quarantine immediately regardless of strikes.
                    self.net.note_quarantined();
                    self.trace.emit(
                        Layer::Net,
                        Severity::Warn,
                        "quarantine",
                        &[
                            ("conn", conn.into()),
                            ("why", "flood".into()),
                            ("discarded", discarded.into()),
                        ],
                    );
                    let _ = write_reply(
                        &mut writer,
                        &self.net,
                        &format!("err connection quarantined (unterminated {discarded}-byte flood)"),
                    );
                    return;
                }
                LineOutcome::TimedOut => {
                    if self.shutdown.load(Ordering::Relaxed) {
                        // Idle at shutdown: nothing is owed, hang up.
                        return;
                    }
                    if last_progress.elapsed() >= self.cfg.limits.idle {
                        self.net.note_idle_disconnect();
                        self.trace.emit(
                            Layer::Net,
                            Severity::Info,
                            "idle_close",
                            &[("conn", conn.into())],
                        );
                        let _ = write_reply(&mut writer, &self.net, "err idle timeout, disconnecting");
                        return;
                    }
                    None
                }
                LineOutcome::Eof | LineOutcome::Err(_) => return,
            };
            if let Some(err_reply) = offense {
                strikes += 1;
                if strikes >= self.cfg.limits.strikes {
                    self.net.note_quarantined();
                    self.trace.emit(
                        Layer::Net,
                        Severity::Warn,
                        "quarantine",
                        &[("conn", conn.into()), ("why", "strikes".into()), ("strikes", strikes.into())],
                    );
                    let _ = write_reply(
                        &mut writer,
                        &self.net,
                        &format!("err connection quarantined ({strikes} protocol offenses)"),
                    );
                    return;
                }
                if !write_reply(&mut writer, &self.net, &err_reply) {
                    return;
                }
            }
        }
    }
}

fn parse_id(s: &str) -> Result<u64, String> {
    s.trim().parse::<u64>().map_err(|_| format!("bad session id `{s}`"))
}

/// Retry policy for a [`DaemonClient`] riding through transient
/// rejections: overload shedding, the session cap, and dropped
/// connections.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub attempts: u32,
    /// Backoff between attempts when the server did not advertise a
    /// `retry_after_ms` hint; doubles per retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 8, backoff: Duration::from_millis(10) }
    }
}

/// Whether a failed request is worth retrying: transient overload
/// (connection shedding, session cap) and transport loss. Protocol
/// errors (`unknown verb`, `bad session id`…) are not — the request
/// itself is wrong.
fn retryable(err: &str) -> bool {
    err.starts_with("io:")
        || err.contains("overloaded retry_after_ms=")
        || err.contains("session limit reached")
}

/// The server's `retry_after_ms=N` backoff hint, if the error carries
/// one.
fn retry_after(err: &str) -> Option<Duration> {
    let n = err.split("retry_after_ms=").nth(1)?;
    let n: u64 = n.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()?;
    Some(Duration::from_millis(n))
}

/// A line-protocol client for tests and tools: connects, sends one
/// request per call, reads one reply. [`DaemonClient::request_with_retry`]
/// adds reconnect-and-backoff so well-behaved callers ride through
/// overload shedding and dropped connections.
pub struct DaemonClient {
    addr: std::net::SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl DaemonClient {
    /// Connect to a serving daemon.
    ///
    /// # Errors
    /// Socket failures.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<DaemonClient> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(DaemonClient { addr, reader: BufReader::new(stream), writer })
    }

    /// Send one request line, read one reply line. Returns
    /// `Ok(payload)` for `ok …` replies and `Err(message)` for `err …`
    /// (payloads unescaped).
    ///
    /// A request containing a line terminator is rejected with a typed
    /// error *before* anything hits the wire: an embedded `\n` would
    /// silently frame as two requests and desynchronize every subsequent
    /// reply. Escape payloads with [`escape_line`].
    ///
    /// # Errors
    /// Socket failures surface as `Err` with an `io:` prefix.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        if line.contains('\n') || line.contains('\r') {
            return Err(
                "request contains a line terminator (escape payloads with escape_line)"
                    .to_string(),
            );
        }
        writeln!(self.writer, "{line}").map_err(|e| format!("io: {e}"))?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| format!("io: {e}"))?;
        let reply = reply.trim_end_matches('\n');
        if let Some(payload) = reply.strip_prefix("ok ") {
            Ok(unescape_line(payload))
        } else if let Some(payload) = reply.strip_prefix("err ") {
            Err(unescape_line(payload))
        } else if reply.is_empty() {
            Err("io: connection closed".to_string())
        } else {
            Err(format!("malformed reply `{reply}`"))
        }
    }

    /// [`DaemonClient::request`], but transient failures — overload
    /// shedding, the session cap, a dropped or reset connection — are
    /// retried with a fresh connection and backoff (the server's
    /// `retry_after_ms` hint when it gave one, doubling otherwise).
    /// Protocol errors are returned immediately.
    ///
    /// Note the at-most-once caveat: a request lost to a mid-flight
    /// transport error *may* have been executed before the connection
    /// died. Idempotent requests (`ping`, `health`, `cmd` re-runs) are
    /// always safe; `open` may in the worst case leave an extra session
    /// for the idle reaper.
    ///
    /// # Errors
    /// The final attempt's error.
    pub fn request_with_retry(
        &mut self,
        line: &str,
        policy: &RetryPolicy,
    ) -> Result<String, String> {
        let mut backoff = policy.backoff;
        let mut last = String::new();
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(retry_after(&last).unwrap_or(backoff));
                backoff = backoff.saturating_mul(2);
                // The old connection may be half-dead (shed, reset, or
                // drained); start clean.
                if let Ok(fresh) = DaemonClient::connect(self.addr) {
                    *self = fresh;
                }
            }
            match self.request(line) {
                Ok(reply) => return Ok(reply),
                Err(e) if retryable(&e) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }
}
