//! The headless debugging fleet: thousands of supervised scripted
//! sessions, typed outcomes, crash bucketing, and chaos-seed
//! minimization.
//!
//! The paper argued a debugger should be a *library* reached through
//! narrow machine-independent interfaces; `ldbd` already showed one
//! process multiplexing many tenants. The fleet runner is the batch
//! counterpart: a CI-shaped harness that executes a corpus of
//! [`SessionSpec`]s — each a (target, script, fault policy) triple —
//! across a worker pool bounded by core count, wraps every session in
//! the [`ldb_core::Session`] supervisor (per-session watchdog deadline,
//! panic quarantine, bounded teardown), and reduces the wreckage to a
//! deterministic, machine-diffable report:
//!
//! - **Typed outcomes** ([`FleetOutcome`]): the session-level
//!   [`BatchOutcome`] classification (clean / script-error /
//!   panic-quarantined / wire-lost) extended with the two outcomes only
//!   a supervisor can see — `wedged` (the watchdog had to cancel a
//!   command) and `shed` (the fleet declined to run the session at all,
//!   by session cap or memory budget).
//! - **Bounded retry** ([`FleetConfig::max_retries`]): only outcomes an
//!   *injected transient fault* can explain are retried — a session is
//!   retryable exactly when it lost its wire **and** its spec carries a
//!   fault injector. Deterministic failures (script errors, panics,
//!   chaos-induced crashes) are never retried: rerunning a pure function
//!   cannot change its value, and booking retries against them would
//!   hide real bugs. Each retry bumps the fault seed by the attempt
//!   number, so the retry schedule itself is deterministic.
//! - **Crash bucketing** ([`bucket`]): failures hash to a stable bucket
//!   id built from *typed* evidence — the outcome token, the walk-stop
//!   kinds, digit-normalized error lines, and the names of nonzero
//!   health counters — never raw addresses, so the same defect buckets
//!   identically across arches, layouts, and runs.
//! - **Seed minimization** ([`minimize`]): a failing chaos seed's
//!   corruption schedule is bisected down to the narrowest window of
//!   corruption events that still reproduces the same bucket, every
//!   accepted step verified by deterministic re-execution.
//!
//! Determinism is the load-bearing property: two same-seed fleet runs
//! must produce byte-identical session and bucket reports (wall-clock
//! timings are deliberately excluded from the canonical forms). Every
//! source of nondeterminism is either seeded (chaos, wire faults,
//! jitter), ordered (results are sorted by session id), or excluded
//! (timestamps, thread interleavings).

pub mod bucket;
pub mod corpus;
pub mod minimize;
pub mod report;

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldb_cc::driver::{compile_many, program_load_plan, CompileOpts};
use ldb_cc::pssym::PsMode;
use ldb_core::{
    AttachOpts, BatchOutcome, ChaosConfig, CloseReason, CompiledTable, Health, LdbError,
    ModuleCache, Session, SessionBuilder, SessionConfig, SessionError, TableSource,
};
use ldb_machine::{Arch, Image};
use ldb_nub::{spawn, ClientConfig, FaultConfig, NubConfig};
use ldb_trace::{Layer, Severity, Trace, TraceConfig};

/// One scripted session: what to debug, what to type at it, and which
/// faults to inject. A spec is a *pure value* — running it twice with
/// the same fleet policy produces the same [`SessionResult`].
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Display name, e.g. `mips/chaos/17` (the report keys on the dense
    /// session id, not the name).
    pub name: String,
    /// Target architecture.
    pub arch: Arch,
    /// C source of the target program (compiled once per distinct
    /// `(arch, source)` pair, shared by every session that uses it).
    pub source: String,
    /// The command script ([`ldb_core::run_script`] format).
    pub script: String,
    /// Data-space corruption policy (the chaos layer), if any.
    pub chaos: Option<ChaosConfig>,
    /// Wire fault injection policy, if any. Its presence is what marks
    /// a lost wire as *transient* and therefore retryable.
    pub fault: Option<FaultConfig>,
    /// Per-command watchdog deadline; `None` uses
    /// [`FleetConfig::watchdog`]. Wedge-corpus specs set this short so a
    /// spinning target is cancelled quickly.
    pub watchdog: Option<Duration>,
}

impl SessionSpec {
    /// A healthy baseline spec (no faults, default watchdog).
    pub fn new(name: impl Into<String>, arch: Arch, source: &str, script: &str) -> SessionSpec {
        SessionSpec {
            name: name.into(),
            arch,
            source: source.to_string(),
            script: script.to_string(),
            chaos: None,
            fault: None,
            watchdog: None,
        }
    }

    /// The deterministic per-session memory estimate the shedding policy
    /// compares against [`FleetConfig::memory_budget`]: a fixed floor
    /// for the debugger machinery plus terms scaling with the inputs. A
    /// *function of the spec alone* — never of runtime occupancy — so
    /// the shed set is identical on every run and the report stays
    /// byte-identical.
    pub fn estimated_bytes(&self) -> u64 {
        const SESSION_FLOOR: u64 = 128 * 1024;
        SESSION_FLOOR + self.source.len() as u64 * 64 + self.script.len() as u64 * 16
    }
}

/// Why the fleet declined to run a session (graceful degradation: a
/// typed outcome in the report, never a crash or a silent skip).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShedReason {
    /// The session's index is beyond [`FleetConfig::session_cap`].
    SessionCap,
    /// The session's [`SessionSpec::estimated_bytes`] does not fit its
    /// share of [`FleetConfig::memory_budget`].
    MemoryBudget,
}

impl ShedReason {
    /// The stable report token.
    pub fn token(self) -> &'static str {
        match self {
            ShedReason::SessionCap => "session-cap",
            ShedReason::MemoryBudget => "memory-budget",
        }
    }
}

/// The supervised outcome of one fleet session: the in-session
/// [`BatchOutcome`] taxonomy plus the two outcomes only the supervisor
/// can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FleetOutcome {
    /// Every command ran, none failed.
    Clean,
    /// At least one `error:` transcript line.
    ScriptError,
    /// At least one command panicked and was quarantined.
    PanicQuarantined,
    /// The target's wire was lost mid-script.
    WireLost,
    /// The per-command watchdog fired: either the cancelled command came
    /// back (health books a `watchdog_timeouts`) or the worker missed
    /// the grace deadline entirely ([`SessionError::Wedged`]).
    Wedged,
    /// The fleet shed the session before running it.
    Shed(ShedReason),
}

impl FleetOutcome {
    /// The stable report token (`shed` outcomes carry their reason:
    /// `shed:session-cap`, `shed:memory-budget`).
    pub fn token(self) -> &'static str {
        match self {
            FleetOutcome::Clean => "clean",
            FleetOutcome::ScriptError => "script-error",
            FleetOutcome::PanicQuarantined => "panic-quarantined",
            FleetOutcome::WireLost => "wire-lost",
            FleetOutcome::Wedged => "wedged",
            FleetOutcome::Shed(ShedReason::SessionCap) => "shed:session-cap",
            FleetOutcome::Shed(ShedReason::MemoryBudget) => "shed:memory-budget",
        }
    }

    /// Whether this outcome lands in a crash bucket (everything but a
    /// clean run or a shed — shed sessions never executed, so there is
    /// no evidence to bucket).
    pub fn is_bucketed(self) -> bool {
        !matches!(self, FleetOutcome::Clean | FleetOutcome::Shed(_))
    }
}

impl std::fmt::Display for FleetOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// The journal-vs-session cross-check carried in each result: the
/// per-session flight recorder must agree with the session's own
/// bookkeeping — one `cmd` record per dispatched script line, one
/// `panic` record per quarantined command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalCheck {
    /// `dbg/cmd` records in the session journal.
    pub cmd_records: u64,
    /// Commands the script dispatches ([`ldb_core::command_count`]).
    pub commands_expected: u64,
    /// `dbg/panic` records in the session journal.
    pub panic_records: u64,
    /// Quarantined commands per the session's health counters.
    pub panics_expected: u64,
    /// Whether every journal line parsed under the strict schema.
    pub parsed: bool,
}

impl JournalCheck {
    /// Whether journal and session agree.
    pub fn consistent(&self) -> bool {
        self.parsed
            && self.cmd_records == self.commands_expected
            && self.panic_records == self.panics_expected
    }
}

/// What one session contributed to the fleet report.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Dense session id: the spec's index in the corpus.
    pub id: u64,
    /// The spec's display name.
    pub name: String,
    /// The supervised outcome (of the final attempt).
    pub outcome: FleetOutcome,
    /// Attempts executed (1 unless transient retries were booked).
    pub attempts: u32,
    /// Retries booked — nonzero only for injector-marked transient
    /// outcomes.
    pub retries: u32,
    /// Crash bucket id (16 hex digits), for bucketed outcomes.
    pub bucket: Option<String>,
    /// The canonical bucket key the id hashes (kept so triage can read
    /// *why* two sessions share a bucket).
    pub bucket_key: Option<String>,
    /// Final-attempt health counters (absent for shed sessions and
    /// grace-deadline wedges, where the worker never answered).
    pub health: Option<Health>,
    /// Final-attempt transcript (empty for shed sessions).
    pub transcript: String,
    /// The journal cross-check (absent for shed sessions).
    pub journal: Option<JournalCheck>,
    /// Wall-clock for the session, all attempts included. Excluded from
    /// every canonical report form.
    pub wall: Duration,
}

/// Fleet-wide policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads. The default is the machine's available
    /// parallelism minus one (floor 2): the pool is bounded by core
    /// count however large the corpus.
    pub workers: usize,
    /// Retry budget per session for transient outcomes.
    pub max_retries: u32,
    /// Default per-command watchdog for specs that don't set their own.
    pub watchdog: Duration,
    /// Grace after a watchdog cancellation before the worker is declared
    /// wedged.
    pub grace: Duration,
    /// Run at most this many sessions; the rest shed with
    /// [`ShedReason::SessionCap`]. `None` runs everything.
    pub session_cap: Option<usize>,
    /// Total memory budget: a session whose
    /// [`SessionSpec::estimated_bytes`] exceeds `budget / workers` sheds
    /// with [`ShedReason::MemoryBudget`]. `None` disables the check.
    pub memory_budget: Option<u64>,
    /// Fleet-layer flight recorder ([`Layer::Fleet`] records: `session`,
    /// `retry`, `shed`). Record *order* follows completion order and is
    /// not canonical; the reports are.
    pub trace: Trace,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: default_workers(),
            max_retries: 2,
            watchdog: Duration::from_secs(10),
            grace: Duration::from_secs(2),
            session_cap: None,
            memory_budget: None,
            trace: Trace::off(),
        }
    }
}

/// The default worker count: available parallelism minus one, floor 2.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().saturating_sub(1).max(2))
}

/// A compiled target shared by every session that debugs the same
/// `(arch, source)` pair: the linked image plus the bytecode-compiled
/// symbol tables. Compiling C and symbol tables is deterministic but not
/// free; at 10k sessions over a handful of distinct programs it is the
/// difference between seconds and minutes.
pub struct PreparedTarget {
    /// The linked program.
    pub image: Image,
    /// The compiled frame table (machine-dependent walker data).
    pub frame: Arc<ldb_core::CompiledModule>,
    /// The compiled per-module symbol tables.
    pub tables: Vec<CompiledTable>,
}

/// Compile `source` for `arch` once, interning symbol tables in `cache`.
///
/// # Errors
/// Compiler or table-compile failures, as a message.
pub fn prepare_target(
    arch: Arch,
    source: &str,
    cache: &ModuleCache,
) -> Result<PreparedTarget, String> {
    let p = compile_many(&[("target.c", source)], arch, CompileOpts::default())
        .map_err(|e| format!("compile: {e}"))?;
    let (frame_ps, modules) = program_load_plan(&p, PsMode::Deferred);
    let (frame, _hit) = cache.get_or_compile(&frame_ps).map_err(|e| format!("frame: {e}"))?;
    let tables = modules
        .into_iter()
        .map(|(name, ps)| {
            let (module, _hit) =
                cache.get_or_compile(&ps).map_err(|e| format!("table `{name}`: {e}"))?;
            Ok(CompiledTable { name, module })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PreparedTarget { image: p.linked.image, frame, tables })
}

/// The session builder for one attempt: spawn a fresh nub on the shared
/// prepared target, wrap the wire in the spec's fault injector (seed
/// bumped by `attempt` so the retry schedule is deterministic), arm the
/// chaos layer, and attach lazily — all on the session's worker thread.
fn attempt_builder(
    prepared: Arc<PreparedTarget>,
    chaos: Option<ChaosConfig>,
    fault: Option<FaultConfig>,
    attempt: u32,
    trace: Trace,
) -> SessionBuilder {
    Box::new(move |ldb| {
        ldb.set_trace(trace);
        let handle =
            spawn(&prepared.image, NubConfig { wait_at_pause: true, ..Default::default() });
        let wire = handle
            .connect_channel()
            .map_err(|e| LdbError::msg(format!("connect: {e}")))?;
        // A retried attempt replays against a *different* fault schedule
        // — that is what makes the fault transient — but a deterministic
        // one: seed + attempt, nothing drawn from the clock.
        let fault = fault.map(|mut cfg| {
            cfg.seed = cfg.seed.wrapping_add(u64::from(attempt));
            cfg
        });
        ldb.set_chaos(chaos);
        let client = ClientConfig {
            reply_timeout: Duration::from_secs(2),
            retries: 4,
            backoff: Duration::from_millis(1),
            event_poll: Duration::from_millis(100),
            jitter_seed: u64::from(attempt),
        };
        let source = TableSource::Compiled { frame: &prepared.frame, modules: &prepared.tables };
        ldb.attach(Box::new(wire), source, Some(handle), AttachOpts { client, fault })?;
        Ok(String::new())
    })
}

/// One attempt's raw result, before retry policy.
struct AttemptResult {
    outcome: FleetOutcome,
    transcript: String,
    health: Option<Health>,
    journal: Option<JournalCheck>,
}

fn cross_check(journal_text: &str, script: &str, health: &Health) -> JournalCheck {
    let mut check = JournalCheck {
        cmd_records: 0,
        commands_expected: ldb_core::command_count(script),
        panic_records: 0,
        panics_expected: health.quarantined_commands,
        parsed: true,
    };
    for line in journal_text.lines() {
        match ldb_trace::validate(line) {
            Ok(rec) if rec.layer == Layer::Dbg => match rec.kind.as_ref() {
                "cmd" => check.cmd_records += 1,
                "panic" => check.panic_records += 1,
                _ => {}
            },
            Ok(_) => {}
            Err(_) => check.parsed = false,
        }
    }
    check
}

/// Run one attempt of one spec under full supervision.
fn run_attempt(spec: &SessionSpec, prepared: &Arc<PreparedTarget>, cfg: &FleetConfig, attempt: u32) -> AttemptResult {
    let (trace, journal) = Trace::to_shared_buffer(TraceConfig::default());
    let session_cfg = SessionConfig {
        watchdog: Some(spec.watchdog.unwrap_or(cfg.watchdog)),
        grace: cfg.grace,
        detach_deadline: Duration::from_millis(200),
    };
    let builder =
        attempt_builder(Arc::clone(prepared), spec.chaos.clone(), spec.fault.clone(), attempt, trace);
    let mut session = match Session::open(session_cfg, builder) {
        Ok(s) => s,
        Err(e) => {
            // A failed open is a script error at fleet level: the target
            // never ran, there is nothing transient about it.
            return AttemptResult {
                outcome: FleetOutcome::ScriptError,
                transcript: format!("error: open failed: {e}\n"),
                health: None,
                journal: None,
            };
        }
    };
    let (transcript, outcome) = match session.run_classified(&spec.script) {
        Ok((transcript, outcome)) => (transcript, Some(outcome)),
        Err(SessionError::Wedged) => {
            // The cancelled command missed the grace deadline: the
            // worker is desynchronized and can answer nothing more.
            let _ = session.close(CloseReason::Wedged);
            return AttemptResult {
                outcome: FleetOutcome::Wedged,
                transcript: "error: session wedged (grace deadline missed)\n".to_string(),
                health: None,
                journal: None,
            };
        }
        Err(e) => {
            let _ = session.close(CloseReason::ClientRequest);
            return AttemptResult {
                outcome: FleetOutcome::ScriptError,
                transcript: format!("error: {e}\n"),
                health: None,
                journal: None,
            };
        }
    };
    let health = session.health().ok();
    let _ = session.close(CloseReason::ClientRequest);
    // The supervisor's refinement: a watchdog cancellation anywhere in
    // the script makes the session wedged, whatever the transcript says.
    let outcome = match (&health, outcome) {
        (Some(h), _) if h.watchdog_timeouts > 0 => FleetOutcome::Wedged,
        (_, Some(BatchOutcome::Clean)) => FleetOutcome::Clean,
        (_, Some(BatchOutcome::ScriptError)) => FleetOutcome::ScriptError,
        (_, Some(BatchOutcome::PanicQuarantined)) => FleetOutcome::PanicQuarantined,
        (_, Some(BatchOutcome::WireLost)) => FleetOutcome::WireLost,
        (_, None) => FleetOutcome::Wedged,
    };
    let journal = health.as_ref().map(|h| cross_check(&journal.text(), &spec.script, h));
    AttemptResult { outcome, transcript, health, journal }
}

/// Run one spec through the full supervision-and-retry policy. Public so
/// the minimizer can re-execute a single session exactly as the fleet
/// would.
pub fn run_session(spec: &SessionSpec, prepared: &Arc<PreparedTarget>, cfg: &FleetConfig, id: u64) -> SessionResult {
    let started = Instant::now();
    let mut attempt = 0u32;
    loop {
        let r = run_attempt(spec, prepared, cfg, attempt);
        let transient = r.outcome == FleetOutcome::WireLost && spec.fault.is_some();
        if transient && attempt < cfg.max_retries {
            cfg.trace.emit(
                Layer::Fleet,
                Severity::Info,
                "retry",
                &[("session", id.into()), ("attempt", u64::from(attempt + 1).into())],
            );
            // Exponential backoff, bounded and tiny: the wire is an
            // in-process channel, the backoff exists to model the
            // policy, not to wait out real infrastructure.
            std::thread::sleep(Duration::from_millis(1 << attempt.min(6)));
            attempt += 1;
            continue;
        }
        let (bucket, bucket_key) = if r.outcome.is_bucketed() {
            let key =
                bucket::bucket_key(r.outcome.token(), &r.transcript, r.health.as_ref());
            (Some(bucket::bucket_id(&key)), Some(key))
        } else {
            (None, None)
        };
        cfg.trace.emit(
            Layer::Fleet,
            Severity::Info,
            "session",
            &[
                ("session", id.into()),
                ("outcome", r.outcome.token().into()),
                ("attempts", u64::from(attempt + 1).into()),
            ],
        );
        return SessionResult {
            id,
            name: spec.name.clone(),
            outcome: r.outcome,
            attempts: attempt + 1,
            retries: attempt,
            bucket,
            bucket_key,
            health: r.health,
            transcript: r.transcript,
            journal: r.journal,
            wall: started.elapsed(),
        };
    }
}

fn shed_result(id: u64, spec: &SessionSpec, reason: ShedReason, trace: &Trace) -> SessionResult {
    trace.emit(
        Layer::Fleet,
        Severity::Warn,
        "shed",
        &[("session", id.into()), ("reason", reason.token().into())],
    );
    SessionResult {
        id,
        name: spec.name.clone(),
        outcome: FleetOutcome::Shed(reason),
        attempts: 0,
        retries: 0,
        bucket: None,
        bucket_key: None,
        health: None,
        transcript: String::new(),
        journal: None,
        wall: Duration::ZERO,
    }
}

/// Errors preparing or running a fleet.
#[derive(Debug)]
pub enum FleetError {
    /// A spec's target failed to compile — the corpus itself is broken,
    /// so the whole run is refused rather than reported around.
    Prepare { spec: String, detail: String },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Prepare { spec, detail } => {
                write!(f, "preparing `{spec}`: {detail}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// Silence the default panic hook for `ldb-session` worker threads —
/// their panics are *corpus material*, deliberately provoked and always
/// quarantined; at 10k sessions the default hook would spray thousands
/// of backtraces over stderr. Panics on any other thread keep the full
/// default report. Installed once per process, never uninstalled (the
/// filter is inert when no fleet is running).
fn silence_session_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() != Some("ldb-session") {
                default(info);
            }
        }));
    });
}

/// Execute every spec across the worker pool and return results sorted
/// by session id (the spec's corpus index). Shedding decisions are made
/// up front, per spec, so they are identical on every run.
///
/// # Errors
/// [`FleetError::Prepare`] if any spec's target fails to compile.
pub fn run_fleet(cfg: &FleetConfig, specs: &[SessionSpec]) -> Result<Vec<SessionResult>, FleetError> {
    silence_session_panics();
    // Compile each distinct (arch, source) once, shared fleet-wide. The
    // module cache below them is shared too, so identical symbol tables
    // across programs also intern to one compile.
    let cache = ModuleCache::new();
    let mut targets: Vec<Arc<PreparedTarget>> = Vec::new();
    let mut keys: Vec<(Arch, String)> = Vec::new();
    let mut spec_target: Vec<usize> = Vec::with_capacity(specs.len());
    for spec in specs {
        let key = (spec.arch, spec.source.clone());
        let idx = match keys.iter().position(|k| *k == key) {
            Some(i) => i,
            None => {
                let prepared = prepare_target(spec.arch, &spec.source, &cache).map_err(|e| {
                    FleetError::Prepare { spec: spec.name.clone(), detail: e }
                })?;
                keys.push(key);
                targets.push(Arc::new(prepared));
                targets.len() - 1
            }
        };
        spec_target.push(idx);
    }

    let per_worker_budget = cfg.memory_budget.map(|b| b / cfg.workers.max(1) as u64);
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<usize>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<SessionResult>();
    let mut results: Vec<SessionResult> = Vec::with_capacity(specs.len());
    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            let targets = &targets;
            let spec_target = &spec_target;
            scope.spawn(move || {
                while let Ok(i) = job_rx.recv() {
                    let spec = &specs[i];
                    let id = i as u64;
                    let shed = match cfg.session_cap {
                        Some(cap) if i >= cap => Some(ShedReason::SessionCap),
                        _ => match per_worker_budget {
                            Some(b) if spec.estimated_bytes() > b => {
                                Some(ShedReason::MemoryBudget)
                            }
                            _ => None,
                        },
                    };
                    let result = match shed {
                        Some(reason) => shed_result(id, spec, reason, &cfg.trace),
                        None => run_session(spec, &targets[spec_target[i]], cfg, id),
                    };
                    if res_tx.send(result).is_err() {
                        return;
                    }
                }
            });
        }
        drop(res_tx);
        for i in 0..specs.len() {
            let _ = job_tx.send(i);
        }
        drop(job_tx);
        while let Ok(r) = res_rx.recv() {
            results.push(r);
        }
    });
    results.sort_by_key(|r| r.id);
    Ok(results)
}
