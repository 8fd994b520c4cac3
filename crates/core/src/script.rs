//! A deterministic command-script runner over [`Ldb`] — the replay half
//! of the flight recorder.
//!
//! A recorded session is a command script plus the seeds that make the
//! simulated machines, the compiler, and any injected faults
//! deterministic. Replaying is therefore just running the script again:
//! [`run_script`] executes a newline-separated command list against a
//! live session and returns the transcript it produced, journaling every
//! command as a [`Layer::Dbg`] `cmd` record on the way. With the
//! recorder in logical-clock mode, running the same script twice against
//! identically-seeded targets yields byte-identical transcripts *and*
//! byte-identical journals — which is exactly what the
//! `tests/replay_golden.rs` harness checks on all four architectures.
//!
//! Commands come from the one [command table](crate::commands) the
//! interactive CLI, `ldbd`, and `ldbfleet` share, with output formats
//! chosen to be stable and machine-diffable rather than chatty.

use ldb_trace::{Layer, Severity};

use crate::debugger::Ldb;
use crate::motion::StopEvent;
use crate::LdbError;

/// Render a stop event as one transcript line (the script runner's
/// analog of the CLI's stop report).
pub fn report_stop(ev: &StopEvent) -> String {
    match ev {
        StopEvent::Paused => "paused before main".to_string(),
        StopEvent::Attached => "attached".to_string(),
        StopEvent::Breakpoint { func, line, addr } => {
            format!("breakpoint in {func} at line {line} ({addr:#x})")
        }
        StopEvent::Stepped { func, line, addr } => {
            format!("stepped: {func} line {line} ({addr:#x})")
        }
        StopEvent::Watchpoint { name, old, new, func, line, addr } => {
            format!("watchpoint: {name} changed {old} -> {new} in {func} at line {line} ({addr:#x})")
        }
        StopEvent::Fault { sig, code } => format!("fault: {sig} (code {code:#x})"),
        StopEvent::Exited(status) => format!("target exited with status {status}"),
    }
}

/// Summed wire metrics over every attached target.
pub(crate) fn total_metrics(ldb: &Ldb) -> ldb_nub::WireMetrics {
    let mut m = ldb_nub::WireMetrics::default();
    for id in 0..ldb.target_count() {
        let t = ldb.target(id).client.borrow().metrics();
        m.transactions += t.transactions;
        m.retransmits += t.retransmits;
        m.bytes_sent += t.bytes_sent;
        m.bytes_received += t.bytes_received;
    }
    m
}

/// The `info trace` report: per-layer record counts, per-kind counts,
/// and the journal-vs-[`WireMetrics`](ldb_nub::WireMetrics) consistency
/// check. Every frame the client puts on the wire appears in the journal
/// as a `send` (or `send_err`) record and every retransmission as a
/// `retx`, so `transactions = send + send_err - retx` must hold exactly.
pub fn trace_report(ldb: &Ldb) -> String {
    let trace = ldb.trace();
    if !trace.is_on() {
        return "trace: off (start with --trace FILE, or Ldb::set_trace)".to_string();
    }
    let c = trace.counts();
    // The fleet layer only speaks in fleet-runner journals; solo sessions
    // keep the four-layer line (and their pinned golden transcripts).
    let fleet = if c.fleet > 0 { format!(", fleet {}", c.fleet) } else { String::new() };
    let mut out = format!(
        "trace: {} records (wire {}, ps {}, dbg {}, net {}{fleet})\n",
        c.total(),
        c.wire,
        c.ps,
        c.dbg,
        c.net
    );
    for (layer, kind, n) in trace.kind_counts() {
        out.push_str(&format!("  {}/{kind} {n}\n", layer.name()));
    }
    // The cross-check counts `send`/`retx` records, which the client
    // emits at Debug; with the wire layer's minimum severity above that
    // they are filtered out of the journal, so the comparison against
    // WireMetrics would report a spurious mismatch.
    if trace.min_sev(Layer::Wire).is_some_and(|s| s > Severity::Debug) {
        out.push_str("wire cross-check: n/a (wire debug records filtered by min severity)");
        return out;
    }
    let m = total_metrics(ldb);
    let sends = trace.kind_count(Layer::Wire, "send");
    let send_errs = trace.kind_count(Layer::Wire, "send_err");
    let retx = trace.kind_count(Layer::Wire, "retx");
    let txns = (sends + send_errs).saturating_sub(retx);
    let ok = txns == m.transactions && retx == m.retransmits;
    out.push_str(&format!(
        "wire cross-check: journal {txns} txns / {retx} retx, metrics {} txns / {} retx ({})",
        m.transactions,
        m.retransmits,
        if ok { "consistent" } else { "MISMATCH" }
    ));
    out
}

/// A short rendering of a caught panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one command through the [command table](crate::commands) under
/// `catch_unwind`: a residual panic anywhere in the command's
/// implementation quarantines that one command — journaled, counted in
/// `info health`, the session state re-validated — instead of killing
/// the loop. Every front end (the REPL, `--script`, `ldbd`, `ldbfleet`)
/// dispatches through here.
pub fn run_command_guarded(ldb: &mut Ldb, cmd: &str, rest: &str) -> Result<String, LdbError> {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::commands::dispatch(ldb, cmd, rest)
    }));
    match r {
        Ok(r) => r,
        Err(payload) => {
            let msg = panic_text(payload.as_ref());
            ldb.trace().emit(
                Layer::Dbg,
                Severity::Warn,
                "panic",
                &[("cmd", cmd.to_string().into()), ("msg", msg.clone().into())],
            );
            ldb.note_quarantined();
            ldb.recover_session();
            Err(LdbError::msg(format!("command quarantined (internal panic: {msg})")))
        }
    }
}

/// Run a newline-separated command script against `ldb`, returning the
/// transcript: each command echoed as `(ldb) <cmd>` followed by its
/// output. Blank lines and `#` comments are skipped. Errors become
/// `error: …` transcript lines rather than aborting the script — a
/// replayed session must reproduce its failures too.
pub fn run_script(ldb: &mut Ldb, script: &str) -> String {
    // One probe for the whole script: the per-command `cmd` record costs
    // an allocation (the command text), which a headless batch run with
    // tracing off — or filtered above Info — must not pay 10k times over.
    let journal_cmds = ldb.trace().enabled(Layer::Dbg, Severity::Info);
    let mut out = String::new();
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push_str("(ldb) ");
        out.push_str(line);
        out.push('\n');
        run_line_into(ldb, line, journal_cmds, &mut out);
    }
    out
}

/// Run one command line, returning its output as a transcript shows it
/// (without the echo): the command's text and a newline, nothing for
/// empty output, blank lines, and `#` comments, or an `error: …` line.
/// The interactive REPL runs every table command through here.
pub fn run_line(ldb: &mut Ldb, line: &str) -> String {
    let line = line.trim();
    let mut out = String::new();
    if !line.is_empty() && !line.starts_with('#') {
        let journal = ldb.trace().enabled(Layer::Dbg, Severity::Info);
        run_line_into(ldb, line, journal, &mut out);
    }
    out
}

fn run_line_into(ldb: &mut Ldb, line: &str, journal: bool, out: &mut String) {
    if journal {
        ldb.trace().emit(Layer::Dbg, Severity::Info, "cmd", &[("text", line.to_string().into())]);
    }
    let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    match run_command_guarded(ldb, cmd, rest) {
        Ok(text) => {
            if !text.is_empty() {
                out.push_str(&text);
                out.push('\n');
            }
        }
        Err(e) => {
            out.push_str(&format!("error: {e}\n"));
        }
    }
}

/// How many commands a script will execute: the non-blank, non-comment
/// lines — exactly the lines [`run_script`] dispatches (and journals as
/// `cmd` records when the recorder keeps Info). The fleet runner
/// cross-checks this count against each session's journal.
pub fn command_count(script: &str) -> u64 {
    script
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count() as u64
}

/// The typed outcome of a batch script run, as seen from *inside* the
/// session: what `ldb --script` turns into a process exit code and what
/// the fleet supervisor records per session (layering its own
/// supervisor-level outcomes — wedged, shed — on top).
///
/// Classification precedence is severity-ordered: a lost wire trumps a
/// quarantined panic trumps an ordinary script error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BatchOutcome {
    /// Every command ran and none reported an error.
    Clean,
    /// At least one command produced an `error:` transcript line (bad
    /// usage, failed lookup, watchdog cancellation, …).
    ScriptError,
    /// At least one command panicked and was quarantined by the
    /// crash-proof loop ([`run_command_guarded`]).
    PanicQuarantined,
    /// A target's wire was lost mid-script (the nub died or the fault
    /// injector severed the connection).
    WireLost,
}

impl BatchOutcome {
    /// The stable token used in fleet reports and journals.
    pub fn token(self) -> &'static str {
        match self {
            BatchOutcome::Clean => "clean",
            BatchOutcome::ScriptError => "script-error",
            BatchOutcome::PanicQuarantined => "panic-quarantined",
            BatchOutcome::WireLost => "wire-lost",
        }
    }

    /// The `ldb --script` process exit code: `0` clean, `3` script
    /// error, `4` panic quarantine, `5` wire loss. (`1` stays the CLI's
    /// internal-error exit and `2` its usage exit, so shells can tell a
    /// failed *session* from a failed *invocation*.)
    pub fn exit_code(self) -> i32 {
        match self {
            BatchOutcome::Clean => 0,
            BatchOutcome::ScriptError => 3,
            BatchOutcome::PanicQuarantined => 4,
            BatchOutcome::WireLost => 5,
        }
    }

    /// Classify a finished script run from the session state and the
    /// transcript it produced. Wire loss is read from the targets'
    /// disconnected flags, panics from the health quarantine counter, and
    /// plain errors from the transcript's `error:` lines.
    pub fn classify(ldb: &Ldb, transcript: &str) -> BatchOutcome {
        if ldb.any_disconnected() {
            return BatchOutcome::WireLost;
        }
        if ldb.health().quarantined_commands > 0 {
            return BatchOutcome::PanicQuarantined;
        }
        if transcript.lines().any(|l| l.starts_with("error: ")) {
            return BatchOutcome::ScriptError;
        }
        BatchOutcome::Clean
    }
}

impl std::fmt::Display for BatchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}
