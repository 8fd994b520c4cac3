//! Mid-script panic recovery: a command that panics inside the
//! interpreter must be quarantined — the script keeps running, the
//! transcript carries a typed error line, the health report books the
//! quarantine, and the flight recorder journals the panic.

mod common;

use ldb_suite::cc::driver::{compile_many, CompileOpts};
use ldb_suite::core::{script, Ldb};
use ldb_suite::machine::Arch;
use ldb_suite::trace::{Trace, TraceConfig};

const SRC: &str = r#"
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
    for (i = 0; i < 10; i++) s += clamp(i * 30);
    printf("%d\n", s);
    return 0;
}
"#;

/// Build an attached session for `arch`, with an optional shared trace.
fn attached_session(arch: Arch, trace: Option<Trace>) -> Ldb {
    let p = compile_many(&[("rec.c", SRC)], arch, CompileOpts::default())
        .unwrap_or_else(|e| panic!("{arch:?}: compile: {e}"));
    let mut ldb = Ldb::new();
    if let Some(t) = trace {
        ldb.set_trace(t);
    }
    common::attach_quiet(&mut ldb, &p).unwrap_or_else(|e| panic!("{arch:?}: attach: {e}"));
    ldb
}

/// Silence the panic hook's backtrace spray for the deliberate `__panic`
/// drills below, while leaving real test failures fully reported.
fn hush_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("drill") && msg != "first" && msg != "second" {
                prev(info);
            }
        }));
    });
}

#[test]
fn panic_mid_script_is_quarantined_and_script_continues() {
    hush_panics();
    let mut ldb = attached_session(Arch::Mips, None);
    let transcript =
        script::run_script(&mut ldb, "b clamp\nc\n__panic recovery drill\np calls\nbt\nc\n");

    // The panicking command produced a typed error line, not a crash.
    assert!(
        transcript.contains("error: command quarantined (internal panic: recovery drill)"),
        "missing quarantine line:\n{transcript}"
    );
    // Commands *after* the panic still ran and produced real output.
    assert!(transcript.contains("calls = 0"), "post-panic `p calls` lost:\n{transcript}");
    assert!(transcript.contains("#0 clamp"), "post-panic `bt` lost:\n{transcript}");
    // The health ledger booked exactly the one quarantine.
    assert_eq!(ldb.health().quarantined_commands, 1, "\n{transcript}");
    // The outcome classifier sees the quarantine (wire stayed up).
    let outcome = script::BatchOutcome::classify(&ldb, &transcript);
    assert_eq!(outcome, script::BatchOutcome::PanicQuarantined);
    assert_eq!(outcome.exit_code(), 4);
}

#[test]
fn repeated_panics_each_quarantine_independently() {
    hush_panics();
    let mut ldb = attached_session(Arch::Sparc, None);
    let transcript = script::run_script(
        &mut ldb,
        "b clamp\nc\n__panic first\np calls\n__panic second\np calls\nc\n",
    );
    assert!(transcript.contains("internal panic: first"), "{transcript}");
    assert!(transcript.contains("internal panic: second"), "{transcript}");
    assert_eq!(ldb.health().quarantined_commands, 2, "\n{transcript}");
    // Both `p calls` commands (after each panic) still answered.
    assert_eq!(transcript.matches("calls = 0").count(), 2, "{transcript}");
}

#[test]
fn panic_recovery_is_journaled() {
    hush_panics();
    let (trace, buf) = Trace::to_shared_buffer(TraceConfig::default());
    let mut ldb = attached_session(Arch::Vax, Some(trace.clone()));
    let script_text = "b clamp\nc\n__panic journal drill\np calls\nc\n";
    let transcript = script::run_script(&mut ldb, script_text);
    assert_eq!(ldb.health().quarantined_commands, 1, "\n{transcript}");
    drop(ldb);
    trace.flush();

    let journal = String::from_utf8(buf.contents()).expect("journal is UTF-8");
    let mut cmd_records = 0u64;
    let mut panic_records = 0u64;
    for line in journal.lines() {
        let rec = ldb_suite::trace::validate(line)
            .unwrap_or_else(|e| panic!("invalid journal line: {e}\n{line}"));
        if rec.layer == ldb_suite::trace::Layer::Dbg && rec.kind == "cmd" {
            cmd_records += 1;
        }
        if rec.layer == ldb_suite::trace::Layer::Dbg && rec.kind == "panic" {
            panic_records += 1;
        }
    }
    // One `cmd` record per scripted command, one `panic` record for the
    // quarantined one: the journal cross-checks the transcript.
    assert_eq!(cmd_records, script::command_count(script_text), "\n{journal}");
    assert_eq!(panic_records, 1, "\n{journal}");
}

/// Raw PostScript from `ps` runs under the interactive budget, like
/// printers and `e`: a runaway loop becomes a typed `timeout` error line
/// once the interactive fuel is spent, and the session stays usable.
#[test]
fn runaway_ps_dies_on_the_interactive_budget() {
    let mut ldb = attached_session(Arch::Mips, None);
    let transcript = script::run_script(&mut ldb, "b clamp\nc\nps {} loop\np calls\nps 1 2 add\n");
    let fuel = ldb.ps_budgets().interactive.max_fuel;
    assert!(
        transcript.contains(&format!(
            "(ldb) ps {{}} loop\nerror: timeout: execution fuel exhausted ({fuel} steps)\n"
        )),
        "\n{transcript}"
    );
    assert!(transcript.contains("(ldb) p calls\ncalls = 0\n"), "\n{transcript}");
    assert!(transcript.ends_with("(ldb) ps 1 2 add\n3\n"), "\n{transcript}");
    assert_eq!(ldb.interp.budget_stats().budget_trips, 1);
}
