//! Deterministic record/replay for the session flight recorder.
//!
//! A recorded session is a command script plus the seeds that make the
//! simulated machine, the compiler, and the wire deterministic. Replay is
//! running the script again: same stops, same prints, same journal. These
//! tests drive a canonical session on every architecture (MIPS in both
//! byte orders) with the recorder in logical-clock mode and check that
//!
//!  1. two runs of the same session produce *byte-identical* transcripts
//!     and *byte-identical* JSONL journals,
//!  2. both match the golden copies recorded under `tests/golden/`
//!     (re-record with `REPLAY_BLESS=1 cargo test --test replay_golden`),
//!  3. the journal agrees with the client's own `WireMetrics` — every
//!     transaction appears as a `send` record, and
//!  4. every journal line round-trips through the strict schema parser.
//!
//! Determinism requires keeping timing-dependent wire traffic out of the
//! session: the client config uses a long reply timeout (no retransmits
//! on an in-process channel) and a long event poll (no keepalive pings).

mod common;

use ldb_suite::cc::driver::{compile_many, CompileOpts};
use ldb_suite::core::{script, Ldb};
use ldb_suite::machine::{Arch, ByteOrder};
use ldb_suite::trace::{validate, Layer, Trace, TraceConfig};

const LIB_C: &str = r#"
static int calls;
static int limit = 100;
int clamp(int v) {
    calls++;
    if (v > limit) return limit;
    return v;
}
int lib_calls(void) { return calls; }
"#;

const MAIN_C: &str = r#"
static int calls;
int clamp(int v);
int lib_calls(void);
int main(void) {
    int i; int s;
    s = 0;
    for (i = 0; i < 10; i++) {
        calls = calls + 2;
        s += clamp(i * 30);
    }
    printf("%d %d %d\n", s, lib_calls(), calls);
    return 0;
}
"#;

/// The canonical session: plant, run, inspect data and stack, step three
/// ways, and read back the recorder's own self-report. Every command's
/// output lands in the transcript; every command, stop, frame walk, and
/// wire frame lands in the journal.
const SCRIPT: &str = "\
# canonical flight-recorder session
b clamp
c
bt
p v
p calls
e v * 2 + 1
s
n
f 0
regs
fin
c
info wire
info trace
";

/// Architectures under test: all four, MIPS in both byte orders.
const CONFIGS: &[(&str, Arch, Option<ByteOrder>)] = &[
    ("mips-big", Arch::Mips, Some(ByteOrder::Big)),
    ("mips-little", Arch::Mips, Some(ByteOrder::Little)),
    ("sparc", Arch::Sparc, None),
    ("m68k", Arch::M68k, None),
    ("vax", Arch::Vax, None),
];

/// Run the canonical session once; return (transcript, journal).
fn run_session(name: &str, arch: Arch, order: Option<ByteOrder>) -> (String, String) {
    let p = compile_many(
        &[("lib.c", LIB_C), ("main.c", MAIN_C)],
        arch,
        CompileOpts { order, ..Default::default() },
    )
    .unwrap_or_else(|e| panic!("{name}: compile: {e}"));

    // Logical clock (no `t` field): timestamps are the one thing two
    // identical runs cannot reproduce.
    let (trace, journal) = Trace::to_shared_buffer(TraceConfig::default());
    let mut ldb = Ldb::new();
    ldb.set_trace(trace.clone());
    common::attach_quiet(&mut ldb, &p).unwrap_or_else(|e| panic!("{name}: attach: {e}"));
    let transcript = script::run_script(&mut ldb, SCRIPT);

    // Journal-vs-metrics cross-check: every wire transaction the client
    // counted must appear in the journal exactly once as a first-attempt
    // send (send + send_err - retx), and retransmit counts must agree.
    let m = ldb.target(0).client.borrow().metrics();
    let sends = trace.kind_count(Layer::Wire, "send");
    let send_errs = trace.kind_count(Layer::Wire, "send_err");
    let retx = trace.kind_count(Layer::Wire, "retx");
    assert_eq!(sends + send_errs - retx, m.transactions, "{name}: journal vs transactions");
    assert_eq!(retx, m.retransmits, "{name}: journal vs retransmits");
    assert!(transcript.contains("(consistent)"), "{name}: info trace reported a mismatch");

    trace.flush();
    (transcript, journal.text())
}

fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// Compare `got` against the golden copy, or re-record it under
/// `REPLAY_BLESS=1`.
fn check_golden(name: &str, kind: &str, file: &str, got: &str) {
    let path = golden_path(file);
    if std::env::var_os("REPLAY_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: no golden {kind} at {}: {e} (bless with REPLAY_BLESS=1)", path.display()));
    assert_eq!(got, want, "{name}: {kind} diverged from {} (re-record with REPLAY_BLESS=1 if the change is intended)", path.display());
}

#[test]
fn record_replay_is_bit_identical_and_matches_goldens() {
    for &(name, arch, order) in CONFIGS {
        let (transcript1, journal1) = run_session(name, arch, order);
        let (transcript2, journal2) = run_session(name, arch, order);
        assert_eq!(transcript1, transcript2, "{name}: replayed transcript diverged");
        assert_eq!(journal1, journal2, "{name}: replayed journal diverged");

        // Every journal line obeys the versioned schema and no line is
        // empty; sequence numbers are dense from 1.
        for (i, line) in journal1.lines().enumerate() {
            let rec = validate(line).unwrap_or_else(|e| panic!("{name}: journal line {i}: {e}"));
            assert_eq!(rec.seq, i as u64 + 1, "{name}: journal line {i}: seq gap");
            assert!(rec.t_us.is_none(), "{name}: wall-clock timestamp in logical-clock mode");
        }
        // All three layers spoke: the wire moved frames, the sandbox
        // loaded modules, the debugger journaled commands and stops.
        for layer in [Layer::Wire, Layer::Ps, Layer::Dbg] {
            assert!(
                journal1.contains(&format!("\"layer\":\"{}\"", layer.name())),
                "{name}: no {} records in the journal",
                layer.name()
            );
        }

        check_golden(name, "transcript", &format!("replay_{name}.txt"), &transcript1);
        check_golden(name, "journal", &format!("replay_{name}.jsonl"), &journal1);
    }
}
