//! The flight-recorder journal is a *versioned format*, not incidental
//! debug output: every record a real session emits must parse under the
//! strict schema reader, re-encode to the exact bytes it came from, and
//! carry the current schema version. The reader must also be strict the
//! other way — records from the future (unknown version), records with
//! unknown or duplicate keys, and structurally illegal values are
//! rejected, so a replay tool can trust what it accepts.

mod common;

use ldb_suite::cc::driver::{compile_many, program_load_plan, CompileOpts};
use ldb_suite::cc::pssym::PsMode;
use ldb_suite::core::{script, Ldb, ModuleTable};
use ldb_suite::machine::Arch;
use ldb_suite::nub::{spawn, NubConfig};
use ldb_suite::trace::{validate, Layer, Severity, Trace, TraceConfig};

const SRC: &str = r#"
int square(int n) {
    return n * n;
}
int main(void) {
    int s;
    s = square(7);
    printf("%d\n", s);
    return 0;
}
"#;

/// A short session that makes all three layers talk: wire traffic from
/// attach and stepping, sandbox records from the module load, debugger
/// records from commands, plants, stops, and frame walks.
fn record_session(arch: Arch) -> String {
    let p = compile_many(&[("t.c", SRC)], arch, CompileOpts::default())
        .unwrap_or_else(|e| panic!("{arch}: compile: {e}"));
    let (trace, journal) = Trace::to_shared_buffer(TraceConfig::default());
    let mut ldb = Ldb::new();
    ldb.set_trace(trace.clone());
    common::attach_quiet(&mut ldb, &p).unwrap_or_else(|e| panic!("{arch}: attach: {e}"));
    script::run_script(&mut ldb, "b square\nc\np n\nbt\ns\nc\n");
    trace.flush();
    journal.text()
}

#[test]
fn every_record_from_a_real_session_round_trips() {
    for arch in Arch::ALL {
        let journal = record_session(arch);
        assert!(!journal.is_empty(), "{arch}: empty journal");
        let mut layers = [false; Layer::ALL.len()];
        for (i, line) in journal.lines().enumerate() {
            let rec = validate(line)
                .unwrap_or_else(|e| panic!("{arch}: line {i} fails the schema: {e}\n  {line}"));
            // Canonical encoding: parsing and re-encoding reproduces the
            // journal line byte for byte.
            assert_eq!(rec.to_json(), line, "{arch}: line {i} is not canonical");
            assert_eq!(rec.seq, i as u64 + 1, "{arch}: line {i}: non-dense seq");
            layers[rec.layer.idx()] = true;
        }
        // An in-process session exercises the three session layers; the
        // net layer belongs to the daemon's TCP edge and the fleet layer
        // to the `ldbfleet` supervisor, so neither speaks here.
        for l in [Layer::Wire, Layer::Ps, Layer::Dbg] {
            assert!(layers[l.idx()], "{arch}: layer {} never spoke: {layers:?}", l.name());
        }
    }
}

#[test]
fn cross_check_is_not_applicable_when_wire_debug_is_filtered() {
    // The info-trace cross-check counts Debug-level `send`/`retx` wire
    // records; with the wire layer's minimum severity above Debug those
    // are filtered, and the report must say so rather than compare the
    // truncated journal against WireMetrics and cry MISMATCH.
    let arch = Arch::Mips;
    let p = compile_many(&[("t.c", SRC)], arch, CompileOpts::default()).unwrap();
    let (frame_ps, modules) = program_load_plan(&p, PsMode::Deferred);
    let modules: Vec<ModuleTable> =
        modules.into_iter().map(|(name, ps)| ModuleTable { name, ps }).collect();
    let handle = spawn(&p.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = handle.connect_channel().unwrap();
    let trace = Trace::new(TraceConfig {
        min_sev: [
            Severity::Info,
            Severity::Debug,
            Severity::Debug,
            Severity::Debug,
            Severity::Debug,
        ],
        ..TraceConfig::default()
    });
    let mut ldb = Ldb::new();
    ldb.set_trace(trace.clone());
    ldb.attach_plan(Box::new(wire), &frame_ps, &modules, Some(handle)).unwrap();
    script::run_script(&mut ldb, "b square\nc\n");
    let report = script::trace_report(&ldb);
    assert!(report.contains("wire cross-check: n/a"), "unexpected report:\n{report}");
    assert!(!report.contains("MISMATCH"), "spurious mismatch:\n{report}");
}

#[test]
fn hand_built_records_encode_canonically() {
    let trace = Trace::ring(16);
    trace.emit(
        Layer::Wire,
        Severity::Debug,
        "send",
        &[("seq", 42u64.into()), ("req", "Fetch".into()), ("attempt", 0u64.into())],
    );
    trace.emit(Layer::Dbg, Severity::Info, "cmd", &[("text", "p \"x\\y\"".into())]);
    for rec in trace.tail(2) {
        let line = rec.to_json();
        let back = validate(&line).unwrap_or_else(|e| panic!("{e}\n  {line}"));
        assert_eq!(back, rec, "parse(to_json) must be the identity");
        assert_eq!(back.to_json(), line);
    }
}

#[test]
fn schema_rejects_malformed_and_foreign_records() {
    let good = r#"{"v":1,"seq":7,"layer":"wire","sev":"debug","kind":"send","fields":{"seq":42,"req":"Fetch","attempt":0,"len":18}}"#;
    let rec = validate(good).expect("the reference record is valid");
    assert_eq!(rec.to_json(), good);

    let bad: &[(String, &str)] = &[
        (good.replace("\"v\":1", "\"v\":2"), "future schema version"),
        (good.replace("\"v\":1,", ""), "missing version"),
        (good.replace("\"seq\":7,", ""), "missing seq"),
        (good.replace("\"layer\":\"wire\"", "\"layer\":\"disk\""), "unknown layer"),
        (good.replace("\"sev\":\"debug\"", "\"sev\":\"fatal\""), "unknown severity"),
        (good.replace("\"seq\":7", "\"seq\":7,\"extra\":1"), "unknown top-level key"),
        (good.replace("\"seq\":7", "\"seq\":7,\"seq\":8"), "duplicate top-level key"),
        (good.replace("\"seq\":42", "\"seq\":42,\"seq\":43"), "duplicate field key"),
        (good.replace("\"seq\":42", "\"seq\":[42]"), "nested container in fields"),
        (good.replace("\"seq\":42", "\"seq\":null"), "null field value"),
        (format!("{good}trailing"), "trailing garbage"),
        (good.replace("\"kind\":\"send\"", "\"kind\":7"), "non-string kind"),
        (String::new(), "empty line"),
    ];
    for (line, what) in bad {
        assert!(validate(line).is_err(), "schema accepted a record with {what}:\n  {line}");
    }
}
