//! Chaos soak: seeded corruption of everything the debugger reads from
//! target data memory — saved frame pointers, return addresses, globals,
//! pointed-to strings — across all four architectures (MIPS in both byte
//! orders), 40 seeds each: 200 hostile-target scenarios.
//!
//! The contract under chaos is *graceful degradation*, not correct
//! answers: every command terminates, no command panics (the crash-proof
//! loop must stay idle — zero quarantines means the layers below it held),
//! every truncated backtrace carries a typed reason, and `info health`
//! accounts for what the defensive layers absorbed.

mod common;

use ldb_suite::cc::driver::{compile_many, CompileOpts, CompiledProgram};
use ldb_suite::core::{script, ChaosConfig, Ldb};
use ldb_suite::machine::{Arch, ByteOrder};

const SRC: &str = r#"
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

/// Inspection-heavy script: stack walks, typed prints (including a char
/// pointer the PSTRING printer will chase through corrupted memory),
/// expression evaluation, stepping, registers, and the health report.
const SCRIPT: &str = "\
b clamp
c
bt
p calls
p p
e v * 2 + 1
s
bt
regs
info health
c
";

const SEEDS_PER_CONFIG: u64 = 40;
const RATE: f64 = 0.05;

fn compile_cfg(arch: Arch, order: Option<ByteOrder>) -> CompiledProgram {
    compile_many(&[("soak.c", SRC)], arch, CompileOpts { order, ..Default::default() })
        .unwrap_or_else(|e| panic!("{arch:?}: compile: {e}"))
}

/// One hostile session: attach with the chaos layer armed, run the
/// script, and return (transcript, the session's health counters).
fn run_chaos_session(name: &str, p: &CompiledProgram, seed: u64) -> (String, ldb_suite::core::Health) {
    let mut ldb = Ldb::new();
    ldb.set_chaos(Some(ChaosConfig { seed, rate: RATE, window: None }));
    common::attach_quiet(&mut ldb, p).unwrap_or_else(|e| panic!("{name} seed {seed}: attach: {e}"));
    let transcript = script::run_script(&mut ldb, SCRIPT);
    (transcript, ldb.health())
}

/// The soak proper for one configuration.
fn soak(name: &str, arch: Arch, order: Option<ByteOrder>) {
    let p = compile_cfg(arch, order);
    let mut corruptions = 0u64;
    let mut truncated = 0u64;
    for seed in 1..=SEEDS_PER_CONFIG {
        let (transcript, health) = run_chaos_session(name, &p, seed);
        // The crash-proof loop never had to fire: the layers below it
        // absorbed every corruption.
        assert_eq!(
            health.quarantined_commands, 0,
            "{name} seed {seed}: a command panicked\n{transcript}"
        );
        // Every truncated walk states a typed reason.
        for line in transcript.lines() {
            if let Some(reason) = line.strip_prefix("walk truncated: ") {
                assert!(
                    ["Cycle", "DepthCap", "BadFrame", "WireError"]
                        .iter()
                        .any(|k| reason.starts_with(k)),
                    "{name} seed {seed}: untyped truncation `{line}`"
                );
            }
        }
        assert!(
            transcript.contains("health: "),
            "{name} seed {seed}: no health report\n{transcript}"
        );
        corruptions += health.chaos_corruptions;
        truncated += health.walks_truncated;
    }
    // The chaos layer actually fired — a soak that corrupts nothing
    // proves nothing.
    assert!(corruptions > 0, "{name}: chaos layer never fired over {SEEDS_PER_CONFIG} seeds");
    // And at least one seed produced a walk the guard had to truncate.
    assert!(truncated > 0, "{name}: no walk was ever truncated — rate too low to exercise the guard?");
}

#[test]
fn chaos_soak_mips_little() {
    soak("mips-little", Arch::Mips, Some(ByteOrder::Little));
}

#[test]
fn chaos_soak_mips_big() {
    soak("mips-big", Arch::Mips, Some(ByteOrder::Big));
}

#[test]
fn chaos_soak_sparc() {
    soak("sparc", Arch::Sparc, None);
}

#[test]
fn chaos_soak_m68k() {
    soak("m68k", Arch::M68k, None);
}

#[test]
fn chaos_soak_vax() {
    soak("vax", Arch::Vax, None);
}

/// Chaos is deterministic: the same seed replays byte-identically (the
/// corruption schedule is part of the recorded session, so the flight
/// recorder can replay hostile sessions too).
#[test]
fn chaos_is_deterministic_per_seed() {
    let p = compile_cfg(Arch::M68k, None);
    let (t1, h1) = run_chaos_session("m68k-replay", &p, 7);
    let (t2, h2) = run_chaos_session("m68k-replay", &p, 7);
    assert_eq!(t1, t2, "same seed, different transcript");
    assert_eq!(h1, h2, "same seed, different health counters");
    // A different seed corrupts a different schedule.
    let (t3, _) = run_chaos_session("m68k-replay", &p, 8);
    assert_ne!(t1, t3, "different seeds produced identical transcripts (chaos inert?)");
}

/// One hostile time-travel session: run to the last breakpoint stop
/// before the program would end, then rewind — reverse-step twice,
/// re-step forward, reverse-continue, continue back. Returns a log of
/// every stop report and machine fingerprint plus the health counters.
///
/// The chaos layer corrupts what the *debugger* reads, never what the
/// machine executes, so the journaled corruption schedule replays
/// deterministically and rewinding a hostile session is exactly as
/// bit-identical as rewinding a healthy one.
fn run_rewind_session(name: &str, p: &CompiledProgram, seed: u64) -> (String, ldb_suite::core::Health) {
    use ldb_suite::core::script::report_stop;

    let mut ldb = Ldb::new();
    ldb.set_chaos(Some(ChaosConfig { seed, rate: RATE, window: None }));
    ldb.set_checkpoint_every(Some(50));
    common::attach_quiet(&mut ldb, p).unwrap_or_else(|e| panic!("{name} seed {seed}: attach: {e}"));
    let mut log = String::new();
    let mut put = |line: String| {
        log.push_str(&line);
        log.push('\n');
    };
    let fingerprint = |ldb: &mut Ldb| -> (u64, Vec<u8>) {
        (ldb.steps_retired().unwrap(), ldb.snapshot_bytes().unwrap())
    };
    ldb.break_at("clamp", 0).unwrap();
    // To the last stop: clamp is called ten times; stop at the tenth.
    for _ in 0..10 {
        put(report_stop(&ldb.cont_watch().unwrap()));
    }
    let last = fingerprint(&mut ldb);
    put(format!("last stop at step {}", last.0));
    // Rewind: two instructions back, two forward — bit-identical return.
    put(report_stop(&ldb.reverse_step_insn().unwrap()));
    put(report_stop(&ldb.reverse_step_insn().unwrap()));
    put(report_stop(&ldb.step_insn().unwrap()));
    put(report_stop(&ldb.step_insn().unwrap()));
    let again = fingerprint(&mut ldb);
    assert_eq!(last, again, "{name} seed {seed}: reverse-step round trip diverged");
    // And a whole breakpoint interval back and forward.
    put(report_stop(&ldb.reverse_cont().unwrap()));
    put(report_stop(&ldb.cont_watch().unwrap()));
    let again = fingerprint(&mut ldb);
    assert_eq!(last, again, "{name} seed {seed}: reverse-continue round trip diverged");
    (log, ldb.health())
}

/// Seeded last-stop rewinds under chaos, every architecture: zero
/// panics (no quarantined commands), deterministic per seed — the same
/// seed yields byte-identical logs and *exactly* equal health counters,
/// including the new checkpoint/restore accounting.
#[test]
fn chaos_rewinds_are_deterministic_and_exact() {
    for (name, arch, order) in [
        ("mips-little", Arch::Mips, Some(ByteOrder::Little)),
        ("mips-big", Arch::Mips, Some(ByteOrder::Big)),
        ("sparc", Arch::Sparc, None),
        ("m68k", Arch::M68k, None),
        ("vax", Arch::Vax, None),
    ] {
        let p = compile_cfg(arch, order);
        for seed in 1..=3 {
            let (log1, h1) = run_rewind_session(name, &p, seed);
            let (log2, h2) = run_rewind_session(name, &p, seed);
            assert_eq!(log1, log2, "{name} seed {seed}: rewind log diverged");
            assert_eq!(h1, h2, "{name} seed {seed}: health counters diverged");
            assert_eq!(h1.quarantined_commands, 0, "{name} seed {seed}: a command panicked");
            // Two reverse-steps restore once each; reverse-continue
            // restores once more (twice when its scan overshoots).
            assert!(h1.restores >= 3, "{name} seed {seed}: rewinds not counted: {h1:?}");
            assert!(h1.checkpoints_taken > 0, "{name} seed {seed}: no checkpoints: {h1:?}");
        }
    }
}

/// A deliberate panic inside a command is caught, journaled, counted, and
/// the session keeps answering: the crash-proof command loop end to end.
/// The panic is planted by poisoning the INT printer with a host operator
/// that panics, so a routine `p calls` blows up deep inside the
/// interpreter — about as far from the dispatch loop as a failure can be.
#[test]
fn panicking_command_is_quarantined_and_session_recovers() {
    let p = compile_cfg(Arch::M68k, None);
    let mut ldb = Ldb::new();
    common::attach_quiet(&mut ldb, &p).unwrap();
    ldb.interp.register("BOOM", |_| panic!("deliberate test panic"));
    let before = script::run_script(&mut ldb, "b clamp\nc\np calls");
    assert!(before.contains("calls = "), "{before}");
    // Shadow the INT printer in the top (unit) dictionary: every int
    // print now panics.
    ldb.interp.run_str("/INT { BOOM } def").unwrap();
    let err = script::run_command_guarded(&mut ldb, "p", "calls")
        .expect_err("a panicking print must be quarantined, not Ok");
    let msg = err.to_string();
    assert!(msg.contains("command quarantined"), "{msg}");
    assert!(msg.contains("deliberate test panic"), "{msg}");
    assert_eq!(ldb.health().quarantined_commands, 1);
    // Heal the printer (the shadowing definition survives recovery: the
    // unit dictionary is the target's own) and keep debugging.
    ldb.interp.run_str("/INT { pop Fetch32 cvs Put } def").unwrap();
    let after = script::run_script(&mut ldb, "p calls\nbt\ninfo health");
    assert!(after.contains("calls = "), "session dead after recovery:\n{after}");
    assert!(after.contains("#0 clamp"), "stack gone after recovery:\n{after}");
    assert!(after.contains("1 quarantined commands"), "{after}");
}
