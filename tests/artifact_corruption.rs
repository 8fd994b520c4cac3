//! Artifact corruption: symbol tables are compiler *artifacts*, shipped as
//! PostScript programs, and the debugger must treat them as untrusted
//! input. These tests take real cc-emitted tables for all four targets,
//! corrupt them in seeded, repeatable ways — bit flips, truncation, token
//! splicing, injected infinite loops, allocation bombs — and assert the
//! sandbox holds: the load never panics, never exceeds its budgets, the
//! corrupt module is quarantined with a typed error, and the healthy
//! modules still debug.
//!
//! Tables load lazily: a module that fails to *compile* (or lacks a
//! usable `/architecture` header) is quarantined at attach, while one
//! that only fails when *run* — a loop, an allocation bomb, a corruption
//! the scanner accepts — is admitted at attach and quarantined when a
//! command first forces the tables. Reason checks for run-time trips
//! therefore follow a forcing command ([`force_tables`]).

use ldb_suite::cc::driver::{compile_many, program_load_plan, CompileOpts, CompiledProgram};
use ldb_suite::cc::pssym::PsMode;
use ldb_suite::core::{Ldb, ModuleTable, PsBudgets, StopEvent};
use ldb_suite::machine::Arch;
use ldb_suite::nub::{spawn, NubConfig};
use ldb_suite::postscript::Budget;

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

/// Compile the two-unit program and split its loader table into the plan.
fn plan_for(arch: Arch) -> (CompiledProgram, String, Vec<ModuleTable>) {
    let p = compile_many(&[("lib.c", LIB_C), ("main.c", MAIN_C)], arch, CompileOpts::default())
        .unwrap_or_else(|e| panic!("{arch}: {e}"));
    let (frame, modules) = program_load_plan(&p, PsMode::Deferred);
    let modules = modules.into_iter().map(|(name, ps)| ModuleTable { name, ps }).collect();
    (p, frame, modules)
}

/// A tight budget so even the fuel-exhaustion cases finish in
/// milliseconds under an unoptimized test build. Real tables for these
/// programs load in well under 100k steps.
fn test_budgets() -> PsBudgets {
    PsBudgets {
        load: Budget { max_fuel: 300_000, max_alloc: 16 << 20, max_operands: 1 << 18 },
        interactive: Budget::INTERACTIVE,
    }
}

/// Attach a sandboxed session to a fresh nub running `p`.
fn attach(
    p: &CompiledProgram,
    frame: &str,
    modules: &[ModuleTable],
) -> Result<Ldb, String> {
    let handle = spawn(&p.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = handle.connect_channel().map_err(|e| e.to_string())?;
    let mut ldb = Ldb::new();
    ldb.set_ps_budgets(test_budgets());
    match ldb.attach_plan(Box::new(wire), frame, modules, Some(handle)) {
        Ok(_) => Ok(ldb),
        Err(e) => Err(e.to_string()),
    }
}

/// Plant a breakpoint on `main.c`'s `printf` line, after the loop. Line
/// lookups force every pending module, so run-time trips quarantine here.
fn force_tables(ldb: &mut Ldb, arch: Arch) {
    ldb.break_at_file_line("main.c", 12).unwrap_or_else(|e| panic!("{arch}: line breakpoint: {e}"));
}

/// A tiny deterministic generator (xorshift64*), so corruption is seeded
/// and repeatable without pulling in a random-number crate.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Flip a low bit in `count` pseudo-random bytes. Tables are ASCII, and
/// flipping only bits 0-4 keeps them ASCII (possibly control characters),
/// so the mutation stays a valid Rust string.
fn bit_flip(ps: &str, seed: u64, count: usize) -> String {
    let mut bytes = ps.as_bytes().to_vec();
    let mut rng = Rng(seed | 1);
    for _ in 0..count {
        let i = rng.below(bytes.len());
        bytes[i] ^= 1 << rng.below(5);
    }
    String::from_utf8(bytes).expect("ascii stays utf-8")
}

/// Cut the table off mid-stream.
fn truncate(ps: &str, seed: u64) -> String {
    let mut rng = Rng(seed | 1);
    let cut = ps.len() / 4 + rng.below(ps.len() / 2);
    ps[..cut].to_string()
}

/// Splice a run of tokens from one place into another — the "page from
/// another book" corruption: everything is still lexically valid
/// PostScript, but the structure is wrong.
fn splice(ps: &str, seed: u64) -> String {
    let mut rng = Rng(seed | 1);
    let words: Vec<&str> = ps.split_whitespace().collect();
    let mut out: Vec<&str> = Vec::with_capacity(words.len() + 32);
    let at = rng.below(words.len());
    let from = rng.below(words.len());
    let n = 8 + rng.below(24.min(words.len() - from).max(1));
    out.extend_from_slice(&words[..at]);
    out.extend_from_slice(&words[from..(from + n).min(words.len())]);
    out.extend_from_slice(&words[at..]);
    out.join(" ")
}

/// Append an unbounded loop after the table proper: the classic hang.
fn inject_loop(ps: &str, _seed: u64) -> String {
    format!("{ps}\n{{ }} loop\n")
}

/// Append an allocation bomb: each iteration copies the whole operand
/// stack, so both memory and stack depth grow without bound.
fn inject_alloc_bomb(ps: &str, _seed: u64) -> String {
    format!("{ps}\n1 {{ count copy }} loop\n")
}

/// Drive the surviving program a little: break in `main`, continue to the
/// breakpoint, and read a local through the full print path.
fn assert_main_debuggable(ldb: &mut Ldb, arch: Arch, tag: &str) {
    let addr = ldb
        .break_at("main", 1)
        .unwrap_or_else(|e| panic!("{arch}/{tag}: break in healthy module: {e}"));
    assert_ne!(addr, 0, "{arch}/{tag}");
    let ev = ldb.cont().unwrap_or_else(|e| panic!("{arch}/{tag}: continue: {e}"));
    assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}/{tag}: {ev:?}");
    let s = ldb.eval("s").unwrap_or_else(|e| panic!("{arch}/{tag}: eval s: {e}"));
    s.trim().parse::<i64>().unwrap_or_else(|_| panic!("{arch}/{tag}: `s` printed as {s:?}"));
}

#[test]
fn seeded_corruptions_never_panic_and_quarantine_cleanly() {
    type Corruption = (&'static str, fn(&str, u64) -> String);
    let corruptions: [Corruption; 5] = [
        ("bitflip", |ps, seed| bit_flip(ps, seed, 12)),
        ("truncate", truncate),
        ("splice", splice),
        ("loop", inject_loop),
        ("allocbomb", inject_alloc_bomb),
    ];
    for arch in Arch::ALL {
        for (tag, mutate) in corruptions {
            for seed in [3, 17, 40] {
                let (p, frame, mut modules) = plan_for(arch);
                // Corrupt the library unit; main stays healthy.
                modules[0].ps = mutate(&modules[0].ps, seed);
                let mut ldb = match attach(&p, &frame, &modules) {
                    Ok(ldb) => ldb,
                    Err(e) => panic!(
                        "{arch}/{tag}/{seed}: attach must survive one corrupt module: {e}"
                    ),
                };
                // Debugging main forces every table, so run-time trips
                // are quarantined by the time the reasons are read.
                assert_main_debuggable(&mut ldb, arch, tag);
                // Either the mutation was harmless (a bit flip inside a
                // string literal) and everything loaded, or the module is
                // quarantined with its provenance in the reason.
                let q = ldb.quarantined_modules();
                assert!(q.len() <= 1, "{arch}/{tag}/{seed}: {q:?}");
                if let Some((module, reason)) = q.first() {
                    assert_eq!(module, "lib.c", "{arch}/{tag}/{seed}");
                    assert!(
                        reason.contains("lib.c"),
                        "{arch}/{tag}/{seed}: reason lacks provenance: {reason}"
                    );
                }
            }
        }
    }
}

#[test]
fn injected_infinite_loop_times_out_and_is_quarantined() {
    for arch in Arch::ALL {
        let (p, frame, mut modules) = plan_for(arch);
        modules[0].ps = inject_loop(&modules[0].ps, 0);
        let mut ldb = attach(&p, &frame, &modules).unwrap_or_else(|e| panic!("{arch}: {e}"));
        force_tables(&mut ldb, arch);
        let q = ldb.quarantined_modules();
        assert_eq!(q.len(), 1, "{arch}: {q:?}");
        assert!(
            q[0].1.contains("timeout") && q[0].1.contains("fuel"),
            "{arch}: want a typed fuel error, got: {}",
            q[0].1
        );
        // Referencing the quarantined module's symbols says why.
        let err = ldb.break_at("clamp", 0).unwrap_err().to_string();
        assert!(err.contains("quarantined"), "{arch}: {err}");
        assert_main_debuggable(&mut ldb, arch, "loop");
    }
}

#[test]
fn allocation_bomb_trips_a_budget_error_not_the_host() {
    for arch in Arch::ALL {
        let (p, frame, mut modules) = plan_for(arch);
        modules[0].ps = inject_alloc_bomb(&modules[0].ps, 0);
        let mut ldb = attach(&p, &frame, &modules).unwrap_or_else(|e| panic!("{arch}: {e}"));
        force_tables(&mut ldb, arch);
        let q = ldb.quarantined_modules();
        assert_eq!(q.len(), 1, "{arch}: {q:?}");
        // The bomb dies on whichever budget it hits first (bytes, stack
        // entries, or fuel) — all typed, none host-fatal.
        let r = &q[0].1;
        assert!(
            r.contains("vmerror") || r.contains("budget") || r.contains("timeout"),
            "{arch}: want a typed budget error, got: {r}"
        );
    }
}

#[test]
fn every_module_corrupt_fails_the_attach_with_reasons() {
    let arch = Arch::Mips;
    let (p, frame, mut modules) = plan_for(arch);
    for m in &mut modules {
        m.ps = truncate(&m.ps, 9);
    }
    let err = match attach(&p, &frame, &modules) {
        Ok(_) => panic!("attach must fail when every module is quarantined"),
        Err(e) => e,
    };
    assert!(err.contains("quarantined"), "{err}");
    assert!(err.contains("lib.c") && err.contains("main.c"), "{err}");
}

#[test]
fn reload_retries_quarantined_modules() {
    for arch in [Arch::Mips, Arch::Vax] {
        let (p, frame, mut modules) = plan_for(arch);
        // A table that is *valid but over the tight fuel budget*: burn
        // fuel with a long no-op loop before the real table. Raising the
        // budget and reloading must then succeed.
        modules[0].ps = format!("0 1 200000 {{ pop }} for\n{}", modules[0].ps);
        let mut ldb = attach(&p, &frame, &modules).unwrap_or_else(|e| panic!("{arch}: {e}"));
        force_tables(&mut ldb, arch);
        assert_eq!(ldb.quarantined_modules().len(), 1, "{arch}");
        assert!(ldb.break_at("clamp", 0).is_err(), "{arch}");

        // Same budget: the retry fails the same way and stays quarantined.
        let rows = ldb.reload_modules().unwrap();
        assert_eq!(rows.len(), 1, "{arch}");
        assert!(rows[0].1.is_err(), "{arch}: {rows:?}");
        assert_eq!(ldb.quarantined_modules().len(), 1, "{arch}");

        // Generous budget: the module loads and its symbols come back.
        ldb.set_ps_limits(Some(50_000_000), None);
        let rows = ldb.reload_modules().unwrap();
        assert_eq!(rows.len(), 1, "{arch}");
        assert!(rows[0].1.is_ok(), "{arch}: {rows:?}");
        assert!(ldb.quarantined_modules().is_empty(), "{arch}");
        let addr = ldb.break_at("clamp", 0).unwrap_or_else(|e| panic!("{arch}: {e}"));
        assert_ne!(addr, 0, "{arch}");
        let ev = ldb.cont().unwrap_or_else(|e| panic!("{arch}: {e}"));
        assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
    }
}

#[test]
fn default_limits_stop_an_unbounded_loop_in_bounded_time() {
    // One arch, stock budgets: the acceptance criterion is that the
    // default profile — not just a test-tightened one — terminates a
    // hostile table with a typed error.
    let arch = Arch::Mips;
    let (p, frame, mut modules) = plan_for(arch);
    modules[0].ps = inject_loop(&modules[0].ps, 0);
    let handle = spawn(&p.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = handle.connect_channel().unwrap();
    let mut ldb = Ldb::new(); // default PsBudgets
    let started = std::time::Instant::now();
    ldb.attach_plan(Box::new(wire), &frame, &modules, Some(handle)).unwrap();
    force_tables(&mut ldb, arch);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(120),
        "fuel budget did not bound the load: {:?}",
        started.elapsed()
    );
    let q = ldb.quarantined_modules();
    assert_eq!(q.len(), 1);
    assert!(q[0].1.contains("timeout"), "{}", q[0].1);
}

#[test]
fn runtime_failure_is_admitted_at_connect_and_quarantined_on_first_force() {
    let arch = Arch::Sparc;
    let (p, frame, mut modules) = plan_for(arch);
    modules[0].ps = inject_loop(&modules[0].ps, 0);
    let mut ldb = attach(&p, &frame, &modules).unwrap_or_else(|e| panic!("{arch}: {e}"));
    // The table compiles and its header names the right architecture:
    // connect admits it without running it.
    assert!(ldb.quarantined_modules().is_empty(), "{:?}", ldb.quarantined_modules());
    force_tables(&mut ldb, arch);
    let q = ldb.quarantined_modules();
    assert_eq!(q.len(), 1, "{q:?}");
    assert_eq!(q[0].0, "lib.c");
    assert!(q[0].1.contains("timeout") && q[0].1.contains("lib.c"), "{}", q[0].1);
}

#[test]
fn compile_failure_is_quarantined_at_connect_with_provenance() {
    let arch = Arch::M68k;
    let (p, frame, mut modules) = plan_for(arch);
    // An unterminated string literal: the scanner, and so the compile,
    // rejects the table before anything runs.
    modules[0].ps = format!("{}\n(unterminated", modules[0].ps);
    let mut ldb = attach(&p, &frame, &modules).unwrap_or_else(|e| panic!("{arch}: {e}"));
    let q = ldb.quarantined_modules();
    assert_eq!(q.len(), 1, "{q:?}");
    assert!(q[0].1.contains("module lib.c near byte "), "{}", q[0].1);
    // Reloading compiles it again, and it fails the same way.
    let rows = ldb.reload_modules().unwrap();
    assert!(rows[0].1.as_ref().is_err_and(|r| r.contains("near byte")), "{rows:?}");
    assert_main_debuggable(&mut ldb, arch, "unterminated");
}
