//! Time travel, proven differentially: at any stop, `reverse-step; step`
//! and `reverse-continue; continue` must reproduce the machine state
//! *bit-identically*. The fingerprint is the nub's pristine snapshot
//! image — every CPU register, the step clock, and every dirty memory
//! page, with planted traps lifted — so byte equality of two images is
//! bit equality of two machines. The invariant is checked on all four
//! architectures (MIPS in both byte orders), at fixed stops and under
//! proptest over checkpoint spacing, step depth, and reverse depth.
//!
//! Rewinding past the oldest reachable checkpoint must be a typed
//! `reverse truncated: …` error, never a panic and never a wrong state.

mod common;

use std::cell::RefCell;

use ldb_suite::cc::driver::{compile_many, CompileOpts, CompiledProgram};
use ldb_suite::core::{Ldb, StopEvent};
use ldb_suite::machine::{Arch, ByteOrder};
use proptest::prelude::*;

/// A loop of calls with data traffic in both directions: enough control
/// flow that a handful of single-steps from any stop lands somewhere
/// interesting (call, return, branch, store).
const SRC: &str = r#"
char msg[16] = "hi there";
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
    printf("%d %d\n", s, calls);
    return 0;
}
"#;

/// Architectures under test: all four, MIPS in both byte orders.
const CONFIGS: &[(&str, Arch, Option<ByteOrder>)] = &[
    ("mips-big", Arch::Mips, Some(ByteOrder::Big)),
    ("mips-little", Arch::Mips, Some(ByteOrder::Little)),
    ("sparc", Arch::Sparc, None),
    ("m68k", Arch::M68k, None),
    ("vax", Arch::Vax, None),
];

/// One compile per configuration per thread — the compiler is
/// deterministic, so every session sees the same image. (A process-wide
/// cache would want `Sync`, which the compiler's output types don't
/// promise.)
fn with_program<R>(idx: usize, f: impl FnOnce(&CompiledProgram) -> R) -> R {
    thread_local! {
        static CACHE: RefCell<Vec<Option<CompiledProgram>>> = const { RefCell::new(Vec::new()) };
    }
    CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() < CONFIGS.len() {
            c.resize_with(CONFIGS.len(), || None);
        }
        if c[idx].is_none() {
            let (name, arch, order) = CONFIGS[idx];
            c[idx] = Some(
                compile_many(
                    &[("rev.c", SRC)],
                    arch,
                    CompileOpts { order, ..Default::default() },
                )
                .unwrap_or_else(|e| panic!("{name}: compile: {e}")),
            );
        }
        f(c[idx].as_ref().unwrap())
    })
}

/// Attach a fresh session to configuration `idx`.
fn session(idx: usize) -> Ldb {
    with_program(idx, |p| attach(idx, p))
}

fn attach(idx: usize, p: &CompiledProgram) -> Ldb {
    let mut ldb = Ldb::new();
    common::attach_quiet(&mut ldb, p).unwrap_or_else(|e| panic!("{}: attach: {e}", CONFIGS[idx].0));
    ldb
}

/// The machine fingerprint at a stop: (step clock, pristine snapshot).
fn state(ldb: &mut Ldb, ctx: &str) -> (u64, Vec<u8>) {
    let steps = ldb.steps_retired().unwrap_or_else(|e| panic!("{ctx}: steps: {e}"));
    let image = ldb.snapshot_bytes().unwrap_or_else(|e| panic!("{ctx}: snapshot: {e}"));
    (steps, image)
}

fn assert_same_state(a: &(u64, Vec<u8>), b: &(u64, Vec<u8>), ctx: &str) {
    assert_eq!(a.0, b.0, "{ctx}: step clocks differ");
    assert_eq!(a.1, b.1, "{ctx}: snapshot images differ ({} vs {} bytes)", a.1.len(), b.1.len());
}

// ---------------------------------------------------------------------
// Fixed differential checks, every architecture.
// ---------------------------------------------------------------------

#[test]
fn reverse_step_then_step_is_identity_on_every_arch() {
    for (idx, &(name, ..)) in CONFIGS.iter().enumerate() {
        let mut ldb = session(idx);
        ldb.break_at("clamp", 0).unwrap();
        ldb.cont().unwrap();
        ldb.checkpoint_now().unwrap_or_else(|e| panic!("{name}: checkpoint: {e}"));
        for k in 0..6 {
            ldb.step_insn().unwrap_or_else(|e| panic!("{name}: step {k}: {e}"));
            let here = state(&mut ldb, name);
            let back =
                ldb.reverse_step_insn().unwrap_or_else(|e| panic!("{name} step {k}: rs: {e}"));
            assert!(
                !matches!(back, StopEvent::Exited(_)),
                "{name}: reverse-step reported an exit: {back:?}"
            );
            let (steps_back, _) = state(&mut ldb, name);
            assert_eq!(steps_back, here.0 - 1, "{name}: reverse-step must retire one step");
            ldb.step_insn().unwrap_or_else(|e| panic!("{name} step {k}: refwd: {e}"));
            let again = state(&mut ldb, name);
            assert_same_state(&here, &again, &format!("{name} after step {k}"));
        }
    }
}

#[test]
fn reverse_continue_then_continue_is_identity_on_every_arch() {
    for (idx, &(name, ..)) in CONFIGS.iter().enumerate() {
        let mut ldb = session(idx);
        ldb.break_at("clamp", 0).unwrap();
        // Checkpoint at every resume so each breakpoint hit is covered.
        ldb.set_checkpoint_every(Some(1_000_000));
        for _hit in 0..3 {
            match ldb.cont().unwrap() {
                StopEvent::Breakpoint { ref func, .. } if func == "clamp" => {}
                other => panic!("{name}: expected clamp hit, got {other:?}"),
            }
        }
        let here = state(&mut ldb, name);
        let back = ldb.reverse_cont().unwrap_or_else(|e| panic!("{name}: rc: {e}"));
        match back {
            StopEvent::Breakpoint { ref func, .. } if func == "clamp" => {}
            other => panic!("{name}: reverse-continue should land on the previous hit, got {other:?}"),
        }
        match ldb.cont().unwrap() {
            StopEvent::Breakpoint { ref func, .. } if func == "clamp" => {}
            other => panic!("{name}: re-continue: {other:?}"),
        }
        let again = state(&mut ldb, name);
        assert_same_state(&here, &again, &format!("{name} reverse-continue round trip"));
    }
}

#[test]
fn reverse_next_lands_on_an_earlier_line_on_every_arch() {
    for (idx, &(name, ..)) in CONFIGS.iter().enumerate() {
        let mut ldb = session(idx);
        ldb.break_at("clamp", 0).unwrap();
        ldb.cont().unwrap();
        ldb.checkpoint_now().unwrap();
        // Two source-level steps forward, one reverse-next: the stop must
        // replay to a strictly earlier step count, and stepping the line
        // again must land back where the second `n` did.
        ldb.step_over().unwrap_or_else(|e| panic!("{name}: n: {e}"));
        ldb.step_over().unwrap_or_else(|e| panic!("{name}: n2: {e}"));
        let here = state(&mut ldb, name);
        ldb.reverse_next().unwrap_or_else(|e| panic!("{name}: rn: {e}"));
        let (steps_back, _) = state(&mut ldb, name);
        assert!(steps_back < here.0, "{name}: reverse-next did not go backward");
        ldb.step_over().unwrap_or_else(|e| panic!("{name}: refwd n: {e}"));
        let again = state(&mut ldb, name);
        assert_same_state(&here, &again, &format!("{name} reverse-next round trip"));
    }
}

// ---------------------------------------------------------------------
// Typed truncation: past the oldest checkpoint is an error, not a panic.
// ---------------------------------------------------------------------

#[test]
fn reverse_without_checkpoints_is_a_typed_error() {
    for (idx, &(name, ..)) in CONFIGS.iter().enumerate() {
        let mut ldb = session(idx);
        ldb.break_at("clamp", 0).unwrap();
        ldb.cont().unwrap();
        let err = ldb.reverse_step_insn().unwrap_err().to_string();
        assert!(err.starts_with("reverse truncated: "), "{name}: untyped error `{err}`");
        // The failed rewind left the session usable.
        assert!(matches!(ldb.step_insn().unwrap(), StopEvent::Stepped { .. }), "{name}");
    }
}

#[test]
fn reverse_past_the_oldest_checkpoint_is_a_typed_error() {
    let mut ldb = session(0);
    ldb.break_at("clamp", 0).unwrap();
    ldb.cont().unwrap();
    ldb.checkpoint_now().unwrap();
    // At the checkpoint itself, one step earlier is out of reach.
    let err = ldb.reverse_step_insn().unwrap_err().to_string();
    assert!(err.starts_with("reverse truncated: "), "untyped error `{err}`");
    assert!(err.contains("oldest checkpoint"), "unexpected reason `{err}`");
}

#[test]
fn breakpoint_churn_invalidates_older_checkpoints() {
    let mut ldb = session(0);
    ldb.break_at("clamp", 0).unwrap();
    ldb.cont().unwrap();
    ldb.checkpoint_now().unwrap();
    ldb.step_insn().unwrap();
    // Changing the plant set changes what the checkpointed interval
    // would replay under: the old checkpoint must be refused, typed.
    let addr = ldb.break_at("main", 0).unwrap();
    let err = ldb.reverse_step_insn().unwrap_err().to_string();
    assert!(err.starts_with("reverse truncated: "), "untyped error `{err}`");
    assert!(err.contains("breakpoints changed"), "unexpected reason `{err}`");
    // A fresh checkpoint under the new plant set restores reverse reach.
    ldb.clear_breakpoint(addr).unwrap();
    ldb.checkpoint_now().unwrap();
    ldb.step_insn().unwrap();
    let here = state(&mut ldb, "churn");
    ldb.reverse_step_insn().unwrap();
    ldb.step_insn().unwrap();
    assert_same_state(&here, &state(&mut ldb, "churn"), "churn round trip");
}

// ---------------------------------------------------------------------
// Property: the identity holds at arbitrary depths and spacings.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// From a breakpoint stop, step `fwd` instructions with checkpoints
    /// every `every` steps, then rewind `back ≤ fwd` single steps and
    /// re-execute forward: the machine must pass through bit-identical
    /// states, and end bit-identical to where it started.
    #[test]
    fn reverse_forward_round_trip(
        idx in 0usize..CONFIGS.len(),
        every in 1u64..9,
        fwd in 1usize..24,
        back in 1usize..6,
    ) {
        let name = CONFIGS[idx].0;
        let mut ldb = session(idx);
        ldb.break_at("clamp", 0).unwrap();
        ldb.set_checkpoint_every(Some(every));
        ldb.cont().unwrap();
        ldb.checkpoint_now().unwrap();
        let mut trail: Vec<(u64, Vec<u8>)> = Vec::new();
        for _ in 0..fwd {
            ldb.step_insn().unwrap();
            trail.push(state(&mut ldb, name));
        }
        let back = back.min(fwd);
        for b in 1..=back {
            let ev = ldb.reverse_step_insn()
                .unwrap_or_else(|e| panic!("{name} fwd={fwd} back={b}: rs: {e}"));
            prop_assert!(!matches!(ev, StopEvent::Exited(_)), "{name}: rs exited");
        }
        for b in (0..back).rev() {
            ldb.step_insn().unwrap();
            let expect = &trail[fwd - 1 - b];
            let got = state(&mut ldb, name);
            prop_assert_eq!(&got.0, &expect.0, "{} step clock diverged", name);
            prop_assert_eq!(&got.1, &expect.1, "{} snapshot diverged", name);
        }
    }

    /// `reverse-continue; continue` from the `hit`-th breakpoint stop is
    /// the identity, for arbitrary checkpoint spacing.
    #[test]
    fn reverse_continue_round_trip(
        idx in 0usize..CONFIGS.len(),
        every in prop_oneof![Just(1u64), Just(7), Just(100), Just(1_000_000)],
        hits in 2usize..6,
    ) {
        let name = CONFIGS[idx].0;
        let mut ldb = session(idx);
        ldb.break_at("clamp", 0).unwrap();
        ldb.set_checkpoint_every(Some(every));
        for _ in 0..hits {
            match ldb.cont().unwrap() {
                StopEvent::Breakpoint { .. } => {}
                other => panic!("{name}: expected a hit, got {other:?}"),
            }
        }
        let here = state(&mut ldb, name);
        ldb.reverse_cont().unwrap_or_else(|e| panic!("{name} hits={hits}: rc: {e}"));
        let (steps_back, _) = state(&mut ldb, name);
        prop_assert!(steps_back < here.0, "{} reverse-continue went nowhere", name);
        match ldb.cont().unwrap() {
            StopEvent::Breakpoint { .. } => {}
            other => panic!("{name}: re-continue: {other:?}"),
        }
        let again = state(&mut ldb, name);
        prop_assert_eq!(&here.0, &again.0, "{} step clock diverged", name);
        prop_assert_eq!(&here.1, &again.1, "{} snapshot diverged", name);
    }

    /// Rewinding deeper than history reaches must end in a typed
    /// truncation — never a panic, never a silently wrong state.
    #[test]
    fn too_deep_reverse_is_typed_not_a_panic(
        idx in 0usize..CONFIGS.len(),
        fwd in 0usize..6,
    ) {
        let name = CONFIGS[idx].0;
        let mut ldb = session(idx);
        ldb.break_at("clamp", 0).unwrap();
        ldb.cont().unwrap();
        ldb.checkpoint_now().unwrap();
        for _ in 0..fwd {
            ldb.step_insn().unwrap();
        }
        // fwd steps of history exist; fwd+1 rewinds must hit the wall.
        let mut truncated = None;
        for _ in 0..=fwd {
            if let Err(e) = ldb.reverse_step_insn() {
                truncated = Some(e.to_string());
                break;
            }
        }
        let reason = truncated.unwrap_or_else(|| {
            ldb.reverse_step_insn().unwrap_err().to_string()
        });
        prop_assert!(
            reason.starts_with("reverse truncated: "),
            "{} untyped truncation `{}`", name, reason
        );
        // And the session still works forward.
        prop_assert!(!matches!(ldb.step_insn().unwrap(), StopEvent::Exited(_)), "{}", name);
    }
}
