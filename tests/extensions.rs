//! Tests for the paper's Sec. 7.1 future-work features that this
//! reproduction implements: single-step breakpoints (no no-ops needed),
//! the nub's step protocol extension, and the event-driven client
//! interface with conditional breakpoints.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::{nm, pssym};
use ldb_suite::core::{Events, Ldb, Outcome, StopEvent};
use ldb_suite::machine::Arch;

const COUNTDOWN: &str = r#"
int total;
int tick(int k) { total = total + k; return total; }
int main(void) {
    int i;
    for (i = 1; i <= 8; i++) tick(i);
    printf("%d\n", total);
    return 0;
}
"#;

fn session(arch: Arch, debug: bool) -> Ldb {
    let c = compile(
        "count.c",
        COUNTDOWN,
        arch,
        CompileOpts { debug, ..Default::default() },
    )
    .unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb
}

#[test]
fn single_step_breakpoints_work_without_noops() {
    // Compile WITHOUT -g no-ops: stopping-point addresses hold real
    // instructions. The paper's interim scheme cannot break here; the
    // single-step scheme can.
    for arch in Arch::ALL {
        let mut ldb = session(arch, false);
        // The nop-based scheme refuses (no no-op at the address).
        let addr = ldb.stop_address("tick", 1).unwrap();
        assert!(ldb.break_at("tick", 1).is_err(), "{arch}: nop scheme must refuse");
        // The single-step scheme plants over the real instruction.
        ldb.break_at_pc(addr).unwrap();
        let mut hits = 0;
        loop {
            match ldb.cont().unwrap() {
                StopEvent::Breakpoint { func, .. } => {
                    assert_eq!(func, "tick", "{arch}");
                    hits += 1;
                }
                StopEvent::Exited(0) => break,
                other => panic!("{arch}: {other:?}"),
            }
        }
        assert_eq!(hits, 8, "{arch}: the breakpoint re-arms after each single-step resume");
        let out = ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
        assert_eq!(out, "36\n", "{arch}: stepping must not corrupt execution");
    }
}

#[test]
fn step_instruction_by_instruction() {
    let mut ldb = session(Arch::Mips, true);
    ldb.break_at("tick", 0).unwrap();
    ldb.cont().unwrap();
    // Step a handful of instructions; the pc must advance monotonically
    // within tick (no branches at the function head).
    let mut last = 0;
    for _ in 0..4 {
        let ev = ldb.step_insn().unwrap();
        let StopEvent::Stepped { func, addr, .. } = ev else { panic!("{ev:?}") };
        assert_eq!(func, "tick");
        assert!(addr > last, "pc advances: {addr:#x} vs {last:#x}");
        last = addr;
    }
}

#[test]
fn conditional_breakpoints_via_the_event_interface() {
    let ldb = session(Arch::Vax, true);
    let mut events = Events::new(ldb);
    // Hold only when k == 5 (the 5th call).
    events.on_break_when("tick", 1, "k == 5").unwrap();
    let ev = events.run().unwrap();
    assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{ev:?}");
    assert_eq!(events.ldb.print_var("k").unwrap(), "5");
    assert_eq!(events.ldb.print_var("total").unwrap(), "10", "1+2+3+4");
    assert!(events.dispatched >= 5, "resumed through the earlier hits");
    // Resume to completion.
    let addr = events.ldb.target(0).breakpoints.addresses()[0];
    events.ldb.clear_breakpoint(addr).unwrap();
    assert_eq!(events.run().unwrap(), StopEvent::Exited(0));
}

#[test]
fn event_actions_can_mutate_the_target() {
    // A tracing action that also rewrites data mid-run: every call adds
    // 100 to k before the body runs.
    let ldb = session(Arch::M68k, true);
    let mut events = Events::new(ldb);
    events
        .on_break(
            "tick",
            1,
            Box::new(|ldb, _ev| {
                ldb.eval("k = k + 100")?;
                Ok(Outcome::Resume)
            }),
        )
        .unwrap();
    let ev = events.run().unwrap();
    assert_eq!(ev, StopEvent::Exited(0));
    let out = events.ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
    assert_eq!(out, "836\n", "36 + 8*100");
}

#[test]
fn fault_actions_fire() {
    let src = "int main(void) { int *p; p = 0; return *p; }";
    let c = compile("f.c", src, Arch::Sparc, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, Arch::Sparc, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    let mut events = Events::new(ldb);
    let seen = std::rc::Rc::new(std::cell::Cell::new(false));
    let seen2 = seen.clone();
    events.on_fault(Box::new(move |_ldb, ev| {
        assert!(matches!(ev, StopEvent::Fault { .. }));
        seen2.set(true);
        Ok(Outcome::Hold)
    }));
    let ev = events.run().unwrap();
    assert!(matches!(ev, StopEvent::Fault { .. }), "{ev:?}");
    assert!(seen.get());
}

#[test]
fn watch_scan_honours_breakpoint_conditions() {
    // A watched continue single-steps; a step that lands on a planted
    // breakpoint is a hit only when its condition holds. A false
    // condition steps past the plant, without reporting it, while the
    // watch keeps reporting every change.
    let mut ldb = session(Arch::Mips, true);
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    ldb.watch_var("total").unwrap();
    let addr = ldb.break_at("tick", 1).unwrap();
    ldb.set_break_condition(addr, Some("k == 3".into())).unwrap();
    let (mut hits, mut changes) = (0, 0);
    loop {
        match ldb.cont_watch().unwrap() {
            StopEvent::Breakpoint { func, .. } => {
                assert_eq!(func, "tick");
                assert_eq!(ldb.print_var("k").unwrap(), "3");
                hits += 1;
            }
            StopEvent::Watchpoint { .. } => changes += 1,
            StopEvent::Exited(0) => break,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!((hits, changes), (1, 8));
    let out = ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
    assert_eq!(out, "36\n");
}
