//! Whole-pipeline integration tests spanning every crate: compiler →
//! linker → nub → debugger → PostScript symbol tables → expression server.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::{nm, pssym};
use ldb_suite::core::{shared_module_cache, AttachOpts, Ldb, StopEvent};
use ldb_suite::machine::Arch;

/// A program exercising structs, pointers, floats, statics, recursion, and
/// sub-word data at once.
const KITCHEN_SINK: &str = r#"
struct acc { int count; double sum; };
struct acc global;
static short history[16];
char tag;

void record(struct acc *a, double v) {
    a->count = a->count + 1;
    a->sum = a->sum + v;
    history[a->count % 16] = (short)a->count;
}

double mean(struct acc *a) {
    if (a->count == 0) return 0.0;
    return a->sum / a->count;
}

int main(void) {
    int i;
    tag = 'm';
    for (i = 1; i <= 10; i++)
        record(&global, i * 1.5);
    printf("%d %g %c\n", global.count, mean(&global), tag);
    return 0;
}
"#;

fn debug_on(arch: Arch) -> Ldb {
    let c = compile("sink.c", KITCHEN_SINK, arch, CompileOpts::default())
        .unwrap_or_else(|e| panic!("{arch}: {e}"));
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb
}

#[test]
fn structs_floats_and_subword_data_on_all_targets() {
    for arch in Arch::ALL {
        let mut ldb = debug_on(arch);
        // Stop inside record() on its 4th call.
        ldb.break_at("record", 3).unwrap(); // history[...] = ...
        for _ in 0..4 {
            let ev = ldb.cont().unwrap();
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
        }
        // The struct printer walks fields through the abstract memory.
        let g = ldb.print_var("global").unwrap();
        assert_eq!(g, "{count=4, sum=15.0}", "{arch}: {g}");
        // Pointer parameter: prints as an address, dereferences in
        // expressions.
        assert_eq!(ldb.eval("a->count").unwrap(), "4", "{arch}");
        assert_eq!(ldb.eval("a->sum").unwrap(), "15.0", "{arch}");
        // Float expression arithmetic.
        assert_eq!(ldb.eval("v * 2.0").unwrap(), "12.0", "{arch}");
        // Sub-word static array (shorts) through the ARRAY printer.
        let h = ldb.print_var("history").unwrap();
        assert!(h.starts_with("{0, 1, 2, 3,"), "{arch}: {h}");
        // A char global, printed with quotes.
        assert_eq!(ldb.print_var("tag").unwrap(), "'m'", "{arch}");
        // Run to completion and verify the program's own output.
        let addr = ldb.target(0).breakpoints.addresses()[0];
        ldb.clear_breakpoint(addr).unwrap();
        assert_eq!(ldb.cont().unwrap(), StopEvent::Exited(0), "{arch}");
        let out = ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
        assert_eq!(out, "10 8.25 m\n", "{arch}");
    }
}

#[test]
fn assignment_through_expressions_changes_execution() {
    for arch in [Arch::Sparc, Arch::Vax] {
        let mut ldb = debug_on(arch);
        ldb.break_at("mean", 1).unwrap(); // the a->count == 0 test
        ldb.cont().unwrap();
        // Lie about the count: the mean changes.
        ldb.eval("a->count = 5").unwrap();
        let addr = ldb.target(0).breakpoints.addresses()[0];
        ldb.clear_breakpoint(addr).unwrap();
        assert_eq!(ldb.cont().unwrap(), StopEvent::Exited(0), "{arch}");
        let out = ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
        assert_eq!(out, "10 16.5 m\n", "{arch}: 82.5/5 = 16.5");
    }
}

#[test]
fn registers_and_frames_agree_with_machine_data() {
    for arch in Arch::ALL {
        let mut ldb = debug_on(arch);
        ldb.break_at("record", 1).unwrap();
        ldb.cont().unwrap();
        let regs = ldb.registers().unwrap();
        assert_eq!(regs.len(), arch.data().nregs as usize, "{arch}");
        // The stack pointer register holds a plausible stack address.
        let sp = arch.data().sp as usize;
        assert!(regs[sp].1 > 0x2000, "{arch}: sp = {:#x}", regs[sp].1);
        // Frames: record <- main.
        let names: Vec<String> =
            ldb.backtrace().0.into_iter().map(|(_, n, _, _)| n).collect();
        assert_eq!(names, vec!["record", "main"], "{arch}");
    }
}

#[test]
fn breakpoints_at_source_lines() {
    // Line-based breakpoints resolve through the loci tables.
    let mut ldb = debug_on(Arch::Mips);
    // Line 10 is `history[a->count % 16] = ...`.
    let addr = ldb.break_at_line(10).unwrap();
    let ev = ldb.cont().unwrap();
    let StopEvent::Breakpoint { func, line, addr: hit } = ev else { panic!("{ev:?}") };
    assert_eq!(func, "record");
    assert_eq!(line, 10);
    assert_eq!(hit, addr);
}

#[test]
fn detach_and_reattach_from_a_new_session() {
    let arch = Arch::M68k;
    let c = compile("sink.c", KITCHEN_SINK, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb.break_at("mean", 0).unwrap();
    ldb.cont().unwrap();
    assert_eq!(ldb.eval("a->count").unwrap(), "10");
    // Detach: the nub keeps the (stopped) target alive.
    let nub = ldb.detach_current().unwrap().expect("we spawned it");
    drop(ldb);

    // A brand-new session (fresh interpreter, fresh everything) attaches,
    // recovers the planted breakpoint from the nub, and carries on.
    let mut ldb2 = Ldb::new();
    let wire = nub.connect_channel().unwrap();
    ldb2.attach(Box::new(wire), &loader, &[], shared_module_cache(), None, AttachOpts::default()).unwrap();
    assert_eq!(
        ldb2.target(0).breakpoints.addresses().len(),
        1,
        "breakpoint recovered from the nub's plant records"
    );
    assert_eq!(ldb2.eval("a->count").unwrap(), "10");
    let addr = ldb2.target(0).breakpoints.addresses()[0];
    ldb2.clear_breakpoint(addr).unwrap();
    assert_eq!(ldb2.cont().unwrap(), StopEvent::Exited(0));
    let out = nub.join.join().unwrap().output;
    assert_eq!(out, "10 8.25 m\n");
}

#[test]
fn char_arrays_print_as_string_literals() {
    let src = r#"
        char greeting[32] = "hello, debugger";
        char partial[4];
        char tricky[8];
        int main(void) {
            partial[0] = 'h'; partial[1] = 'i';
            tricky[0] = 34; tricky[1] = 92; tricky[2] = 7;
            printf("%s\n", greeting);
            return 0;
        }
    "#;
    for arch in [Arch::Mips, Arch::M68k] {
        let c = compile("s.c", src, arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = nm::loader_table_for(&c.linked.image, &symtab);
        let mut ldb = Ldb::new();
        ldb.spawn_program(&c.linked.image, &loader).unwrap();
        ldb.break_at("main", 6).unwrap(); // the printf
        ldb.cont().unwrap();
        assert_eq!(ldb.print_var("greeting").unwrap(), "\"hello, debugger\"", "{arch}");
        assert_eq!(ldb.print_var("partial").unwrap(), "\"hi\"", "{arch}");
        // Quote/backslash escaped; non-printables as octal.
        assert_eq!(ldb.print_var("tricky").unwrap(), r#""\"\\\007""#, "{arch}");
    }
}
