//! T2 — the paper's Sec. 7 startup-time table: the elapsed time of ldb's
//! initial phases, against the stabs baseline playing dbx/gdb.
//!
//! Paper (DECstation 5000/200):
//! ```text
//! Modula-3 initialization                    1.9 sec
//! Read initial PostScript                    1.6
//! Read symbol table for hello.c (1 line)     2.2
//! Read symbol table for lcc (13,000 lines)   5.5
//! Connect to hello.c (one machine)           1.8
//! Connect to lcc (one machine)               5.1
//! Connect to lcc (two MIPS machines)         6.2
//! Connect to lcc (host MIPS, target SPARC)   5.0
//! dbx: start and read a.out for lcc          1.5
//! gdb: start and read a.out for lcc          1.1
//! ```
//! Absolute numbers are ~3 orders of magnitude smaller on modern hardware;
//! the *shape* to check: symbol-table reading dominates and scales with
//! program size; connecting to a second machine costs about one more
//! connect; cross-architecture costs the same as same-architecture; the
//! stabs baselines are several times faster than reading PostScript.

use std::time::Instant;

use ldb_bench::{synth_program, HELLO_C};
use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::{nm, pssym, stabs};
use ldb_core::Ldb;
use ldb_machine::Arch;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (ms(t.elapsed()), r)
}

fn main() {
    let big_src = synth_program(1000); // ≈ 13,000 lines
    println!(
        "workloads: hello.c ({} lines), synth.c ({} lines)",
        HELLO_C.lines().count(),
        big_src.lines().count()
    );

    let hello = compile("hello.c", HELLO_C, Arch::Mips, CompileOpts::default()).unwrap();
    let big = compile("synth.c", &big_src, Arch::Mips, CompileOpts::default()).unwrap();
    let big_sparc = compile("synth.c", &big_src, Arch::Sparc, CompileOpts::default()).unwrap();

    let hello_ps = pssym::emit(&hello.unit, &hello.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let big_ps = pssym::emit(&big.unit, &big.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let big_sparc_ps =
        pssym::emit(&big_sparc.unit, &big_sparc.funcs, Arch::Sparc, pssym::PsMode::Deferred);
    let hello_loader = nm::loader_table_for(&hello.linked.image, &hello_ps);
    let big_loader = nm::loader_table_for(&big.linked.image, &big_ps);
    let big_sparc_loader = nm::loader_table_for(&big_sparc.linked.image, &big_sparc_ps);

    // Phase 1: interpreter initialization (the Modula-3 runtime analog).
    let (t_init, _) = time(ldb_postscript::Interp::new);
    // Phase 2: read the initial PostScript (debug dictionary, printers,
    // prelude) — what Ldb::new does beyond a bare interpreter.
    let (t_both, _) = time(Ldb::new);
    let t_initial_ps = (t_both - t_init).max(0.0);

    // Phase 3/4: read symbol tables (loader table interpretation only).
    let (t_hello_sym, _) = time(|| {
        let mut ldb = Ldb::new();
        ldb_core::Loader::load(&mut ldb.interp, &hello_loader, ldb_postscript::Budget::LOAD).unwrap()
    });
    let (t_big_sym, _) = time(|| {
        let mut ldb = Ldb::new();
        ldb_core::Loader::load(&mut ldb.interp, &big_loader, ldb_postscript::Budget::LOAD).unwrap()
    });

    // Phase 5/6: connect (spawn under a nub, read tables, first stop,
    // build frames).
    let (t_conn_hello, _) = time(|| {
        let mut ldb = Ldb::new();
        ldb.spawn_program(&hello.linked.image, &hello_loader).unwrap();
        ldb
    });
    let (t_conn_big, _) = time(|| {
        let mut ldb = Ldb::new();
        ldb.spawn_program(&big.linked.image, &big_loader).unwrap();
        ldb
    });
    // Phase 7: two MIPS machines in one session.
    let (t_conn_two, _) = time(|| {
        let mut ldb = Ldb::new();
        ldb.spawn_program(&big.linked.image, &big_loader).unwrap();
        ldb.spawn_program(&big.linked.image, &big_loader).unwrap();
        ldb
    });
    // Phase 8: cross-architecture (the debugger code is identical; only
    // the target differs).
    let (t_conn_cross, _) = time(|| {
        let mut ldb = Ldb::new();
        ldb.spawn_program(&big_sparc.linked.image, &big_sparc_loader).unwrap();
        ldb
    });

    // Sandbox overhead on the dominant phase: symbol-table reading runs
    // under the PR 3 execution budget (fuel + allocation accounting) by
    // default; compare against an unlimited budget on the big table.
    let (t_big_sym_unbudgeted, _) = time(|| {
        let mut ldb = Ldb::new();
        ldb_core::Loader::load(
            &mut ldb.interp,
            &big_loader,
            ldb_postscript::Budget::UNLIMITED,
        )
        .unwrap()
    });

    // Flight-recorder overhead on the connect phase: the same big-unit
    // connect with the recorder journaling every wire frame, module
    // load, and stop into the in-memory ring (the `info trace` default)
    // versus the disabled Trace::off() fast path.
    let conn_with = |trace: ldb_trace::Trace| -> f64 {
        let (t, _) = time(|| {
            let mut ldb = Ldb::new();
            ldb.set_trace(trace.clone());
            ldb.spawn_program(&big.linked.image, &big_loader).unwrap();
            ldb
        });
        t
    };
    let t_conn_untraced = conn_with(ldb_trace::Trace::off());
    let t_conn_traced = conn_with(ldb_trace::Trace::ring(4096));

    // Wire round trips for the big-unit connect, block cache on vs off
    // (the T2 time barely moves in-process, but over a real wire each
    // transaction is a latency-bound round trip).
    let conn_txns = |cache: bool| -> u64 {
        let mut ldb = Ldb::new();
        ldb.set_wire_cache(cache);
        ldb.spawn_program(&big.linked.image, &big_loader).unwrap();
        let txns = ldb.target(0).client.borrow().metrics().transactions;
        txns
    };
    let (txn_cached, txn_plain) = (conn_txns(true), conn_txns(false));

    // Baselines: dbx/gdb reading binary stabs for the big program.
    let hello_stabs = stabs::emit(&hello);
    let big_stabs = stabs::emit(&big);
    let (t_dbx, dbg) = time(|| ldb_stabs::StabsDebugger::read(&big_stabs).unwrap());
    let (t_gdb, _) = time(|| ldb_stabs::parse_raw(&big_stabs).unwrap());
    let _ = hello_stabs;

    println!();
    println!("T2: startup phases (milliseconds; paper numbers were seconds)");
    for (label, v, paper) in [
        ("Interpreter initialization", t_init, 1.9),
        ("Read initial PostScript", t_initial_ps, 1.6),
        ("Read symbol table, hello.c (1 line)", t_hello_sym, 2.2),
        ("Read symbol table, synth.c (~13k lines)", t_big_sym, 5.5),
        ("Connect to hello.c (one machine)", t_conn_hello, 1.8),
        ("Connect to synth.c (one machine)", t_conn_big, 5.1),
        ("Connect to synth.c (two MIPS machines)", t_conn_two, 6.2),
        ("Connect to synth.c (MIPS host, SPARC target)", t_conn_cross, 5.0),
        ("dbx baseline: read stabs for synth.c", t_dbx, 1.5),
        ("gdb baseline: parse stabs for synth.c", t_gdb, 1.1),
    ] {
        println!("  {label:<46} {v:>9.2} ms   (paper {paper:>4.1} s)");
    }
    println!();
    println!(
        "shape checks: big symbol table {}x hello's; two machines ≈ one extra connect \
         ({:.2} vs {:.2}+{:.2}); cross-arch ≈ same-arch ({:.2} vs {:.2}); \
         stabs baseline {}x faster than PostScript reading ({} symbols loaded)",
        (t_big_sym / t_hello_sym.max(0.001)) as u32,
        t_conn_two,
        t_conn_big,
        t_conn_big - t_conn_hello.min(t_conn_big),
        t_conn_cross,
        t_conn_big,
        (t_big_sym / t_dbx.max(0.001)) as u32,
        dbg.symbol_count(),
    );
    println!(
        "wire round trips, big-unit connect: {txn_cached} with block cache, {txn_plain} without"
    );
    println!(
        "sandbox overhead, big symbol table: {:.2} ms budgeted vs {:.2} ms unbudgeted ({:+.1}%)",
        t_big_sym,
        t_big_sym_unbudgeted,
        (t_big_sym / t_big_sym_unbudgeted.max(0.001) - 1.0) * 100.0
    );
    println!(
        "flight recorder, big-unit connect: {:.2} ms traced vs {:.2} ms untraced ({:+.1}%)",
        t_conn_traced,
        t_conn_untraced,
        (t_conn_traced / t_conn_untraced.max(0.001) - 1.0) * 100.0
    );

    // Compiled lazy connect: precompile the big unit's symbol table into
    // shared bytecode once, then connect headers-only. First measure the
    // classic eager plan connect on the same program, then the one-time
    // bytecode compile (what a daemon's first tenant pays into the
    // shared cache), then the steady-state connect every later tenant
    // gets.
    use ldb_cc::driver::{compile_many, program_load_plan};
    use ldb_core::{CompiledTable, ModuleCache, ModuleTable, TableSource};
    let plan_prog =
        compile_many(&[("synth.c", big_src.as_str())], Arch::Mips, CompileOpts::default())
            .unwrap();
    let (frame_ps, raw_modules) = program_load_plan(&plan_prog, pssym::PsMode::Deferred);
    let tables: Vec<ModuleTable> = raw_modules
        .iter()
        .cloned()
        .map(|(name, ps)| ModuleTable { name, ps })
        .collect();
    let spawn_wire = || {
        let handle = ldb_nub::spawn(
            &plan_prog.linked.image,
            ldb_nub::NubConfig { wait_at_pause: true, ..Default::default() },
        );
        let wire = handle.connect_channel().unwrap();
        (Box::new(wire) as Box<dyn ldb_nub::Wire>, handle)
    };
    // Both connects use the daemon's tight event poll so the comparison
    // measures table loading, not the default 10 ms first-poll latency.
    let tight = || ldb_core::AttachOpts {
        client: ldb_nub::ClientConfig {
            event_poll: std::time::Duration::from_millis(1),
            ..Default::default()
        },
        fault: None,
    };
    let (t_conn_plan, _) = time(|| {
        let mut ldb = Ldb::new();
        let (wire, handle) = spawn_wire();
        ldb.attach(wire, TableSource::Plan { frame: &frame_ps, modules: &tables }, Some(handle), tight()).unwrap();
        ldb
    });
    let cache = ModuleCache::new();
    let (t_compile_tables, (frame, compiled)) = time(|| {
        let frame = cache.get_or_compile(&frame_ps).unwrap().0;
        let compiled = raw_modules
            .iter()
            .map(|(name, ps)| CompiledTable {
                name: name.clone(),
                module: cache.get_or_compile(ps).unwrap().0,
            })
            .collect::<Vec<_>>();
        (frame, compiled)
    });
    let (t_conn_compiled, _) = time(|| {
        let mut ldb = Ldb::new();
        let (wire, handle) = spawn_wire();
        ldb.attach(wire, TableSource::Compiled { frame: &frame, modules: &compiled }, Some(handle), tight()).unwrap();
        ldb
    });
    println!(
        "compiled lazy connect, big unit: {:.2} ms eager plan vs {:.2} ms lazy \
         ({:.1}x; one-time bytecode compile {:.2} ms, shared across tenants)",
        t_conn_plan,
        t_conn_compiled,
        t_conn_plan / t_conn_compiled.max(0.001),
        t_compile_tables
    );
}
