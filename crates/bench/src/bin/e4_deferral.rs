//! E4 — paper Sec. 5: "We can defer not only the interpretation but also
//! the lexical analysis of PostScript code by quoting it with parentheses;
//! the scanner reads the resulting string quickly. This deferral technique
//! reduces by 40% the time required to read a large symbol table."

use std::time::Instant;

use ldb_bench::synth_program;
use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::{nm, pssym};
use ldb_machine::Arch;

fn read_time(loader_ps: &str, reps: u32) -> f64 {
    let mut total = 0.0;
    for _ in 0..reps {
        let mut ldb = ldb_core::Ldb::new();
        let t = Instant::now();
        let loader = ldb_core::Loader::load(&mut ldb.interp, loader_ps, ldb_postscript::Budget::LOAD).unwrap();
        total += t.elapsed().as_secs_f64();
        std::hint::black_box(loader.proctable.len());
    }
    total * 1e3 / reps as f64
}

fn main() {
    println!("E4: deferred lexing of quoted PostScript (paper: 40% less read time)");
    let big = synth_program(1000);
    let c = compile("synth.c", &big, Arch::Mips, CompileOpts::default()).unwrap();
    let eager_ps = pssym::emit(&c.unit, &c.funcs, Arch::Mips, pssym::PsMode::Eager);
    let deferred_ps = pssym::emit(&c.unit, &c.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let eager = nm::loader_table_for(&c.linked.image, &eager_ps);
    let deferred = nm::loader_table_for(&c.linked.image, &deferred_ps);
    let te = read_time(&eager, 5);
    let td = read_time(&deferred, 5);
    println!("  eager    {{...}} procedures: {:>8.2} ms  ({} bytes)", te, eager.len());
    println!("  deferred (...) cvx strings: {:>8.2} ms  ({} bytes)", td, deferred.len());
    println!("  reduction: {:.0}%  (paper: 40%)", (1.0 - td / te) * 100.0);
}
