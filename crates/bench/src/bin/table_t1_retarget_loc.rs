//! T1 — the paper's Sec. 4.3 table: lines of machine-dependent code per
//! target (Debugger / PostScript / Nub) against the shared code.
//!
//! Paper (lines of Modula-3 / PostScript / C+asm):
//! ```text
//!                MIPS  68020  SPARC  VAX   shared
//! Debugger (M3)   476    187    206   199   12193
//! PostScript       15     18     18    13    1203
//! Nub (C, asm)     34     73      5    72     632
//! ```

use ldb_bench::{file_loc, ws};

const TARGETS: [&str; 4] = ["mips", "m68k", "sparc", "vax"];

/// The port directories: each holds one `{target}.rs` per target, and
/// every other `.rs` file in it is shared code the ports build on.
const DEBUGGER_DIRS: [&str; 3] =
    ["crates/core/src/frame", "crates/cc/src/gen", "crates/machine/src/encode"];
const NUB_DIR: &str = "crates/nub/src/arch";

/// Lines of the shared (not per-target) `.rs` files in a port directory.
fn shared_in(dir: &str) -> usize {
    let entries = std::fs::read_dir(ws(dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
    entries
        .map(|e| e.expect("directory entry").path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "rs")
                && !TARGETS.iter().any(|t| p.file_stem().is_some_and(|s| s == *t))
        })
        .map(|p| file_loc(&p.to_string_lossy()))
        .sum()
}

fn main() {
    // Debugger: per-target stack walkers + compiler back ends + encoders
    // (everything retargeting one more CPU requires writing).
    let dbg: Vec<usize> = TARGETS
        .iter()
        .map(|t| DEBUGGER_DIRS.iter().map(|d| file_loc(&ws(&format!("{d}/{t}.rs")))).sum())
        .collect();
    let ps: Vec<usize> =
        TARGETS.iter().map(|t| file_loc(&ws(&format!("crates/core/src/ps/{t}.ps")))).collect();
    let nub: Vec<usize> =
        TARGETS.iter().map(|t| file_loc(&ws(&format!("{NUB_DIR}/{t}.rs")))).collect();

    let shared_dbg: usize = [
        "crates/core/src/amemory.rs",
        "crates/core/src/breakpoint.rs",
        "crates/core/src/debugger.rs",
        "crates/core/src/loader.rs",
        "crates/core/src/psops.rs",
        "crates/core/src/symtab.rs",
        "crates/core/src/lib.rs",
        "crates/postscript/src/interp.rs",
        "crates/postscript/src/scanner.rs",
        "crates/postscript/src/object.rs",
        "crates/postscript/src/dict.rs",
        "crates/postscript/src/pretty.rs",
        "crates/postscript/src/file.rs",
        "crates/postscript/src/error.rs",
        "crates/postscript/src/ops/mod.rs",
        "crates/postscript/src/ops/stackops.rs",
        "crates/postscript/src/ops/arith.rs",
        "crates/postscript/src/ops/control.rs",
        "crates/postscript/src/ops/dictops.rs",
        "crates/postscript/src/ops/arrayops.rs",
        "crates/postscript/src/ops/convops.rs",
        "crates/postscript/src/ops/ioops.rs",
        "crates/postscript/src/ops/debugops.rs",
        "crates/cc/src/sched.rs",
        "crates/machine/src/cpu.rs",
    ]
    .iter()
    .map(|p| file_loc(&ws(p)))
    .sum::<usize>()
        + DEBUGGER_DIRS.iter().map(|d| shared_in(d)).sum::<usize>();
    let shared_ps = file_loc(&ws("crates/core/src/ps/base.ps"));
    let shared_nub: usize = [
        "crates/nub/src/nub.rs",
        "crates/nub/src/proto.rs",
        "crates/nub/src/transport.rs",
        "crates/nub/src/client.rs",
    ]
    .iter()
    .map(|p| file_loc(&ws(p)))
    .sum::<usize>()
        + shared_in(NUB_DIR);

    println!("T1: machine-dependent lines of code per target (paper Sec. 4.3)");
    println!("{:<14} {:>6} {:>6} {:>6} {:>6} {:>8}", "", "MIPS", "68020", "SPARC", "VAX", "shared");
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "Debugger (Rust)", dbg[0], dbg[1], dbg[2], dbg[3], shared_dbg
    );
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "PostScript", ps[0], ps[1], ps[2], ps[3], shared_ps
    );
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "Nub (Rust)", nub[0], nub[1], nub[2], nub[3], shared_nub
    );
    let totals: Vec<usize> = (0..4).map(|i| dbg[i] + ps[i] + nub[i]).collect();
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "total",
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        shared_dbg + shared_ps + shared_nub
    );
    println!();
    println!(
        "paper:  MIPS 525 / 68020 278 / SPARC 229 / VAX 284 machine-dependent lines; \
         shared 14028. Shape to check: MIPS largest (no frame pointer), SPARC's nub smallest."
    );
}
