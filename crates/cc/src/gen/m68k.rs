//! 68020 back end: stack arguments, `link`/`unlk` frames, and register-save
//! masks (`movem`-style). The save mask is recorded in the symbol table —
//! "the compiler adds register-save masks when compiling procedures for the
//! 68020. Most of ldb ignores these masks, but they are used by the
//! machine-dependent stack-walking code" (paper, Sec. 5). The generator is
//! the shared CISC one; this port supplies its registers.

use ldb_machine::arch;

use super::cisc::CiscGen;

/// The 68020 code generator.
pub static M68K_GEN: CiscGen = CiscGen {
    data: &arch::M68K,
    sp: 15, // a7
    fp: 14, // a6
    regvars: &[2, 3, 4, 5, 6, 7], // d2-d7
    iscratch: &[1, 8, 9, 10, 11, 12], // d1, a0-a4
    fscratch: &[1, 2, 3, 4, 5, 6, 7],
};
