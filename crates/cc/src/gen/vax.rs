//! VAX back end: stack arguments, frame pointer, and an entry save mask —
//! the CISC conventions again, with the VAX's little-endian byte order and
//! byte-granular instructions downstream in the encoder. The generator is
//! the shared CISC one; this port supplies its registers.

use ldb_machine::arch;

use super::cisc::CiscGen;

/// The VAX code generator.
pub static VAX_GEN: CiscGen = CiscGen {
    data: &arch::VAX,
    sp: 14,
    fp: 13,
    regvars: &[6, 7, 8, 9, 10, 11],
    iscratch: &[1, 2, 3, 4, 5],
    fscratch: &[1, 2, 3, 4, 5, 6, 7],
};
