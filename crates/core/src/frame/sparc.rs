//! The SPARC stack walker: a frame-pointer RISC. The old frame pointer is
//! saved at fp-4 and the return address at fp-8 (our windowless SPARC
//! convention); frame metadata comes from the symbol table, through the
//! machine-independent linker interface shared with the VAX and 68020.

use crate::frame::fp::FpFrame;

/// The SPARC frame layout.
pub static SPARC_FRAME: FpFrame = FpFrame {
    saved_fp: -4,
    saved_pc: -8,
    // The save area rises from fp - save_offset: rank k 4k above it.
    save_slot: |fp, meta, k| fp - meta.save_offset as i64 + 4 * k as i64,
    pc_align: 4,
};
