//! The VAX stack walker. Structurally like the 68020 (fp-linked frames,
//! entry save mask), with the VAX's own registers: fp is r13, and the save
//! area established at procedure entry sits below the locals, rank k at
//! fp - framesize - 4(k+1).

use crate::frame::fp::FpFrame;

/// The VAX frame layout.
pub static VAX_FRAME: FpFrame = FpFrame {
    saved_fp: 0,
    saved_pc: 4,
    save_slot: |fp, meta, k| fp - meta.frame_size as i64 - 4 * (k as i64 + 1),
    // VAX instructions are byte-aligned: no return-address check.
    pc_align: 1,
};
