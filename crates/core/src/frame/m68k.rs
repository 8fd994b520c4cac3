//! The 68020 stack walker. Frames are linked through the frame pointer
//! (`link a6`): the saved caller fp sits at fp+0 and the return address at
//! fp+4. The callee's register-save mask (recorded in the symbol table by
//! the compiler — paper, Sec. 5) locates the `movem` save area below the
//! link region: saved register of rank k lives at fp - framesize - 4(k+1).

use crate::frame::fp::FpFrame;

/// The 68020 frame layout.
pub static M68K_FRAME: FpFrame = FpFrame {
    saved_fp: 0,
    saved_pc: 4,
    // movem pushed below the link area: rank k at fp - size - 4(k+1).
    save_slot: |fp, meta, k| fp - meta.frame_size as i64 - 4 * (k as i64 + 1),
    // 68020 instructions are word-aligned.
    pc_align: 2,
};
