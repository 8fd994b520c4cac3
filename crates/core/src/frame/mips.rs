//! The MIPS stack walker: the target with no frame pointer.
//!
//! `MipsFrame::top` "takes the context from the nub ... uses the program
//! counter to find the procedure's dictionary, then computes the virtual
//! frame pointer by adding the size of the procedure's frame to the stack
//! pointer. The machine-dependent frame size is stored ... by the MIPS
//! implementation of ldb's linker interface" — which reads the runtime
//! procedure table out of the target address space.

use crate::frame::{
    assemble_dag, parent_aliases, top_aliases, wire_word, Frame, FrameWalker, WalkCtx, WalkError,
    WalkGuard,
};

/// The MIPS frame methods.
pub struct MipsFrame;

impl FrameWalker for MipsFrame {
    fn top(&self, t: &WalkCtx) -> Result<Frame, WalkError> {
        let layout = t.data.ctx;
        let ctx = t.context as i64;
        let pc = wire_word(&t.wire, ctx + layout.pc_offset as i64)?;
        let sp = wire_word(&t.wire, ctx + layout.reg(t.data.sp) as i64)?;
        let meta = t.loader.frame_meta(pc, &t.wire);
        // No frame pointer: vfp = sp + frame size (from the RPT).
        let vfp = sp.wrapping_add(meta.map(|m| m.frame_size).unwrap_or(0));
        let alias = top_aliases(t, vfp);
        let mem = assemble_dag(&t.wire, alias.clone());
        Ok(Frame { pc, vfp, level: 0, mem, alias, meta })
    }

    fn down(&self, t: &WalkCtx, g: &mut WalkGuard, f: &Frame) -> Result<Option<Frame>, WalkError> {
        let Some(meta) = f.meta else { return Ok(None) };
        let Some(ra_off) = meta.ra_offset else { return Ok(None) };
        let parent_pc = wire_word(&t.wire, f.vfp as i64 - ra_off as i64)?;
        let Some(parent_meta) = t.loader.frame_meta(parent_pc, &t.wire) else {
            return Ok(None); // walked off the top (the startup stub)
        };
        // The caller's sp at the call was our vfp; its own frame sits
        // above it.
        let parent_vfp = f.vfp.wrapping_add(parent_meta.frame_size);
        g.check(f, parent_vfp, parent_pc)?;
        let save_base = f.vfp as i64 - meta.save_offset as i64;
        let alias = parent_aliases(t, f, parent_pc, parent_vfp, |rank| {
            save_base + 4 * rank as i64
        });
        let mem = assemble_dag(&t.wire, alias.clone());
        Ok(Some(Frame {
            pc: parent_pc,
            vfp: parent_vfp,
            level: f.level + 1,
            mem,
            alias,
            meta: Some(parent_meta),
        }))
    }
}
