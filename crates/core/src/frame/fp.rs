//! The stack walker shared by the frame-pointer targets (68020, VAX,
//! SPARC). Their frames link through a saved frame pointer, and the
//! callee's register-save mask (recorded in the symbol table by the
//! compiler — paper, Sec. 5) locates the saved registers, so one `top`
//! and one `down` serve all three. Each port supplies an [`FpFrame`]
//! table: where the link words sit, where saved registers sit, and the
//! instruction alignment.

use crate::frame::{
    assemble_dag, parent_aliases, top_aliases, wire_word, Frame, FrameWalker, WalkCtx, WalkError,
    WalkGuard,
};
use crate::loader::FrameMeta;

/// What distinguishes one frame-pointer target's frames.
pub struct FpFrame {
    /// Offset from fp of the caller's saved fp.
    pub saved_fp: i64,
    /// Offset from fp of the return address.
    pub saved_pc: i64,
    /// Address of the saved register of rank `k`, given the frame's fp
    /// and metadata.
    pub save_slot: fn(fp: i64, meta: &FrameMeta, k: u32) -> i64,
    /// Instruction alignment for return-address sanity checks.
    pub pc_align: u32,
}

impl FrameWalker for FpFrame {
    fn top(&self, t: &WalkCtx) -> Result<Frame, WalkError> {
        let layout = t.data.ctx;
        let ctx = t.context as i64;
        let pc = wire_word(&t.wire, ctx + layout.pc_offset as i64)?;
        let fp_reg = t.data.fp.expect("frame-pointer target has fp");
        let fp = wire_word(&t.wire, ctx + layout.reg(fp_reg) as i64)?;
        let meta = t.loader.frame_meta(pc, &t.wire);
        let alias = top_aliases(t, fp);
        let mem = assemble_dag(&t.wire, alias.clone());
        Ok(Frame { pc, vfp: fp, level: 0, mem, alias, meta })
    }

    fn down(&self, t: &WalkCtx, g: &mut WalkGuard, f: &Frame) -> Result<Option<Frame>, WalkError> {
        if f.vfp == 0 {
            return Ok(None);
        }
        // A frame in unknown code (the pre-main pause stub) has no meta:
        // its fp is not a frame link we can interpret, so the walk ends
        // cleanly here rather than chasing a register that may point
        // anywhere. (MIPS gets the same semantic from its meta lookup.)
        let Some(meta) = f.meta else { return Ok(None) };
        let fp = f.vfp as i64;
        // Fetch the lower-addressed link word first.
        let (parent_fp, parent_pc) = if self.saved_fp < self.saved_pc {
            let parent_fp = wire_word(&t.wire, fp + self.saved_fp)?;
            (parent_fp, wire_word(&t.wire, fp + self.saved_pc)?)
        } else {
            let parent_pc = wire_word(&t.wire, fp + self.saved_pc)?;
            (wire_word(&t.wire, fp + self.saved_fp)?, parent_pc)
        };
        if parent_fp == 0 {
            return Ok(None); // crt0 zeroes fp: the stack base
        }
        let Some(parent_meta) = t.loader.frame_meta(parent_pc, &t.wire) else {
            return Ok(None);
        };
        g.check(f, parent_fp, parent_pc)?;
        let alias =
            parent_aliases(t, f, parent_pc, parent_fp, |k| (self.save_slot)(fp, &meta, k));
        let mem = assemble_dag(&t.wire, alias.clone());
        Ok(Some(Frame {
            pc: parent_pc,
            vfp: parent_fp,
            level: f.level + 1,
            mem,
            alias,
            meta: Some(parent_meta),
        }))
    }

    fn pc_align(&self) -> u32 {
        self.pc_align
    }
}
