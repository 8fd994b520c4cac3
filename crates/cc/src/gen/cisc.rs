//! The back end shared by the stack-argument CISCs (68020, VAX): arguments
//! pushed right to left above the saved fp and return address, `link`/
//! `unlk` frames with locals below fp, and register variables saved by an
//! entry mask that the symbol table records for the stack walker. The two
//! ports differ only in their registers, which each supplies as a
//! [`CiscGen`].

use crate::asm::{AsmFn, AsmIns, FrameInfo};
use crate::ir::{FuncIr, Storage};
use crate::lex::CcResult;
use crate::types::{Sfx, Type};
use ldb_machine::{AluOp, Cond, FltSize, MachineData, Op};

use super::{align_to, reg_eligible, TargetGen, Val};

/// A stack-argument CISC code generator.
pub struct CiscGen {
    /// Machine description.
    pub data: &'static MachineData,
    /// Stack pointer.
    pub sp: u8,
    /// Frame pointer.
    pub fp: u8,
    /// Callee-saved registers for register variables, in allocation order.
    pub regvars: &'static [u8],
    /// Caller-saved integer scratch registers.
    pub iscratch: &'static [u8],
    /// Caller-saved floating scratch registers.
    pub fscratch: &'static [u8],
}

impl TargetGen for CiscGen {
    fn data(&self) -> &'static MachineData {
        self.data
    }

    fn iscratch(&self) -> &'static [u8] {
        self.iscratch
    }

    fn fscratch(&self) -> &'static [u8] {
        self.fscratch
    }

    fn layout(&self, f: &mut FuncIr, _outgoing: u32, spill_bytes: u32) -> FrameInfo {
        // Parameters: pushed by the caller, above the saved fp and return
        // address: first argument at fp+8.
        let mut off = 8i32;
        for p in &mut f.params {
            let sz = if p.ty == Type::Double { 8 } else { 4 };
            p.storage = Storage::Frame(off);
            off += sz;
        }
        // Locals at negative offsets; register variables in `regvars`.
        let mut next_rv = 0usize;
        let mut save_mask = 0u32;
        let mut acc = 0u32;
        for l in &mut f.locals {
            if l.storage == Storage::Unassigned {
                if reg_eligible(&l.ty, l.addr_taken) && next_rv < self.regvars.len() {
                    let r = self.regvars[next_rv];
                    next_rv += 1;
                    save_mask |= 1 << r;
                    l.storage = Storage::Reg(r);
                    continue;
                }
                let al = l.ty.align().max(4);
                acc = align_to(acc + l.ty.size().max(4), al);
                l.storage = Storage::Frame(-(acc as i32));
            }
        }
        // Scratch spill area below the locals.
        let spill_base = -(acc as i32) - spill_bytes as i32;
        let size = align_to(acc + spill_bytes, 4);
        FrameInfo {
            size,
            save_mask,
            // Saved registers sit just below the link area: the first
            // saved (lowest-numbered) register is at fp - size - 4.
            save_offset: size + 4,
            ra_offset: None, // the return address is pushed at fp+4
            spill_base,
        }
    }

    fn prologue(&self, a: &mut AsmFn, _f: &FuncIr) {
        a.op(Op::Link { fp: self.fp, size: a.frame.size as u16 });
        if a.frame.save_mask != 0 {
            a.op(Op::SaveRegs { mask: a.frame.save_mask as u16 });
        }
    }

    fn epilogue(&self, a: &mut AsmFn, _f: &FuncIr) {
        if a.frame.save_mask != 0 {
            a.op(Op::RestoreRegs { mask: a.frame.save_mask as u16 });
        }
        a.op(Op::Unlink { fp: self.fp });
        a.op(Op::Ret);
    }

    fn slot(&self, _frame: &FrameInfo, off: i32) -> (u8, i32) {
        (self.fp, off)
    }

    fn branch(&self, a: &mut AsmFn, cond: Cond, rs: u8, rt: u8, label: u32) {
        a.op(Op::Cmp { rs, rt });
        a.push(AsmIns::Bcc { cond, label });
    }

    fn branch_zero(&self, a: &mut AsmFn, rs: u8, if_zero: bool, label: u32) {
        a.op(Op::Tst { rs });
        let cond = if if_zero { Cond::Eq } else { Cond::Ne };
        a.push(AsmIns::Bcc { cond, label });
    }

    fn emit_call(
        &self,
        a: &mut AsmFn,
        name: &str,
        args: &[(Val, Sfx)],
        _frame: &FrameInfo,
    ) -> CcResult<()> {
        // Push right-to-left so the first argument lands at fp+8.
        let sp = self.sp;
        let mut bytes = 0i32;
        for (v, sfx) in args.iter().rev() {
            match v {
                Val::I(r) => {
                    a.op(Op::Push { rs: *r });
                    bytes += 4;
                }
                Val::F(fr) => {
                    let (size, sz) =
                        if *sfx == Sfx::F { (FltSize::F4, 4) } else { (FltSize::F8, 8) };
                    a.op(Op::AluI { op: AluOp::Add, rd: sp, rs: sp, imm: -sz });
                    a.op(Op::FStore { size, fs: *fr, base: sp, off: 0 });
                    bytes += sz as i32;
                }
            }
        }
        a.push(AsmIns::CallSym(name.to_string()));
        if bytes != 0 {
            a.op(Op::AluI { op: AluOp::Add, rd: sp, rs: sp, imm: bytes as i16 });
        }
        Ok(())
    }

    fn load_const(&self, a: &mut AsmFn, rd: u8, v: i64) {
        a.op(Op::LoadImm { rd, imm: v as i32 });
    }
}
