//! MIPS back end: the target with no frame pointer.
//!
//! The frame layout is o32-flavored: the outgoing-argument area sits at the
//! bottom of the frame, locals and saved registers above it, and the return
//! address at the top. The debugger's *virtual frame pointer* is
//! `sp + frame_size` — the caller's sp — and all `Storage::Frame` offsets
//! are relative to it (parameter homes at non-negative offsets, locals
//! negative). Because there is no frame pointer, the frame size must reach
//! the debugger through the runtime procedure table, which is why the MIPS
//! needs the most machine-dependent code (paper, Sec. 4.3).

use crate::asm::{AsmFn, AsmIns, FrameInfo};
use crate::ir::FuncIr;
use crate::lex::CcResult;
use crate::types::Sfx;
use ldb_machine::{arch, AluOp, Cond, MachineData, MemSize, Op};

use super::{align_to, risc, TargetGen, Val};

/// The MIPS code generator.
pub struct MipsGen;

const SP: u8 = 29;
const RA: u8 = 31;
/// s8 (r30) leads the register-variable list: the paper's `i` lives in
/// register 30.
const REGVARS: [u8; 8] = [30, 16, 17, 18, 19, 20, 21, 22];
const ISCRATCH: [u8; 10] = [8, 9, 10, 11, 12, 13, 14, 15, 24, 25];
const FSCRATCH: [u8; 7] = [1, 2, 3, 4, 5, 6, 7];
const ARG_REGS: [u8; 4] = [4, 5, 6, 7];

impl TargetGen for MipsGen {
    fn data(&self) -> &'static MachineData {
        &arch::MIPS
    }

    fn iscratch(&self) -> &'static [u8] {
        &ISCRATCH
    }

    fn fscratch(&self) -> &'static [u8] {
        &FSCRATCH
    }

    fn layout(&self, f: &mut FuncIr, outgoing: u32, spill_bytes: u32) -> FrameInfo {
        let body = risc::layout(f, outgoing, spill_bytes, &REGVARS);
        // Return address at the top.
        let ra_sp = body.top;
        let size = align_to(ra_sp + 4, 8);
        body.finish(f, size, size - ra_sp)
    }

    fn prologue(&self, a: &mut AsmFn, f: &FuncIr) {
        let size = a.frame.size;
        a.op(Op::AluI { op: AluOp::Add, rd: SP, rs: SP, imm: -(size as i32) as i16 });
        let ra_sp = size - a.frame.ra_offset.expect("mips saves ra");
        a.op(Op::Store { size: MemSize::B4, rs: RA, base: SP, off: ra_sp as i16 });
        risc::save_regvars(a, f, SP, &REGVARS);
        risc::home_args(a, f, &ARG_REGS, SP, size as i32);
    }

    fn epilogue(&self, a: &mut AsmFn, f: &FuncIr) {
        let size = a.frame.size;
        risc::restore_regvars(a, f, SP, &REGVARS);
        let ra_sp = size - a.frame.ra_offset.expect("mips saves ra");
        a.op(Op::Load { size: MemSize::B4, signed: true, rd: RA, base: SP, off: ra_sp as i16 });
        // The sp adjustment fills ra's load delay slot.
        a.op(Op::AluI { op: AluOp::Add, rd: SP, rs: SP, imm: size as i16 });
        a.op(Op::JumpReg { rs: RA });
    }

    fn slot(&self, frame: &FrameInfo, off: i32) -> (u8, i32) {
        (SP, off + frame.size as i32)
    }

    fn branch(&self, a: &mut AsmFn, cond: Cond, rs: u8, rt: u8, label: u32) {
        a.push(AsmIns::Br { cond, rs, rt, label });
    }

    fn branch_zero(&self, a: &mut AsmFn, rs: u8, if_zero: bool, label: u32) {
        let cond = if if_zero { Cond::Eq } else { Cond::Ne };
        a.push(AsmIns::Br { cond, rs, rt: 0, label });
    }

    fn emit_call(
        &self,
        a: &mut AsmFn,
        name: &str,
        args: &[(Val, Sfx)],
        _frame: &FrameInfo,
    ) -> CcResult<()> {
        risc::emit_call(a, self.data(), &ARG_REGS, name, args)
    }

    fn load_const(&self, a: &mut AsmFn, rd: u8, v: i64) {
        risc::load_const(a, rd, v);
    }
}
