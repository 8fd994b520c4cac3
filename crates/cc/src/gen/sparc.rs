//! SPARC back end: a frame-pointer RISC with condition-code branches.
//!
//! The frame discipline is like the MIPS one, but a real frame pointer
//! (`%fp` = the caller's sp) is maintained, so the debugger can walk the
//! stack without a runtime procedure table — which is why the VAX, SPARC,
//! and 68020 share one machine-independent linker interface in the paper
//! while the MIPS needs its own.

use crate::asm::{AsmFn, AsmIns, FrameInfo};
use crate::ir::FuncIr;
use crate::lex::CcResult;
use crate::types::Sfx;
use ldb_machine::{arch, AluOp, Cond, MachineData, MemSize, Op};

use super::{align_to, risc, TargetGen, Val};

/// The SPARC code generator.
pub struct SparcGen;

const SP: u8 = 14;
const FP: u8 = 30;
const RA: u8 = 15; // %o7
const REGVARS: [u8; 8] = [16, 17, 18, 19, 20, 21, 22, 23]; // %l0-%l7
const ISCRATCH: [u8; 9] = [1, 2, 3, 4, 5, 24, 25, 26, 27];
const FSCRATCH: [u8; 7] = [1, 2, 3, 4, 5, 6, 7];
const ARG_REGS: [u8; 6] = [8, 9, 10, 11, 12, 13]; // %o0-%o5

impl TargetGen for SparcGen {
    fn data(&self) -> &'static MachineData {
        &arch::SPARC
    }

    fn iscratch(&self) -> &'static [u8] {
        &ISCRATCH
    }

    fn fscratch(&self) -> &'static [u8] {
        &FSCRATCH
    }

    fn layout(&self, f: &mut FuncIr, outgoing: u32, spill_bytes: u32) -> FrameInfo {
        let body = risc::layout(f, outgoing, spill_bytes, &REGVARS);
        // ra at size-8, old fp at size-4.
        let size = align_to(body.top + 8, 8);
        body.finish(f, size, 8) // ra at fp - 8
    }

    fn prologue(&self, a: &mut AsmFn, f: &FuncIr) {
        let size = a.frame.size;
        a.op(Op::AluI { op: AluOp::Add, rd: SP, rs: SP, imm: -(size as i32) as i16 });
        a.op(Op::Store { size: MemSize::B4, rs: FP, base: SP, off: (size - 4) as i16 });
        a.op(Op::AluI { op: AluOp::Add, rd: FP, rs: SP, imm: size as i16 });
        a.op(Op::Store { size: MemSize::B4, rs: RA, base: FP, off: -8 });
        risc::save_regvars(a, f, SP, &REGVARS);
        risc::home_args(a, f, &ARG_REGS, FP, 0);
    }

    fn epilogue(&self, a: &mut AsmFn, f: &FuncIr) {
        risc::restore_regvars(a, f, SP, &REGVARS);
        a.op(Op::Load { size: MemSize::B4, signed: true, rd: RA, base: FP, off: -8 });
        // Restore sp/fp through a scratch so ordering is safe.
        let tmp = ISCRATCH[0];
        a.op(Op::Load { size: MemSize::B4, signed: true, rd: tmp, base: FP, off: -4 });
        a.op(Op::Mov { rd: SP, rs: FP });
        a.op(Op::Mov { rd: FP, rs: tmp });
        a.op(Op::JumpReg { rs: RA });
    }

    fn slot(&self, _frame: &FrameInfo, off: i32) -> (u8, i32) {
        (FP, off)
    }

    fn branch(&self, a: &mut AsmFn, cond: Cond, rs: u8, rt: u8, label: u32) {
        a.op(Op::Cmp { rs, rt });
        a.push(AsmIns::Bcc { cond, label });
    }

    fn branch_zero(&self, a: &mut AsmFn, rs: u8, if_zero: bool, label: u32) {
        a.op(Op::Cmp { rs, rt: 0 }); // %g0
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
        risc::emit_call(a, self.data(), &ARG_REGS, name, args)
    }

    fn load_const(&self, a: &mut AsmFn, rd: u8, v: i64) {
        risc::load_const(a, rd, v);
    }
}
