//! Helpers shared by the register-argument RISC back ends (MIPS, SPARC).
//! Both lay out a frame from the bottom (outgoing arguments, scratch
//! spills, locals, register-variable save area), pass the first integer
//! arguments in registers and floating arguments in the outgoing area,
//! and build constants from a `lui`/`ori` pair. What differs is the link:
//! the MIPS saves only ra, at the top of a frame without a frame pointer;
//! the SPARC saves an ra+fp pair and keeps a real frame pointer. Each
//! port keeps that part, and its branches, in its own file.

use crate::asm::{AsmFn, AsmIns, FrameInfo};
use crate::ir::{FuncIr, Storage};
use crate::lex::{CcError, CcResult, Pos};
use crate::types::{Sfx, Type};
use ldb_machine::{AluOp, FltSize, MachineData, MemSize, Op};

use super::{align_to, reg_eligible, uses_regvar, Val};

/// A RISC frame laid out up to the register-variable save area; the
/// port places its link words from `top` up and then calls
/// [`Body::finish`].
pub(super) struct Body {
    /// First free sp offset above the save area.
    pub top: u32,
    save_mask: u32,
    save_sp: u32,
    spill_sp: u32,
    /// (local index, sp offset) of every frame local.
    local_sp: Vec<(usize, u32)>,
}

/// Assign parameter homes (non-negative vfp offsets: the caller's
/// outgoing area, the same slot walk as [`emit_call`]) and lay out the
/// frame from the bottom: outgoing area, spills, register variables and
/// frame locals, the save area.
pub(super) fn layout(f: &mut FuncIr, outgoing: u32, spill_bytes: u32, regvars: &[u8]) -> Body {
    let mut slot = 0u32;
    for p in &mut f.params {
        let sz = if p.ty == Type::Double { 8 } else { 4 };
        slot = align_to(slot, sz);
        p.storage = Storage::Frame(slot as i32);
        slot += sz;
    }
    // Register variables, then frame locals (sp-relative for now).
    let mut next_rv = 0usize;
    let mut save_mask = 0u32;
    let mut acc = align_to(outgoing.max(16), 4);
    let spill_sp = acc;
    acc += spill_bytes;
    let mut local_sp: Vec<(usize, u32)> = Vec::new();
    for (idx, l) in f.locals.iter_mut().enumerate() {
        if l.storage == Storage::Unassigned {
            if reg_eligible(&l.ty, l.addr_taken) && next_rv < regvars.len() {
                let r = regvars[next_rv];
                next_rv += 1;
                save_mask |= 1 << r;
                l.storage = Storage::Reg(r);
                continue;
            }
            let a = l.ty.align().max(4);
            acc = align_to(acc, a);
            local_sp.push((idx, acc));
            acc += l.ty.size().max(4);
        }
    }
    // Regvar save area.
    let save_sp = align_to(acc, 4);
    let top = align_to(save_sp + 4 * next_rv as u32, 4);
    Body { top, save_mask, save_sp, spill_sp, local_sp }
}

impl Body {
    /// Close a frame of `size` bytes whose return address is saved
    /// `ra_offset` below its top: frame locals become vfp-relative
    /// (negative).
    pub(super) fn finish(self, f: &mut FuncIr, size: u32, ra_offset: u32) -> FrameInfo {
        for (idx, sp_off) in self.local_sp {
            f.locals[idx].storage = Storage::Frame(sp_off as i32 - size as i32);
        }
        FrameInfo {
            size,
            save_mask: self.save_mask,
            save_offset: size - self.save_sp,
            ra_offset: Some(ra_offset),
            spill_base: self.spill_sp as i32 - size as i32,
        }
    }
}

/// Store the register variables `f` uses into the save area, in
/// `regvars` order.
pub(super) fn save_regvars(a: &mut AsmFn, f: &FuncIr, sp: u8, regvars: &[u8]) {
    let save_sp = a.frame.size - a.frame.save_offset;
    for (k, r) in regvars.iter().filter(|&&r| uses_regvar(f, r)).enumerate() {
        let off = (save_sp + 4 * k as u32) as i16;
        a.op(Op::Store { size: MemSize::B4, rs: *r, base: sp, off });
    }
}

/// Reload what [`save_regvars`] stored.
pub(super) fn restore_regvars(a: &mut AsmFn, f: &FuncIr, sp: u8, regvars: &[u8]) {
    let save_sp = a.frame.size - a.frame.save_offset;
    for (k, r) in regvars.iter().filter(|&&r| uses_regvar(f, r)).enumerate() {
        let off = (save_sp + 4 * k as u32) as i16;
        a.op(Op::Load { size: MemSize::B4, signed: true, rd: *r, base: sp, off });
    }
}

/// Home the incoming integer register arguments in their parameter slots,
/// addressed as `base` + `bias` + the slot's vfp offset. Floating
/// arguments are already on the stack, written by the caller.
pub(super) fn home_args(a: &mut AsmFn, f: &FuncIr, arg_regs: &[u8], base: u8, bias: i32) {
    let mut int_args = 0usize;
    for p in &f.params {
        let Storage::Frame(off) = p.storage else { continue };
        if p.ty == Type::Double || p.ty == Type::Float {
            continue;
        }
        if int_args < arg_regs.len() {
            a.op(Op::Store {
                size: MemSize::B4,
                rs: arg_regs[int_args],
                base,
                off: (off + bias) as i16,
            });
            int_args += 1;
        }
    }
}

/// Marshal a call: integer arguments into `arg_regs`, floating ones into
/// the outgoing area at sp, then the call.
///
/// # Errors
/// More integer arguments than the convention has registers.
pub(super) fn emit_call(
    a: &mut AsmFn,
    data: &MachineData,
    arg_regs: &[u8],
    name: &str,
    args: &[(Val, Sfx)],
) -> CcResult<()> {
    let mut slot = 0u32;
    let mut int_args = 0usize;
    for (v, sfx) in args {
        let sz = if *sfx == Sfx::D { 8u32 } else { 4 };
        slot = align_to(slot, sz);
        match v {
            Val::F(fr) => {
                let size = if *sfx == Sfx::F { FltSize::F4 } else { FltSize::F8 };
                a.op(Op::FStore { size, fs: *fr, base: data.sp, off: slot as i16 });
            }
            Val::I(r) => {
                if int_args >= arg_regs.len() {
                    return Err(CcError {
                        pos: Pos::default(),
                        msg: format!(
                            "too many integer arguments for the {} convention",
                            data.name.to_uppercase()
                        ),
                    });
                }
                a.op(Op::Mov { rd: arg_regs[int_args], rs: *r });
                int_args += 1;
            }
        }
        slot += sz;
    }
    a.push(AsmIns::CallSym(name.to_string()));
    Ok(())
}

/// Load a 32-bit constant: one immediate load if it fits 16 signed bits,
/// else the upper half then an `or` of the lower.
pub(super) fn load_const(a: &mut AsmFn, rd: u8, v: i64) {
    let v = v as i32;
    if i16::try_from(v).is_ok() {
        a.op(Op::LoadImm { rd, imm: v });
    } else {
        a.op(Op::LoadUpper { rd, imm: (v as u32 >> 16) as u16 });
        let lo = (v as u32 & 0xffff) as i16;
        if lo != 0 {
            a.op(Op::AluI { op: AluOp::Or, rd, rs: rd, imm: lo });
        }
    }
}
