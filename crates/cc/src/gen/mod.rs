//! Code generation: a machine-independent tree evaluator parameterized by
//! a small per-target trait, in the spirit of lcc's code-generation
//! interface. The per-target modules supply conventions (frames, calls,
//! branches); everything else is shared. The 68020 and VAX share one
//! stack-argument generator ([`cisc::CiscGen`]) and differ only in
//! registers; the MIPS and SPARC keep their own link handling and
//! branches and share the rest of their register-argument conventions
//! (`risc`).

pub mod cisc;
pub mod m68k;
pub mod mips;
mod risc;
pub mod sparc;
pub mod vax;

use crate::asm::{AsmFn, AsmIns, FrameInfo};
use crate::ir::*;
use crate::lex::{CcError, CcResult, Pos};
use crate::types::{Sfx, Type};
use ldb_machine::{AluOp, Arch, Cond, FltSize, MachineData, MemSize, Op, Service};

/// Compilation options that affect code generation.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenOpts {
    /// Compile for debugging: plant a no-op at every stopping point.
    pub debug: bool,
    /// Disable the MIPS delay-slot filler entirely (for ablation).
    pub no_schedule: bool,
    /// Evaluate operands naively left-to-right instead of in
    /// Sethi-Ullman order (for ablation).
    pub naive_order: bool,
}

/// The per-target conventions.
pub trait TargetGen {
    /// Machine description.
    fn data(&self) -> &'static MachineData;
    /// Caller-saved integer scratch registers.
    fn iscratch(&self) -> &'static [u8];
    /// Caller-saved floating scratch registers.
    fn fscratch(&self) -> &'static [u8];
    /// Integer return-value register.
    fn rv(&self) -> u8 {
        self.data().rv
    }
    /// Floating return-value register.
    fn frv(&self) -> u8 {
        0
    }
    /// Assign storage to params/locals and compute the frame layout.
    /// `outgoing` is the number of bytes of stack arguments any call in the
    /// body needs; `spill_bytes` is the scratch spill area size.
    fn layout(&self, f: &mut FuncIr, outgoing: u32, spill_bytes: u32) -> FrameInfo;
    /// Emit the prologue (after the function label).
    fn prologue(&self, a: &mut AsmFn, f: &FuncIr);
    /// Emit the epilogue (after the epilogue label).
    fn epilogue(&self, a: &mut AsmFn, f: &FuncIr);
    /// Translate a frame-base-relative offset to (base register,
    /// displacement) for load/store addressing.
    fn slot(&self, frame: &FrameInfo, off: i32) -> (u8, i32);
    /// Conditional branch on two registers (signed comparison).
    fn branch(&self, a: &mut AsmFn, cond: Cond, rs: u8, rt: u8, label: u32);
    /// Branch when `rs` is (non)zero.
    fn branch_zero(&self, a: &mut AsmFn, rs: u8, if_zero: bool, label: u32);
    /// Emit a call with the argument values already in scratch registers.
    /// Responsible for marshaling (arg registers / pushes), the call, and
    /// stack cleanup.
    fn emit_call(
        &self,
        a: &mut AsmFn,
        name: &str,
        args: &[(Val, Sfx)],
        frame: &FrameInfo,
    ) -> CcResult<()>;
    /// Load a 32-bit constant.
    fn load_const(&self, a: &mut AsmFn, rd: u8, v: i64);
}

/// A value in a scratch register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Val {
    /// Integer scratch register.
    I(u8),
    /// Floating scratch register.
    F(u8),
}

/// Pick the target generator for an architecture.
pub fn target_gen(arch: Arch) -> &'static dyn TargetGen {
    match arch {
        Arch::Mips => &mips::MipsGen,
        Arch::Sparc => &sparc::SparcGen,
        Arch::M68k => &m68k::M68K_GEN,
        Arch::Vax => &vax::VAX_GEN,
    }
}

/// Generate assembler form for one function under linker name
/// `link_name` (static functions get unit-qualified names so multi-unit
/// programs link).
///
/// # Errors
/// Expressions too complex for the scratch set, too many register
/// arguments, and other per-target limits.
pub fn gen_function_named(
    arch: Arch,
    f: &mut FuncIr,
    opts: GenOpts,
    link_name: &str,
) -> CcResult<AsmFn> {
    let tg = target_gen(arch);
    // Compute the outgoing-argument area from the calls in the body.
    let outgoing = max_outgoing(tg, &f.body);
    let spill_bytes = tg.iscratch().len() as u32 * 4 + tg.fscratch().len() as u32 * 8;
    let frame = tg.layout(f, outgoing, spill_bytes);
    let mut a = AsmFn {
        name: f.name.clone(),
        link_name: link_name.to_string(),
        items: Vec::new(),
        frame,
        float_consts: Vec::new(),
        stop_count: f.stops.len() as u32,
    };
    tg.prologue(&mut a, f);
    let mut g = Gen {
        tg,
        f,
        ifree: tg.iscratch().to_vec(),
        ffree: tg.fscratch().to_vec(),
        labels: 0x4000_0000,
        debug: opts.debug,
        naive_order: opts.naive_order,
        fconsts: 0,
        pos: Pos::default(),
    };
    let body = f.body.clone();
    for s in &body {
        g.stmt(&mut a, s).map_err(|e| match e.pos {
            Pos { line: 0, col: 0 } => CcError { pos: g.pos, ..e },
            _ => e,
        })?;
    }
    a.push(AsmIns::Label(EPILOGUE));
    tg.epilogue(&mut a, f);
    Ok(a)
}

/// The label id reserved for the epilogue.
pub const EPILOGUE: u32 = 0;

fn max_outgoing(_tg: &dyn TargetGen, body: &[StmtIr]) -> u32 {
    fn tree_out(t: &Tree, max: &mut u32) {
        match t {
            Tree::Call(_, _, args) => {
                let mut bytes = 0u32;
                for a in args {
                    bytes = align_to(bytes, if a.suffix() == Sfx::D { 8 } else { 4 });
                    bytes += if a.suffix() == Sfx::D { 8 } else { 4 };
                    tree_out(a, max);
                }
                // RISC targets reserve at least four words.
                *max = (*max).max(bytes.max(16));
            }
            Tree::Indir(_, t) | Tree::Un(_, _, t) | Tree::Cvt(_, _, t) => tree_out(t, max),
            Tree::Asgn(_, a, b) | Tree::Bin(_, _, a, b) => {
                tree_out(a, max);
                tree_out(b, max);
            }
            _ => {}
        }
    }
    let mut max = 0;
    for s in body {
        match s {
            StmtIr::Expr(t) | StmtIr::CJump(t, _, _) | StmtIr::Ret(Some(t)) => {
                tree_out(t, &mut max)
            }
            _ => {}
        }
    }
    max
}

/// Sethi-Ullman register-need estimate for an expression tree: how many
/// scratch registers its evaluation holds at peak, assuming optimal
/// operand ordering. Calls are pessimized so they evaluate first (they
/// clobber scratches, forcing spills of anything held across them).
fn reg_need(t: &Tree) -> u32 {
    match t {
        Tree::Cnst(..) | Tree::Global(_) | Tree::Local(_) | Tree::Param(_) => 1,
        Tree::Indir(_, inner) | Tree::Un(_, _, inner) | Tree::Cvt(_, _, inner) => {
            reg_need(inner).max(1)
        }
        Tree::Bin(_, _, l, r) | Tree::Asgn(_, l, r) => {
            let (nl, nr) = (reg_need(l), reg_need(r));
            if nl == nr {
                nl + 1
            } else {
                nl.max(nr)
            }
        }
        Tree::Call(..) => 16,
    }
}

/// Round `v` up to a multiple of `a`.
pub fn align_to(v: u32, a: u32) -> u32 {
    v.div_ceil(a) * a
}

/// Is this variable eligible to live in a register?
fn reg_eligible(ty: &Type, addr_taken: bool) -> bool {
    !addr_taken
        && matches!(
            ty,
            Type::Int | Type::UInt | Type::Char | Type::UChar | Type::Short | Type::UShort | Type::Ptr(_)
        )
}

/// Does `f` keep any variable in register `r`?
fn uses_regvar(f: &FuncIr, r: u8) -> bool {
    f.locals.iter().any(|l| l.storage == Storage::Reg(r))
        || f.params.iter().any(|p| p.storage == Storage::Reg(r))
}

struct Gen<'a> {
    tg: &'a dyn TargetGen,
    f: &'a FuncIr,
    ifree: Vec<u8>,
    ffree: Vec<u8>,
    labels: u32,
    debug: bool,
    naive_order: bool,
    fconsts: u32,
    /// Source position of the statement being lowered (its stopping
    /// point's): where a code-generation error is reported.
    pos: Pos,
}

/// An addressing mode for a memory operand.
enum Place {
    /// base register + displacement; `owned` marks a scratch to free.
    Mem { base: u8, disp: i32, owned: bool },
    /// A register-resident variable.
    RegVar(u8),
}

fn gerr<T>(msg: impl Into<String>) -> CcResult<T> {
    Err(CcError { pos: Pos::default(), msg: msg.into() })
}

impl<'a> Gen<'a> {
    fn fresh_label(&mut self) -> u32 {
        self.labels += 1;
        self.labels
    }

    fn alloc_i(&mut self) -> CcResult<u8> {
        // Round-robin (allocate at the front, free to the back): adjacent
        // expressions use distinct scratch registers, which keeps false
        // dependences from blocking the MIPS delay-slot scheduler.
        if self.ifree.is_empty() {
            return gerr("expression too complex (out of integer scratch registers)");
        }
        Ok(self.ifree.remove(0))
    }

    fn alloc_f(&mut self) -> CcResult<u8> {
        match self.ffree.pop() {
            Some(r) => Ok(r),
            None => gerr("expression too complex (out of float scratch registers)"),
        }
    }

    fn free(&mut self, v: Val) {
        match v {
            Val::I(r) => self.ifree.push(r),
            Val::F(r) => self.ffree.push(r),
        }
    }

    fn busy_i(&self) -> Vec<u8> {
        self.tg.iscratch().iter().copied().filter(|r| !self.ifree.contains(r)).collect()
    }

    fn busy_f(&self) -> Vec<u8> {
        self.tg.fscratch().iter().copied().filter(|r| !self.ffree.contains(r)).collect()
    }

    // ----- statements -----

    fn stmt(&mut self, a: &mut AsmFn, s: &StmtIr) -> CcResult<()> {
        match s {
            StmtIr::Stop(idx) => {
                let stop = &self.f.stops[*idx as usize];
                self.pos = Pos { line: stop.line, col: stop.col };
                a.push(AsmIns::StopPoint(*idx));
                if self.debug {
                    a.op(Op::Nop);
                }
                Ok(())
            }
            StmtIr::Label(l) => {
                a.push(AsmIns::Label(*l));
                Ok(())
            }
            StmtIr::Jump(l) => {
                a.push(AsmIns::Jmp { label: *l });
                Ok(())
            }
            StmtIr::Expr(t) => {
                let v = self.eval(a, t)?;
                if let Some(v) = v {
                    self.free(v);
                }
                Ok(())
            }
            StmtIr::CJump(t, when, l) => self.cjump(a, t, *when, *l),
            StmtIr::Ret(None) => {
                a.push(AsmIns::Jmp { label: EPILOGUE });
                Ok(())
            }
            StmtIr::Ret(Some(t)) => {
                let v = self.eval_value(a, t)?;
                match v {
                    Val::I(r) => {
                        let rv = self.tg.rv();
                        if r != rv {
                            a.op(Op::Mov { rd: rv, rs: r });
                        }
                    }
                    Val::F(r) => {
                        let frv = self.tg.frv();
                        if r != frv {
                            a.op(Op::FMov { fd: frv, fs: r });
                        }
                    }
                }
                self.free(v);
                a.push(AsmIns::Jmp { label: EPILOGUE });
                Ok(())
            }
        }
    }

    // ----- condition lowering -----

    fn cjump(&mut self, a: &mut AsmFn, t: &Tree, when: bool, label: u32) -> CcResult<()> {
        if let Tree::Bin(op, sfx, lhs, rhs) = t {
            if op.is_cmp() {
                let cond = cond_of(*op);
                let cond = if when { cond } else { cond.negate() };
                if sfx.is_float() {
                    let (l, r) = self.eval_pair(a, lhs, rhs)?;
                    let (Val::F(fl), Val::F(fr)) = (l, r) else {
                        return gerr("float compare of non-float values");
                    };
                    let rd = self.alloc_i()?;
                    // Keep `when` inside the FCmp; branch on nonzero.
                    a.op(Op::FCmp { cond, rd, fs: fl, ft: fr });
                    self.tg.branch_zero(a, rd, false, label);
                    self.ifree.push(rd);
                    self.free(l);
                    self.free(r);
                    return Ok(());
                }
                let (l, r) = self.eval_pair(a, lhs, rhs)?;
                let (Val::I(rl), Val::I(rr)) = (l, r) else {
                    return gerr("integer compare of non-integer values");
                };
                if sfx.is_unsigned() && !matches!(cond, Cond::Eq | Cond::Ne) {
                    let rd = self.alloc_i()?;
                    self.set_unsigned_cmp(a, cond, rd, rl, rr);
                    self.tg.branch_zero(a, rd, false, label);
                    self.ifree.push(rd);
                } else {
                    self.tg.branch(a, cond, rl, rr, label);
                }
                self.free(l);
                self.free(r);
                return Ok(());
            }
        }
        // Plain value: branch on (non)zero.
        let v = self.eval_value(a, t)?;
        match v {
            Val::I(r) => self.tg.branch_zero(a, r, !when, label),
            Val::F(_) => {
                // Compare against 0.0.
                let zf = self.alloc_f()?;
                let zi = self.alloc_i()?;
                self.tg.load_const(a, zi, 0);
                a.op(Op::CvtIF { fd: zf, rs: zi });
                let rd = self.alloc_i()?;
                a.op(Op::FCmp { cond: Cond::Ne, rd, fs: freg(v), ft: zf });
                self.tg.branch_zero(a, rd, !when, label);
                self.ifree.push(rd);
                self.ifree.push(zi);
                self.ffree.push(zf);
            }
        }
        self.free(v);
        Ok(())
    }

    /// rd = (rs cond rt) for unsigned orderings, via Sltu.
    fn set_unsigned_cmp(&mut self, a: &mut AsmFn, cond: Cond, rd: u8, rs: u8, rt: u8) {
        match cond {
            Cond::Lt => a.op(Op::Alu { op: AluOp::Sltu, rd, rs, rt }),
            Cond::Gt => a.op(Op::Alu { op: AluOp::Sltu, rd, rs: rt, rt: rs }),
            Cond::Ge => {
                a.op(Op::Alu { op: AluOp::Sltu, rd, rs, rt });
                a.op(Op::AluI { op: AluOp::Xor, rd, rs: rd, imm: 1 });
            }
            Cond::Le => {
                a.op(Op::Alu { op: AluOp::Sltu, rd, rs: rt, rt: rs });
                a.op(Op::AluI { op: AluOp::Xor, rd, rs: rd, imm: 1 });
            }
            Cond::Eq | Cond::Ne => unreachable!("handled as signed"),
        }
    }

    /// rd = (rs cond rt), signed, via branches (works on every target).
    fn set_cmp(&mut self, a: &mut AsmFn, cond: Cond, rd: u8, rs: u8, rt: u8) {
        let ltrue = self.fresh_label();
        let lend = self.fresh_label();
        self.tg.branch(a, cond, rs, rt, ltrue);
        self.tg.load_const(a, rd, 0);
        a.push(AsmIns::Jmp { label: lend });
        a.push(AsmIns::Label(ltrue));
        self.tg.load_const(a, rd, 1);
        a.push(AsmIns::Label(lend));
    }

    // ----- expression evaluation -----

    /// Evaluate for value; void trees are an error here.
    fn eval_value(&mut self, a: &mut AsmFn, t: &Tree) -> CcResult<Val> {
        match self.eval(a, t)? {
            Some(v) => Ok(v),
            None => gerr("void value used"),
        }
    }

    /// Evaluate a tree; `None` for void calls.
    fn eval(&mut self, a: &mut AsmFn, t: &Tree) -> CcResult<Option<Val>> {
        match t {
            Tree::Cnst(sfx, c) => match (sfx.is_float(), c) {
                (true, Const::F(v)) => {
                    let fd = self.alloc_f()?;
                    self.float_const(a, fd, *v)?;
                    Ok(Some(Val::F(fd)))
                }
                (true, Const::I(v)) => {
                    let fd = self.alloc_f()?;
                    self.float_const(a, fd, *v as f64)?;
                    Ok(Some(Val::F(fd)))
                }
                (false, Const::I(v)) => {
                    let rd = self.alloc_i()?;
                    self.tg.load_const(a, rd, *v);
                    Ok(Some(Val::I(rd)))
                }
                (false, Const::F(v)) => {
                    let rd = self.alloc_i()?;
                    self.tg.load_const(a, rd, *v as i64);
                    Ok(Some(Val::I(rd)))
                }
            },
            Tree::Global(name) => {
                let rd = self.alloc_i()?;
                a.push(AsmIns::LoadAddr { rd, sym: name.clone(), off: 0 });
                Ok(Some(Val::I(rd)))
            }
            Tree::Local(_) | Tree::Param(_) => {
                let place = self.place_of(a, t)?;
                match place {
                    Place::Mem { base, disp, owned } => {
                        let rd = if owned { base } else { self.alloc_i()? };
                        if disp != 0 || !owned {
                            let imm = i16::try_from(disp)
                                .map_err(|_| CcError {
                                    pos: Pos::default(),
                                    msg: format!("frame offset {disp} too large"),
                                })?;
                            a.op(Op::AluI { op: AluOp::Add, rd, rs: base, imm });
                        }
                        Ok(Some(Val::I(rd)))
                    }
                    Place::RegVar(_) => gerr("address of a register variable"),
                }
            }
            Tree::Indir(sfx, addr) => {
                let place = self.place_of(a, addr)?;
                match place {
                    Place::RegVar(r) => {
                        let rd = self.alloc_i()?;
                        a.op(Op::Mov { rd, rs: r });
                        Ok(Some(Val::I(rd)))
                    }
                    Place::Mem { base, disp, owned } => {
                        let disp16 = i16::try_from(disp).map_err(|_| CcError {
                            pos: Pos::default(),
                            msg: "displacement too large".into(),
                        })?;
                        let v = if sfx.is_float() {
                            let fd = self.alloc_f()?;
                            let size =
                                if *sfx == Sfx::F { FltSize::F4 } else { FltSize::F8 };
                            a.op(Op::FLoad { size, fd, base, off: disp16 });
                            Val::F(fd)
                        } else {
                            let rd = if owned { base } else { self.alloc_i()? };
                            let (size, signed) = mem_kind(*sfx);
                            a.op(Op::Load { size, signed, rd, base, off: disp16 });
                            if owned {
                                return Ok(Some(Val::I(rd)));
                            }
                            Val::I(rd)
                        };
                        if owned {
                            self.ifree.push(base);
                        }
                        Ok(Some(v))
                    }
                }
            }
            Tree::Asgn(sfx, addr, val) => {
                let v = self.eval_value(a, val)?;
                let place = self.place_of(a, addr)?;
                match place {
                    Place::RegVar(r) => {
                        let Val::I(rs) = v else { return gerr("float into register variable") };
                        a.op(Op::Mov { rd: r, rs });
                    }
                    Place::Mem { base, disp, owned } => {
                        let disp16 = i16::try_from(disp).map_err(|_| CcError {
                            pos: Pos::default(),
                            msg: "displacement too large".into(),
                        })?;
                        match v {
                            Val::F(fs) => {
                                let size =
                                    if *sfx == Sfx::F { FltSize::F4 } else { FltSize::F8 };
                                a.op(Op::FStore { size, fs, base, off: disp16 });
                            }
                            Val::I(rs) => {
                                let (size, _) = mem_kind(*sfx);
                                a.op(Op::Store { size, rs, base, off: disp16 });
                            }
                        }
                        if owned {
                            self.ifree.push(base);
                        }
                    }
                }
                Ok(Some(v))
            }
            Tree::Bin(op, sfx, lhs, rhs) => self.bin(a, *op, *sfx, lhs, rhs).map(Some),
            Tree::Un(op, sfx, inner) => {
                let v = self.eval_value(a, inner)?;
                match (op, v) {
                    (UnIr::Neg, Val::F(fs)) => {
                        a.op(Op::FNeg { fd: fs, fs });
                        Ok(Some(v))
                    }
                    (UnIr::Neg, Val::I(rs)) => {
                        let _ = sfx;
                        if let Some(z) = self.tg.data().zero_reg {
                            a.op(Op::Alu { op: AluOp::Sub, rd: rs, rs: z, rt: rs });
                        } else {
                            // No zero register: multiply by -1 (one
                            // instruction, no scratch pressure).
                            a.op(Op::AluI { op: AluOp::Mul, rd: rs, rs, imm: -1 });
                        }
                        Ok(Some(v))
                    }
                    (UnIr::Bcom, Val::I(rs)) => {
                        // Logical immediates zero-extend, so synthesize
                        // ~x as -x - 1 (no scratch pressure).
                        if let Some(z) = self.tg.data().zero_reg {
                            a.op(Op::Alu { op: AluOp::Sub, rd: rs, rs: z, rt: rs });
                        } else {
                            a.op(Op::AluI { op: AluOp::Mul, rd: rs, rs, imm: -1 });
                        }
                        a.op(Op::AluI { op: AluOp::Add, rd: rs, rs, imm: -1 });
                        Ok(Some(v))
                    }
                    (UnIr::Bcom, Val::F(_)) => gerr("~ on a float"),
                }
            }
            Tree::Cvt(from, to, inner) => {
                let v = self.eval_value(a, inner)?;
                self.convert(a, v, *from, *to).map(Some)
            }
            Tree::Call(sfx, name, args) => self.call(a, *sfx, name, args),
        }
    }

    fn float_const(&mut self, a: &mut AsmFn, fd: u8, v: f64) -> CcResult<()> {
        // Small integral values convert from an immediate; others come from
        // the literal pool.
        if v == v.trunc() && (-32768.0..32768.0).contains(&v) {
            let ri = self.alloc_i()?;
            self.tg.load_const(a, ri, v as i64);
            a.op(Op::CvtIF { fd, rs: ri });
            self.ifree.push(ri);
            return Ok(());
        }
        self.fconsts += 1;
        let label = format!("Lf.{}.{}", a.link_name, self.fconsts);
        a.float_consts.push((label.clone(), v));
        let ra = self.alloc_i()?;
        a.push(AsmIns::LoadAddr { rd: ra, sym: label, off: 0 });
        a.op(Op::FLoad { size: FltSize::F8, fd, base: ra, off: 0 });
        self.ifree.push(ra);
        Ok(())
    }

    /// Resolve an address tree to an addressing mode.
    fn place_of(&mut self, a: &mut AsmFn, addr: &Tree) -> CcResult<Place> {
        match addr {
            Tree::Local(id) => {
                let var = &self.f.locals[*id as usize];
                self.place_of_storage(a, &var.storage)
            }
            Tree::Param(id) => {
                let var = &self.f.params[*id as usize];
                self.place_of_storage(a, &var.storage)
            }
            Tree::Global(name) => {
                let rd = self.alloc_i()?;
                a.push(AsmIns::LoadAddr { rd, sym: name.clone(), off: 0 });
                Ok(Place::Mem { base: rd, disp: 0, owned: true })
            }
            // base + constant folds into the displacement.
            Tree::Bin(BinIr::Add, Sfx::P, base, rhs) => {
                if let Tree::Cnst(_, Const::I(k)) = rhs.as_ref() {
                    if let Ok(k32) = i32::try_from(*k) {
                        let inner = self.place_of(a, base)?;
                        if let Place::Mem { base, disp, owned } = inner {
                            if let Some(d2) = disp.checked_add(k32) {
                                if i16::try_from(d2).is_ok() {
                                    return Ok(Place::Mem { base, disp: d2, owned });
                                }
                            }
                            // Displacement too large: compute explicitly.
                            let rd = if owned { base } else { self.alloc_i()? };
                            let rk = self.alloc_i()?;
                            self.tg.load_const(a, rk, i64::from(disp) + *k);
                            a.op(Op::Alu { op: AluOp::Add, rd, rs: base, rt: rk });
                            self.ifree.push(rk);
                            return Ok(Place::Mem { base: rd, disp: 0, owned: true });
                        }
                        unreachable!("place_of returned RegVar for a P-add base");
                    }
                }
                let v = self.eval_value(a, addr)?;
                let Val::I(r) = v else { return gerr("float used as address") };
                Ok(Place::Mem { base: r, disp: 0, owned: true })
            }
            _ => {
                let v = self.eval_value(a, addr)?;
                let Val::I(r) = v else { return gerr("float used as address") };
                Ok(Place::Mem { base: r, disp: 0, owned: true })
            }
        }
    }

    fn place_of_storage(&mut self, a: &mut AsmFn, st: &Storage) -> CcResult<Place> {
        match st {
            Storage::Reg(r) => Ok(Place::RegVar(*r)),
            Storage::Frame(off) => {
                let (base, disp) = self.tg.slot(&a.frame, *off);
                Ok(Place::Mem { base, disp, owned: false })
            }
            Storage::Static(name) => {
                let rd = self.alloc_i()?;
                a.push(AsmIns::LoadAddr { rd, sym: name.clone(), off: 0 });
                Ok(Place::Mem { base: rd, disp: 0, owned: true })
            }
            Storage::Unassigned => gerr("storage was never assigned"),
        }
    }

    /// Evaluate two operands in Sethi-Ullman order: the side that needs
    /// more scratch registers first, so the other side's single live
    /// value does not sit across the expensive computation. Returns the
    /// values in (lhs, rhs) roles regardless of evaluation order.
    fn eval_pair(&mut self, a: &mut AsmFn, lhs: &Tree, rhs: &Tree) -> CcResult<(Val, Val)> {
        if !self.naive_order && reg_need(rhs) > reg_need(lhs) {
            let r = self.eval_value(a, rhs)?;
            let l = self.eval_value(a, lhs)?;
            Ok((l, r))
        } else {
            let l = self.eval_value(a, lhs)?;
            let r = self.eval_value(a, rhs)?;
            Ok((l, r))
        }
    }

    fn bin(
        &mut self,
        a: &mut AsmFn,
        op: BinIr,
        sfx: Sfx,
        lhs: &Tree,
        rhs: &Tree,
    ) -> CcResult<Val> {
        // Comparisons materialize 0/1.
        if op.is_cmp() {
            let cond = cond_of(op);
            if sfx.is_float() {
                let (l, r) = self.eval_pair(a, lhs, rhs)?;
                let rd = self.alloc_i()?;
                a.op(Op::FCmp { cond, rd, fs: freg(l), ft: freg(r) });
                self.free(l);
                self.free(r);
                return Ok(Val::I(rd));
            }
            let (l, r) = self.eval_pair(a, lhs, rhs)?;
            let (Val::I(rl), Val::I(rr)) = (l, r) else {
                return gerr("integer compare of floats");
            };
            let rd = self.alloc_i()?;
            if sfx.is_unsigned() && !matches!(cond, Cond::Eq | Cond::Ne) {
                self.set_unsigned_cmp(a, cond, rd, rl, rr);
            } else {
                self.set_cmp(a, cond, rd, rl, rr);
            }
            self.free(l);
            self.free(r);
            return Ok(Val::I(rd));
        }
        if sfx.is_float() {
            let (l, r) = self.eval_pair(a, lhs, rhs)?;
            let fop = match op {
                BinIr::Add => ldb_machine::FaluOp::Add,
                BinIr::Sub => ldb_machine::FaluOp::Sub,
                BinIr::Mul => ldb_machine::FaluOp::Mul,
                BinIr::Div => ldb_machine::FaluOp::Div,
                other => return gerr(format!("float {other:?}")),
            };
            a.op(Op::FAlu { op: fop, fd: freg(l), fs: freg(l), ft: freg(r) });
            self.free(r);
            return Ok(l);
        }
        let aop = match op {
            BinIr::Add => AluOp::Add,
            BinIr::Sub => AluOp::Sub,
            BinIr::Mul => AluOp::Mul,
            BinIr::Div => AluOp::Div,
            BinIr::Mod => AluOp::Rem,
            BinIr::Band => AluOp::And,
            BinIr::Bor => AluOp::Or,
            BinIr::Bxor => AluOp::Xor,
            BinIr::Lsh => AluOp::Sll,
            BinIr::Rsh => {
                if sfx.is_unsigned() {
                    AluOp::Srl
                } else {
                    AluOp::Sra
                }
            }
            _ => unreachable!("comparisons handled above"),
        };
        // Constant right operand folds into an immediate form.
        if let Tree::Cnst(_, Const::I(k)) = rhs {
            let fits = i16::try_from(*k).is_ok();
            let imm_ok = matches!(
                aop,
                AluOp::Add | AluOp::Mul | AluOp::Sll | AluOp::Srl | AluOp::Sra
            ) || (matches!(aop, AluOp::And | AluOp::Or | AluOp::Xor) && *k >= 0);
            if fits && imm_ok {
                let l = self.eval_value(a, lhs)?;
                let Val::I(rl) = l else { return gerr("int op on float") };
                a.op(Op::AluI { op: aop, rd: rl, rs: rl, imm: *k as i16 });
                return Ok(l);
            }
            if aop == AluOp::Sub && i16::try_from(-*k).is_ok() {
                let l = self.eval_value(a, lhs)?;
                let Val::I(rl) = l else { return gerr("int op on float") };
                a.op(Op::AluI { op: AluOp::Add, rd: rl, rs: rl, imm: (-*k) as i16 });
                return Ok(l);
            }
        }
        let (l, r) = self.eval_pair(a, lhs, rhs)?;
        let (Val::I(rl), Val::I(rr)) = (l, r) else { return gerr("int op on float") };
        a.op(Op::Alu { op: aop, rd: rl, rs: rl, rt: rr });
        self.free(r);
        Ok(l)
    }

    fn convert(&mut self, a: &mut AsmFn, v: Val, from: Sfx, to: Sfx) -> CcResult<Val> {
        match (from.is_float(), to.is_float()) {
            (true, true) => Ok(v), // F<->D: registers hold doubles
            (false, false) => {
                let Val::I(r) = v else { return gerr("conversion mismatch") };
                match to {
                    Sfx::C => {
                        a.op(Op::AluI { op: AluOp::Sll, rd: r, rs: r, imm: 24 });
                        a.op(Op::AluI { op: AluOp::Sra, rd: r, rs: r, imm: 24 });
                    }
                    Sfx::S => {
                        a.op(Op::AluI { op: AluOp::Sll, rd: r, rs: r, imm: 16 });
                        a.op(Op::AluI { op: AluOp::Sra, rd: r, rs: r, imm: 16 });
                    }
                    Sfx::Uc => a.op(Op::AluI { op: AluOp::And, rd: r, rs: r, imm: 0xff }),
                    Sfx::Us => {
                        // -1i16 zero-extends to 0xffff in logical
                        // immediates.
                        a.op(Op::AluI { op: AluOp::And, rd: r, rs: r, imm: -1 });
                    }
                    _ => {} // widening / same width: the register form is canonical
                }
                Ok(v)
            }
            (false, true) => {
                let Val::I(rs) = v else { return gerr("conversion mismatch") };
                let fd = self.alloc_f()?;
                a.op(Op::CvtIF { fd, rs });
                self.ifree.push(rs);
                Ok(Val::F(fd))
            }
            (true, false) => {
                let Val::F(fs) = v else { return gerr("conversion mismatch") };
                let rd = self.alloc_i()?;
                a.op(Op::CvtFI { rd, fs });
                self.ffree.push(fs);
                let v = Val::I(rd);
                // Narrow if the destination is sub-word.
                if matches!(to, Sfx::C | Sfx::Uc | Sfx::S | Sfx::Us) {
                    return self.convert(a, v, Sfx::I, to);
                }
                Ok(v)
            }
        }
    }

    fn call(
        &mut self,
        a: &mut AsmFn,
        sfx: Sfx,
        name: &str,
        args: &[Tree],
    ) -> CcResult<Option<Val>> {
        // Built-in host services expand inline.
        if let Some(service) = builtin_service(name) {
            let arg = args.first();
            let v = match arg {
                Some(t) => Some(self.eval_value(a, t)?),
                None => None,
            };
            match v {
                Some(Val::I(r)) => {
                    let sr = self.tg.data().syscall_arg_reg;
                    if r != sr {
                        a.op(Op::Mov { rd: sr, rs: r });
                    }
                }
                Some(Val::F(f)) if f != 0 => {
                    a.op(Op::FMov { fd: 0, fs: f });
                }
                Some(Val::F(_)) => {}
                None => {}
            }
            a.op(Op::Syscall(service.number()));
            if let Some(v) = v {
                self.free(v);
            }
            return Ok(None);
        }
        // Spill every busy scratch: the callee may clobber them.
        let busy_i = self.busy_i();
        let busy_f = self.busy_f();
        let spill = a.frame.spill_base;
        let mut saved = Vec::new();
        for (k, &r) in busy_i.iter().enumerate() {
            let off = spill + 4 * k as i32;
            let (base, disp) = self.tg.slot(&a.frame, off);
            a.op(Op::Store { size: MemSize::B4, rs: r, base, off: disp as i16 });
            saved.push((Val::I(r), off));
        }
        let ni = busy_i.len();
        for (k, &r) in busy_f.iter().enumerate() {
            let off = spill + 4 * ni as i32 + 8 * k as i32;
            let (base, disp) = self.tg.slot(&a.frame, off);
            a.op(Op::FStore { size: FltSize::F8, fs: r, base, off: disp as i16 });
            saved.push((Val::F(r), off));
        }
        // Evaluate the arguments (into scratches; the target moves them).
        let mut vals = Vec::with_capacity(args.len());
        for t in args {
            let v = self.eval_value(a, t)?;
            vals.push((v, t.suffix()));
        }
        let frame = a.frame.clone();
        self.tg.emit_call(a, name, &vals, &frame)?;
        for (v, _) in &vals {
            self.free(*v);
        }
        // Move the result out of the return register before restoring.
        let result = match sfx {
            Sfx::V => None,
            s if s.is_float() => {
                let fd = self.alloc_f()?;
                a.op(Op::FMov { fd, fs: self.tg.frv() });
                Some(Val::F(fd))
            }
            _ => {
                let rd = self.alloc_i()?;
                a.op(Op::Mov { rd, rs: self.tg.rv() });
                Some(Val::I(rd))
            }
        };
        // Restore the spilled scratches.
        for (v, off) in &saved {
            let (base, disp) = self.tg.slot(&a.frame, *off);
            match v {
                Val::I(r) => {
                    a.op(Op::Load {
                        size: MemSize::B4,
                        signed: true,
                        rd: *r,
                        base,
                        off: disp as i16,
                    });
                }
                Val::F(r) => {
                    a.op(Op::FLoad { size: FltSize::F8, fd: *r, base, off: disp as i16 });
                }
            }
        }
        Ok(result)
    }
}

/// Map a comparison operator to a branch condition.
pub fn cond_of(op: BinIr) -> Cond {
    match op {
        BinIr::Eq => Cond::Eq,
        BinIr::Ne => Cond::Ne,
        BinIr::Lt => Cond::Lt,
        BinIr::Le => Cond::Le,
        BinIr::Gt => Cond::Gt,
        BinIr::Ge => Cond::Ge,
        _ => unreachable!("not a comparison"),
    }
}

/// Memory access kind for an integer suffix.
pub fn mem_kind(sfx: Sfx) -> (MemSize, bool) {
    match sfx {
        Sfx::C => (MemSize::B1, true),
        Sfx::Uc => (MemSize::B1, false),
        Sfx::S => (MemSize::B2, true),
        Sfx::Us => (MemSize::B2, false),
        _ => (MemSize::B4, true),
    }
}

fn freg(v: Val) -> u8 {
    match v {
        Val::F(r) => r,
        Val::I(r) => r,
    }
}

/// The host service behind a builtin call name, if any.
pub fn builtin_service(name: &str) -> Option<Service> {
    Some(match name {
        "$putint" => Service::PutInt,
        "$putstr" => Service::PutStr,
        "$putchar" => Service::PutChar,
        "$putflt" => Service::PutFlt,
        "$exit" => Service::Exit,
        "$pause" => Service::Pause,
        _ => return None,
    })
}
