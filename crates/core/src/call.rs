//! Debugger-initiated calls: stage the arguments by the target's own
//! convention, point the return address at a sentinel no code is loaded
//! at, and run the target until returning there faults.

use crate::debugger::Ldb;
use crate::motion::{Gait, Motion, StopEvent, Until};
use crate::symtab;
use crate::LdbError;

/// One argument to a debugger-initiated call.
#[derive(Debug, Clone, Copy)]
pub enum CallArg {
    /// An integer (any C integer type; truncated to 32 bits).
    Int(i64),
    /// A double (C `double`; `float` parameters are not supported).
    Double(f64),
}

/// What a debugger-initiated call left in the return registers. Which
/// field is meaningful depends on the callee's return type (the debugger
/// reads both; C callees set exactly one).
#[derive(Debug, Clone, Copy)]
pub struct CallReturn {
    /// The integer return register.
    pub int: i64,
    /// The float return register.
    pub float: f64,
}

impl Ldb {
    /// Call `func` in the target with integer arguments and return the
    /// integer result — the debugger sets up a call frame by the target's
    /// own convention (argument registers and a link register on the RISC
    /// targets; pushed arguments and a pushed return address on the CISC
    /// ones), points the return address at an unmapped sentinel, runs the
    /// target, and catches the fault the return takes. The pre-call
    /// context is saved first and restored afterwards, so the stopped
    /// program is undisturbed.
    ///
    /// # Errors
    /// Unknown procedure; a breakpoint or unrelated fault during the call
    /// (the context is restored before the error returns); nub failures.
    pub fn call_function(&mut self, func: &str, args: &[i64]) -> Result<i64, LdbError> {
        let args: Vec<CallArg> = args.iter().map(|&v| CallArg::Int(v)).collect();
        Ok(self.call_function_typed(func, &args)?.int)
    }

    /// Call `func` and format the meaningful return register, chosen by
    /// the return type recorded in the symbol table's `/decl` pattern
    /// (`double %s()` vs `int %s()`).
    ///
    /// # Errors
    /// As [`Ldb::call_function`].
    pub fn call_and_format(&mut self, func: &str, args: &[CallArg]) -> Result<String, LdbError> {
        let floaty = self.callee_returns_float(func);
        let r = self.call_function_typed(func, args)?;
        Ok(if floaty { crate::psops::fmt_f64(r.float) } else { r.int.to_string() })
    }

    /// Coerce arguments to the parameter types the symbol table records
    /// (`/&argtypes`), checking arity — ints promote to doubles and vice
    /// versa, as a prototyped C call would. Procedures without recorded
    /// parameter types (none in this compiler's output) pass through.
    fn coerce_call_args(
        &mut self,
        id: usize,
        func: &str,
        args: &[CallArg],
    ) -> Result<Vec<CallArg>, LdbError> {
        let Some(entry) = self.targets[id].loader.proc_entry_by_name(func) else {
            return Ok(args.to_vec());
        };
        let Ok(d) = entry.as_dict() else { return Ok(args.to_vec()) };
        let Some(at) = d.borrow().get_name("&argtypes").cloned() else {
            return Ok(args.to_vec());
        };
        let Ok(at) = at.as_array() else { return Ok(args.to_vec()) };
        let types = at.borrow().clone();
        if types.len() != args.len() {
            return Err(LdbError::msg(format!(
                "`{func}` takes {} argument(s), got {}",
                types.len(),
                args.len()
            )));
        }
        let mut out = Vec::with_capacity(args.len());
        for (a, t) in args.iter().zip(&types) {
            let decl = t
                .as_dict()
                .ok()
                .and_then(|d| d.borrow().get_name("decl").cloned())
                .and_then(|o| o.as_string().ok());
            // Single-precision parameters occupy 4 bytes on the stack —
            // a different staging the debugger does not implement.
            if decl.as_deref().is_some_and(|p| p.starts_with("float ")) {
                return Err(LdbError::msg(format!(
                    "`{func}` takes a `float` parameter, which debugger calls \
                     do not support (use a `double` wrapper)"
                )));
            }
            let wants_float = decl.is_some_and(|p| p.starts_with("double "));
            out.push(match (wants_float, a) {
                (true, CallArg::Int(v)) => CallArg::Double(*v as f64),
                (false, CallArg::Double(d)) => CallArg::Int(*d as i64),
                _ => *a,
            });
        }
        Ok(out)
    }

    /// Whether the symbol table says `func` returns a floating value.
    fn callee_returns_float(&mut self, func: &str) -> bool {
        let Ok(id) = self.cur_id() else { return false };
        self.force_pending_for(id, func);
        let Some(entry) = self.targets[id].loader.proc_entry_by_name(func) else {
            return false;
        };
        let Some(ty) = symtab::entry_type(&entry) else { return false };
        let Ok(d) = ty.as_dict() else { return false };
        let decl = d.borrow().get_name("decl").and_then(|o| o.as_string().ok());
        decl.is_some_and(|p| p.starts_with("double ") || p.starts_with("float "))
    }

    /// [`Ldb::call_function`] with mixed integer/double arguments and both
    /// return registers reported.
    ///
    /// # Errors
    /// As [`Ldb::call_function`].
    pub fn call_function_typed(
        &mut self,
        func: &str,
        args: &[CallArg],
    ) -> Result<CallReturn, LdbError> {
        /// Return address no code is ever loaded at: returning to it
        /// faults, which is how the debugger regains control.
        const SENTINEL: u32 = 0x0fff_fff0;
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        // Argument coercion and the return-type probe read the callee's
        // symbol-table entry; force its module in if still pending.
        self.force_pending_for(id, func);
        let entry_pc = {
            let t = &self.targets[id];
            // Externs carry a leading underscore in the loader table.
            t.loader
                .proc_addr(&format!("_{func}"))
                .or_else(|| t.loader.proc_addr(func))
                .ok_or_else(|| LdbError::msg(format!("no procedure `{func}`")))?
        };
        let args = self.coerce_call_args(id, func, args)?;
        let pre_stop = self.targets[id].stop;
        let (ctx_addr, saved) = self.save_context(id)?;
        let result = self.run_call(id, ctx_addr, entry_pc, &args, SENTINEL);
        // Restore the pre-call context whatever happened, then rebuild
        // the frame view from it. A target that exited during the call is
        // gone: nothing to restore, and run_call's error says why.
        let t = &self.targets[id];
        let Some(stop) = t.stop else { return result };
        for (i, word) in saved.iter().enumerate() {
            t.client.borrow_mut().store('d', stop.context + i as u32 * 4, 4, *word)?;
        }
        // The stop state is part of the pre-call context: the sentinel
        // fault must not linger as the announced signal, or the next
        // resume would treat a fired-trap stop as a plain one and let the
        // breakpoint re-fire.
        if let (Some(pre), Some(cur)) = (pre_stop, self.targets[id].stop.as_mut()) {
            cur.sig = pre.sig;
            cur.code = pre.code;
        }
        let t = &self.targets[id];
        // The restore stores went around the cache; drop stale data lines
        // before the frame view is rebuilt from the restored context.
        t.invalidate_data_cache();
        self.after_stop(id)?;
        result
    }

    /// The integer return register at the current stop, sign-extended
    /// from 32 bits.
    pub(crate) fn return_int(&self, id: usize) -> Result<i64, LdbError> {
        let t = &self.targets[id];
        let stop = t.stop.ok_or_else(|| LdbError::msg("target gone"))?;
        let rv = t.client.borrow_mut().fetch(
            'd',
            stop.context + t.data.ctx.reg_offset + t.data.rv as u32 * 4,
            4,
        )?;
        Ok(rv as u32 as i32 as i64)
    }

    /// Snapshot the whole context block (pc + registers) as 4-byte words.
    fn save_context(&mut self, id: usize) -> Result<(u32, Vec<u64>), LdbError> {
        let t = &self.targets[id];
        let stop =
            t.stop.ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        let n = t.data.ctx.size.div_ceil(4);
        let mut words = Vec::with_capacity(n as usize);
        for i in 0..n {
            words.push(t.client.borrow_mut().fetch('d', stop.context + i * 4, 4)?);
        }
        Ok((stop.context, words))
    }

    /// Stage the arguments, redirect the pc, and run until the sentinel
    /// return fault. Leaves the target stopped (at the sentinel on
    /// success).
    ///
    /// Argument staging mirrors the compiler back ends exactly: on the
    /// RISC targets integers go to the argument registers while doubles
    /// land in the caller's outgoing area at `sp + slot` (the shared slot
    /// walk of `emit_call`); on the CISC targets everything is pushed
    /// right-to-left and the sentinel plays the return address the call
    /// instruction would have pushed.
    fn run_call(
        &mut self,
        id: usize,
        ctx: u32,
        entry_pc: u32,
        args: &[CallArg],
        sentinel: u32,
    ) -> Result<CallReturn, LdbError> {
        let t = &self.targets[id];
        let data = t.data;
        let regs = data.ctx.reg_offset;
        let reg_addr = |r: u8| ctx + regs + r as u32 * 4;
        let align8 = |v: u32| (v + 7) & !7;
        let mut client = t.client.borrow_mut();
        match data.ra {
            // A link register: integer arguments go to the argument
            // registers, doubles to the caller's outgoing area.
            Some(ra) => {
                let arg_regs = data.arg_regs;
                let ints = args.iter().filter(|a| matches!(a, CallArg::Int(_))).count();
                if ints > arg_regs.len() {
                    return Err(LdbError::msg(format!(
                        "at most {} integer arguments on {}",
                        arg_regs.len(),
                        t.arch
                    )));
                }
                let sp = client.fetch('d', reg_addr(data.sp), 4)? as u32;
                let mut slot = 0u32;
                let mut int_args = 0usize;
                for a in args {
                    match a {
                        CallArg::Int(v) => {
                            client.store('d', reg_addr(arg_regs[int_args]), 4, *v as u32 as u64)?;
                            int_args += 1;
                            slot += 4;
                        }
                        CallArg::Double(d) => {
                            slot = align8(slot);
                            client.store('d', sp + slot, 8, d.to_bits())?;
                            slot += 8;
                        }
                    }
                }
                client.store('d', reg_addr(ra), 4, sentinel as u64)?;
            }
            // The return address lives on the stack: push everything.
            None => {
                let mut sp = client.fetch('d', reg_addr(data.sp), 4)? as u32;
                for a in args.iter().rev() {
                    match a {
                        CallArg::Int(v) => {
                            sp = sp.wrapping_sub(4);
                            client.store('d', sp, 4, *v as u32 as u64)?;
                        }
                        CallArg::Double(d) => {
                            sp = sp.wrapping_sub(8);
                            client.store('d', sp, 8, d.to_bits())?;
                        }
                    }
                }
                // What the call instruction would have pushed.
                sp = sp.wrapping_sub(4);
                client.store('d', sp, 4, sentinel as u64)?;
                client.store('d', reg_addr(data.sp), 4, sp as u64)?;
            }
        }
        client.store('d', ctx + data.ctx.pc_offset, 4, entry_pc as u64)?;
        drop(client);
        match self.resume(id, Motion::new(Gait::Run, Until::First))? {
            StopEvent::Fault { code, .. } if code == sentinel => {
                let int = self.return_int(id)?;
                let t = &self.targets[id];
                let stop = t.stop.ok_or_else(|| LdbError::msg("target gone"))?;
                let fbits =
                    t.client.borrow_mut().fetch('d', stop.context + t.data.ctx.freg_offset, 8)?;
                Ok(CallReturn { int, float: f64::from_bits(fbits) })
            }
            StopEvent::Exited(c) => {
                Err(LdbError::msg(format!("target exited ({c}) during the call")))
            }
            other => Err(LdbError::msg(format!("call interrupted before returning: {other:?}"))),
        }
    }
}
