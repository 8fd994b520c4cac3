//! The motion engine: every command that resumes the target is a
//! [`Motion`] run by one loop, [`Ldb::resume`]. A motion says how to run
//! ([`Gait`]), when to stop ([`Until`]), what to plant meanwhile
//! ([`Temps`]) and how many stops it may take. Only the loop does these,
//! so each lives in one place: the connection guard, the trap
//! choreography, the wait on the nub, the stop pipeline and its `stop`
//! record, the `--checkpoint-every` seams, breakpoint conditions, and
//! lifting temps on every exit path. A reverse motion is a rewind —
//! restore a checkpoint, replay to an exact step count — under the same
//! stop pipeline and rule.

use ldb_nub::{NubEvent, Sig};
use ldb_trace::{Layer, Severity};

use crate::breakpoint::ResumeKind;
use crate::debugger::Ldb;
use crate::symtab;
use crate::target::Stop;
use crate::LdbError;

/// Why the target stopped, for the client.
#[derive(Debug, Clone, PartialEq)]
pub enum StopEvent {
    /// Stopped at the startup pause (before `main`).
    Paused,
    /// Stopped because the debugger attached.
    Attached,
    /// Hit a breakpoint.
    Breakpoint {
        /// Enclosing procedure (source name).
        func: String,
        /// Source line of the stopping point.
        line: u32,
        /// The stopping-point address.
        addr: u32,
    },
    /// Stopped after a single step.
    Stepped {
        /// Enclosing procedure.
        func: String,
        /// Nearest stopping-point line at or before the pc.
        line: u32,
        /// The new pc.
        addr: u32,
    },
    /// A watched variable changed value (software watchpoint driven by
    /// the nub's step extension, paper Sec. 7.1).
    Watchpoint {
        /// The watched name.
        name: String,
        /// Printed value before the change.
        old: String,
        /// Printed value after the change.
        new: String,
        /// Enclosing procedure at the stop.
        func: String,
        /// Nearest stopping-point line at or before the pc.
        line: u32,
        /// The pc after the changing instruction.
        addr: u32,
    },
    /// The target faulted.
    Fault {
        /// Signal name.
        sig: String,
        /// Auxiliary code (fault address or pc).
        code: u32,
    },
    /// The target exited.
    Exited(i32),
}

impl StopEvent {
    /// A short stable name for logs and trace journals.
    pub fn kind_name(&self) -> &'static str {
        match self {
            StopEvent::Paused => "paused",
            StopEvent::Attached => "attached",
            StopEvent::Breakpoint { .. } => "breakpoint",
            StopEvent::Stepped { .. } => "stepped",
            StopEvent::Watchpoint { .. } => "watchpoint",
            StopEvent::Fault { .. } => "fault",
            StopEvent::Exited(_) => "exited",
        }
    }

    /// Where the target stopped — procedure, line, pc — for the stops
    /// that say.
    fn site(&self) -> Option<(&str, u32, u32)> {
        match self {
            StopEvent::Breakpoint { func, line, addr }
            | StopEvent::Stepped { func, line, addr }
            | StopEvent::Watchpoint { func, line, addr, .. } => Some((func, *line, *addr)),
            _ => None,
        }
    }
}

/// How a motion runs the target between announced stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gait {
    /// Continue; under `--checkpoint-every N`, in `N`-step legs with a
    /// checkpoint at the resume point and at every seam.
    Run,
    /// One instruction per resume.
    Step,
    /// One instruction back per resume: restore a checkpoint and replay to
    /// the step before; `to_hit` lands on the last breakpoint trap crossed
    /// instead (or the checkpoint, when none fired).
    Back { to_hit: bool },
}

/// When a motion stops: a rule over every announced stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Until {
    /// The first stop; conditions are not consulted.
    First,
    /// A breakpoint whose condition holds, or any other stop.
    Hit,
    /// As `Hit`, stepping: landing on a plant is a hit, and a changed
    /// watched value stops.
    Watch,
    /// A temp reached in the right frame — `vfp`'s invocation, or the
    /// caller's at its resume site — a user hit whose condition holds, or
    /// any other stop.
    Frame { vfp: Option<u32>, caller: Option<(u32, u32)> },
    /// A line other than the starting one, outside any call it made;
    /// conditions are not consulted.
    OtherLine,
}

/// Temporary breakpoints, planted by the single-step scheme even over
/// no-ops: stepping the no-op keeps the step clock pristine, so a temp
/// never orphans time-travel checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Temps {
    None,
    /// The caller's resume site (`finish`).
    Return(u32),
    /// The procedure's stopping points but the pc's own, plus the caller's
    /// resume site if any (`next`).
    Procedure(Option<u32>),
}

/// One command's worth of target motion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Motion {
    gait: Gait,
    until: Until,
    temps: Temps,
    /// At most this many announced stops, then fail with the text.
    budget: Option<(u64, &'static str)>,
}

impl Motion {
    pub(crate) fn new(gait: Gait, until: Until) -> Motion {
        Motion { gait, until, temps: Temps::None, budget: None }
    }
}

/// Where a `reverse-next` started.
struct Origin {
    func: String,
    line: u32,
    vfp: Option<u32>,
}

/// What one resume asks of the nub: run, one instruction, or at most `n`.
#[derive(Debug, Clone, Copy)]
enum Leg {
    Cont,
    Step,
    Steps(u64),
}

/// A single-step watch scan gives up after this many instructions.
const WATCH_BUDGET: u64 = 16_000_000;

/// `reverse-next` gives up after this many reverse steps. One source line
/// is a handful of instructions; the cap guards against degenerate maps.
const REVERSE_NEXT_BUDGET: u64 = 4096;

impl Ldb {
    /// Continue the current target until the next stop.
    ///
    /// # Errors
    /// Nub failures.
    pub fn cont(&mut self) -> Result<StopEvent, LdbError> {
        self.resume(self.cur_id()?, Motion::new(Gait::Run, Until::First))
    }

    /// Single-step one target instruction (requires the nub's step
    /// extension). Returns the resulting stop event.
    ///
    /// # Errors
    /// Nub failures.
    pub fn step_insn(&mut self) -> Result<StopEvent, LdbError> {
        self.resume(self.cur_id()?, Motion::new(Gait::Step, Until::First))
    }

    /// Continue the current target, honoring breakpoint conditions and
    /// watchpoints: with any watchpoint armed, the target is
    /// single-stepped and each step compares the watched values.
    ///
    /// # Errors
    /// Nub failures; the step budget (16M instructions) exhausted.
    pub fn cont_watch(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        let m = if self.targets[id].watches.is_empty() {
            Motion::new(Gait::Run, Until::Hit)
        } else {
            Motion {
                budget: Some((WATCH_BUDGET, "watchpoint run exceeded the step budget")),
                ..Motion::new(Gait::Step, Until::Watch)
            }
        };
        self.resume(id, m)
    }

    /// Run to the next stopping point in the *same invocation* of the
    /// current procedure, stepping over calls ("next"). Recursive
    /// re-entries of the procedure are skipped by comparing virtual frame
    /// pointers; a return to the caller also stops. User breakpoints hit
    /// along the way stop as usual.
    ///
    /// # Errors
    /// No stopped target; nub failures.
    pub fn step_over(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        let t = &mut self.targets[id];
        t.cur_frame = 0;
        let vfp = t.frames.first().map(|f| f.vfp);
        let caller = t.frames.get(1).map(|f| (f.pc, f.vfp));
        let m = Motion {
            temps: Temps::Procedure(caller.map(|(pc, _)| pc)),
            ..Motion::new(Gait::Run, Until::Frame { vfp, caller })
        };
        self.resume(id, m)
    }

    /// Run until the selected frame's procedure returns to its caller
    /// ("finish"). Returns the stop event and the callee's integer return
    /// value.
    ///
    /// # Errors
    /// No caller frame (outermost); nub failures.
    pub fn finish(&mut self) -> Result<(StopEvent, Option<i64>), LdbError> {
        let id = self.cur_id()?;
        // A walk the lost wire cut short may have dropped the caller:
        // diagnose the wire first.
        self.ensure_connected(id)?;
        let t = &self.targets[id];
        let caller = t
            .frames
            .get(t.cur_frame + 1)
            .map(|f| (f.pc, f.vfp))
            .ok_or_else(|| LdbError::msg("the selected frame has no caller"))?;
        let m = Motion {
            temps: Temps::Return(caller.0),
            ..Motion::new(Gait::Run, Until::Frame { vfp: None, caller: Some(caller) })
        };
        let ev = self.resume(id, m)?;
        let rv = match &ev {
            StopEvent::Breakpoint { addr, .. } if *addr == caller.0 => {
                let rv = self.return_int(id);
                Some(self.guard_wire(id, rv)?)
            }
            _ => None,
        };
        Ok((ev, rv))
    }

    /// Rewind one retired instruction: restore the nearest checkpoint and
    /// deterministically re-execute forward to the instruction before the
    /// current one (`reverse-step`).
    ///
    /// # Errors
    /// `reverse truncated: …` when no usable checkpoint reaches back far
    /// enough; nub failures.
    pub fn reverse_step_insn(&mut self) -> Result<StopEvent, LdbError> {
        self.resume(self.cur_id()?, Motion::new(Gait::Back { to_hit: false }, Until::First))
    }

    /// Rewind to the most recent breakpoint stop before the current one,
    /// or to the oldest reachable checkpoint when no breakpoint fired in
    /// recorded history (`reverse-continue`).
    ///
    /// # Errors
    /// As [`Ldb::reverse_step_insn`].
    pub fn reverse_cont(&mut self) -> Result<StopEvent, LdbError> {
        self.resume(self.cur_id()?, Motion::new(Gait::Back { to_hit: true }, Until::First))
    }

    /// Rewind to the previous source line of the current procedure (or an
    /// enclosing one), skipping backwards over completed calls — the
    /// reverse of `next` (`reverse-next`).
    ///
    /// # Errors
    /// As [`Ldb::reverse_step_insn`].
    pub fn reverse_next(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        let m = Motion {
            budget: Some((
                REVERSE_NEXT_BUDGET,
                "reverse truncated: no line boundary within 4096 reverse steps",
            )),
            ..Motion::new(Gait::Back { to_hit: false }, Until::OtherLine)
        };
        self.resume(id, m)
    }

    /// Run motion `m` on target `id`. Refuses on a lost wire, flags the
    /// target disconnected when the wire fails anywhere in the motion, and
    /// lifts its temps on every exit path; a temp that cannot be lifted is
    /// owed to the next [`Ldb::reconnect`].
    pub(crate) fn resume(&mut self, id: usize, m: Motion) -> Result<StopEvent, LdbError> {
        self.ensure_connected(id)?;
        let mut temps = Vec::new();
        let ran = self.drive(id, &m, &mut temps);
        let ran = self.guard_wire(id, ran);
        let lifted = self.lift_temps(id, &temps, &ran);
        let lifted = self.guard_wire(id, lifted);
        let ev = ran?;
        lifted?;
        Ok(ev)
    }

    /// The loop: plant, then resume and wait until the stop rule accepts an
    /// announced stop. Seams and replay legs record their stops quietly.
    fn drive(
        &mut self,
        id: usize,
        m: &Motion,
        temps: &mut Vec<u32>,
    ) -> Result<StopEvent, LdbError> {
        self.plant_temps(id, m.temps, temps)?;
        let origin = match m.until {
            Until::OtherLine => {
                let pc = self.read_saved_pc(id)?;
                let (func, line) = self.describe_pc(id, pc);
                let vfp = self.targets[id].frames.first().map(|f| f.vfp);
                Some(Origin { func, line, vfp })
            }
            _ => None,
        };
        let every = match m.gait {
            Gait::Run => self.checkpoint_every.map(|n| n.max(1)),
            _ => None,
        };
        let mut stops = 0u64;
        loop {
            if let Some((cap, why)) = m.budget {
                if stops == cap {
                    return Err(LdbError::msg(why));
                }
            }
            let raw = match m.gait {
                Gait::Back { to_hit } => self.rewind(id, to_hit)?,
                gait => {
                    // Checkpoint the resume point and every seam.
                    if every.is_some() {
                        self.take_checkpoint(id)?;
                    }
                    self.prepare_resume(id)?;
                    let leg = match (gait, every) {
                        (Gait::Step, _) => Leg::Step,
                        (_, Some(n)) => Leg::Steps(n),
                        _ => Leg::Cont,
                    };
                    match self.wait(id, leg)? {
                        // A run never single-steps, so a `Step` stop is
                        // exactly a leg's budget running out: a seam.
                        NubEvent::Stopped { sig: Sig::Step, code, context } if every.is_some() => {
                            self.settle(id, Stop { sig: Sig::Step, code, context });
                            continue;
                        }
                        raw => raw,
                    }
                }
            };
            stops += 1;
            let ev = self.handle_event(id, raw)?;
            if let Some(ev) = self.verdict(id, m.until, temps, origin.as_ref(), ev)? {
                return Ok(ev);
            }
        }
    }

    /// The stop rule: `Some` ends the motion, `None` resumes. The one place
    /// breakpoint conditions are evaluated.
    fn verdict(
        &mut self,
        id: usize,
        until: Until,
        temps: &[u32],
        origin: Option<&Origin>,
        ev: StopEvent,
    ) -> Result<Option<StopEvent>, LdbError> {
        let hit = match &ev {
            StopEvent::Breakpoint { addr, .. } => Some(*addr),
            // Stepping onto a plant is a hit: the state is a fired trap's,
            // so record it as one and the next resume steps past it.
            StopEvent::Stepped { addr, .. }
                if until == Until::Watch && self.targets[id].breakpoints.is_planted(*addr) =>
            {
                if let Some(stop) = self.targets[id].stop.as_mut() {
                    stop.sig = Sig::Trap;
                }
                Some(*addr)
            }
            _ => None,
        };
        let top_vfp = self.targets[id].frames.first().map(|f| f.vfp);
        if let Some(addr) = hit {
            if let (true, Until::Frame { vfp, caller }) = (temps.contains(&addr), until) {
                let wanted = match caller {
                    Some((ret_pc, ret_vfp)) if addr == ret_pc => top_vfp == Some(ret_vfp),
                    _ => vfp.is_some() && top_vfp == vfp,
                };
                return Ok(wanted.then_some(ev));
            }
            let conds = !matches!(until, Until::First | Until::OtherLine);
            if !conds || self.condition_holds(id, addr)? {
                return Ok(Some(match ev {
                    StopEvent::Stepped { func, line, addr } => {
                        StopEvent::Breakpoint { func, line, addr }
                    }
                    ev => ev,
                }));
            }
            // A false condition resumes; a watch scan still compares.
            if !matches!(ev, StopEvent::Stepped { .. }) {
                return Ok(None);
            }
        }
        match (until, ev) {
            (Until::Watch, StopEvent::Stepped { func, line, addr }) => {
                Ok(self.check_watches(id, &func)?.map(|(name, old, new)| StopEvent::Watchpoint {
                    name,
                    old,
                    new,
                    func,
                    line,
                    addr,
                }))
            }
            (Until::OtherLine, ev @ (StopEvent::Stepped { .. } | StopEvent::Watchpoint { .. })) => {
                let (Some((func, line, _)), Some(o)) = (ev.site(), origin) else {
                    return Ok(Some(ev));
                };
                if (func, line) == (o.func.as_str(), o.line) {
                    return Ok(None);
                }
                // The stack grows down: a frame below the start is inside a
                // call the line made.
                let inside_call =
                    matches!((o.vfp, top_vfp), (Some(start), Some(cur)) if cur < start);
                Ok((!inside_call).then_some(ev))
            }
            (_, ev) => Ok(Some(ev)),
        }
    }

    /// Whether the breakpoint stop at `addr` should be shown: true when
    /// it has no condition or its condition is numerically non-zero.
    fn condition_holds(&mut self, id: usize, addr: u32) -> Result<bool, LdbError> {
        let Some(cond) = self.targets[id].conds.get(&addr).cloned() else {
            return Ok(true);
        };
        let v = self.eval(&cond)?;
        Ok(!v.parse::<f64>().is_ok_and(|x| x == 0.0))
    }

    /// Compare every in-scope watch against its last value; on the first
    /// change, record the new value and report (name, old, new).
    fn check_watches(
        &mut self,
        id: usize,
        func: &str,
    ) -> Result<Option<(String, String, String)>, LdbError> {
        let top_vfp = self.targets[id].frames.first().map(|f| f.vfp);
        for i in 0..self.targets[id].watches.len() {
            let in_scope = match &self.targets[id].watches[i].scope {
                None => true,
                Some((p, vfp)) => func == p && top_vfp == Some(*vfp),
            };
            if !in_scope {
                continue;
            }
            let entry = self.targets[id].watches[i].entry.clone();
            // A transiently unreadable value (e.g. mid-prologue) is not a
            // change.
            let Ok(now) = self.print_entry(&entry) else { continue };
            let w = &mut self.targets[id].watches[i];
            if now != w.last {
                let old = std::mem::replace(&mut w.last, now.clone());
                return Ok(Some((w.name.clone(), old, now)));
            }
        }
        Ok(None)
    }

    /// Plant the motion's temporary breakpoints, recording each in
    /// `planted` before it is sent: a wire that dies mid-plant may still
    /// have planted it.
    fn plant_temps(
        &mut self,
        id: usize,
        temps: Temps,
        planted: &mut Vec<u32>,
    ) -> Result<(), LdbError> {
        match temps {
            Temps::None => return Ok(()),
            Temps::Return(ret) => self.plant_temp(id, ret, planted)?,
            Temps::Procedure(ret) => {
                let pc = self.read_saved_pc(id)?;
                let (entry, _) = self.scope()?;
                let n = symtab::loci_of(&mut self.interp, &entry)?.len();
                for i in 0..n {
                    let a = symtab::stop_addr(&mut self.interp, &entry, i)?;
                    if a != pc {
                        self.plant_temp(id, a, planted)?;
                    }
                }
                if let Some(ret) = ret {
                    self.plant_temp(id, ret, planted)?;
                }
            }
        }
        self.targets[id].invalidate_code_cache();
        Ok(())
    }

    fn plant_temp(&mut self, id: usize, addr: u32, planted: &mut Vec<u32>) -> Result<(), LdbError> {
        let t = &mut self.targets[id];
        if t.breakpoints.is_planted(addr) {
            return Ok(());
        }
        planted.push(addr);
        t.breakpoints.plant_anywhere(&t.client, addr)
    }

    /// Unplant the motion's temporary breakpoints (an exited target has
    /// nothing to restore into: just drop the records). A temp that cannot
    /// be unplanted — the wire is gone, or its removal failed — is owed to
    /// the next reconnect.
    fn lift_temps(
        &mut self,
        id: usize,
        planted: &[u32],
        ran: &Result<StopEvent, LdbError>,
    ) -> Result<(), LdbError> {
        if planted.is_empty() {
            return Ok(());
        }
        let exited = matches!(ran, Ok(StopEvent::Exited(_)));
        let t = &mut self.targets[id];
        let mut lifted = Ok(());
        for &a in planted {
            if exited {
                t.breakpoints.forget(a);
            } else if t.disconnected || lifted.is_err() {
                t.breakpoints.forget(a);
                t.owed.push(a);
            } else if let Err(e) = t.breakpoints.remove(&t.client, a) {
                t.owed.push(a);
                lifted = Err(e);
            }
        }
        t.invalidate_code_cache();
        // When the session checkpoints at all, re-seed reverse reach at
        // this stop (best effort: a failed snapshot must not fail the
        // step).
        if !exited
            && ran.is_ok()
            && lifted.is_ok()
            && (self.checkpoint_every.is_some() || !self.targets[id].checkpoints.is_empty())
        {
            let seeded = self.take_checkpoint(id);
            let _ = self.guard_wire(id, seeded);
        }
        lifted
    }

    /// The one wait: resume the target as `leg` asks and block until the
    /// nub reports the next event.
    fn wait(&self, id: usize, leg: Leg) -> Result<NubEvent, LdbError> {
        let mut client = self.targets[id].client.borrow_mut();
        Ok(match leg {
            Leg::Cont => client.continue_and_wait()?,
            Leg::Step => client.step_and_wait()?,
            Leg::Steps(n) => client.step_n_and_wait(n)?,
        })
    }

    /// Record a stop without announcing it. The target ran, so cached data
    /// is stale; code survives (the debugger's own patches invalidate it).
    fn settle(&mut self, id: usize, stop: Stop) {
        self.targets[id].invalidate_data_cache();
        self.targets[id].stop = Some(stop);
    }

    /// Step back once — to the previous instruction or, with `to_hit`, the
    /// last breakpoint hit — and return the landing for the stop pipeline.
    fn rewind(&mut self, id: usize, to_hit: bool) -> Result<NubEvent, LdbError> {
        let now = self.targets[id].client.borrow_mut().query_steps()?;
        if now == 0 {
            return Err(LdbError::msg("reverse truncated: already at the start of execution"));
        }
        // Scan to just before the current stop, remembering the last
        // trap crossed; `to_hit` then replays afresh to that trap.
        let (ckpt, last_trap) = self.replay_to(id, now - 1)?;
        let land = last_trap.unwrap_or(ckpt);
        if to_hit && land != now - 1 {
            self.replay_to(id, land)?;
        }
        let stop = self.targets[id]
            .stop
            .ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        Ok(NubEvent::Stopped { sig: stop.sig, code: stop.code, context: stop.context })
    }

    /// Restore the newest usable checkpoint at or before `target` and
    /// deterministically re-execute forward to exactly `target` retired
    /// instructions, resuming past intermediate trap stops with the same
    /// choreography the original run used. Returns the checkpoint's step
    /// count and the position of the last breakpoint trap observed at or
    /// before `target` (including a checkpoint captured at a fired trap).
    fn replay_to(&mut self, id: usize, target: u64) -> Result<(u64, Option<u64>), LdbError> {
        let gen = self.targets[id].breakpoints.generation();
        let (at, sig, code, image) = self.targets[id]
            .checkpoints
            .best_at_or_before(target, gen)
            .map_err(|e| LdbError::msg(format!("reverse truncated: {e}")))?;
        let context = self.targets[id]
            .stop
            .map(|s| s.context)
            .ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        self.targets[id].client.borrow_mut().load_snapshot(&image)?;
        // The restore rewrote memory wholesale behind both caches.
        self.targets[id].invalidate_code_cache();
        // Replay must resume from the restored state exactly as the
        // original resume did, so the stop takes the signal the
        // checkpoint was captured under.
        let sig = Sig::from_number(sig).unwrap_or(Sig::Step);
        self.settle(id, Stop { sig, code, context });
        self.health.restores += 1;
        if self.trace.is_on() {
            self.trace.emit(
                Layer::Dbg,
                Severity::Info,
                "restore",
                &[("target", id.into()), ("steps", at.into()), ("to", target.into())],
            );
        }
        let mut last_trap = if sig == Sig::Trap { Some(at) } else { None };
        while self.steps_short_of(id, target)?.is_some() {
            self.prepare_resume(id)?;
            // The single-step choreography retires instructions itself;
            // re-measure before budgeting the next leg.
            let Some(left) = self.steps_short_of(id, target)? else { break };
            match self.wait(id, Leg::Steps(left))? {
                NubEvent::Exited(c) => {
                    return Err(LdbError::msg(format!(
                        "reverse replay diverged: target exited ({c})"
                    )));
                }
                NubEvent::Stopped { sig, code, context } => {
                    self.settle(id, Stop { sig, code, context });
                    match sig {
                        Sig::Trap => {
                            last_trap = Some(self.targets[id].client.borrow_mut().query_steps()?);
                        }
                        Sig::Step => {}
                        other => {
                            return Err(LdbError::msg(format!(
                                "reverse replay diverged: unexpected signal {} mid-replay",
                                other.number()
                            )));
                        }
                    }
                }
            }
        }
        Ok((at, last_trap))
    }

    /// The instructions a replay still has to retire to reach `target`
    /// (`None` once there); an error past it.
    fn steps_short_of(&mut self, id: usize, target: u64) -> Result<Option<u64>, LdbError> {
        let pos = self.targets[id].client.borrow_mut().query_steps()?;
        if pos > target {
            return Err(LdbError::msg(format!(
                "reverse replay overshot: at step {pos}, wanted {target}"
            )));
        }
        Ok((pos < target).then(|| target - pos))
    }

    /// Get past a planted breakpoint at the current pc, if any: no-op
    /// breakpoints are skipped by advancing the saved pc; single-step
    /// breakpoints restore the original instruction, step it with the
    /// nub's step extension, and re-plant the trap.
    fn prepare_resume(&mut self, id: usize) -> Result<(), LdbError> {
        let Some(stop) = self.targets[id].stop else { return Ok(()) };
        let pc = self.read_saved_pc(id)?;
        // Only a trap that *fired* (`Sig::Trap`) needs the choreography. A
        // step or seam pause *on* a plant has not executed it: resuming
        // plainly lets it fire, which reports the breakpoint and keeps
        // replay step-for-step identical to the original run.
        let kind =
            if stop.sig == Sig::Trap { self.targets[id].breakpoints.resume_kind(pc) } else { None };
        let t = &self.targets[id];
        match kind {
            None => {}
            Some(ResumeKind::SkipNop { next_pc }) => {
                t.client.borrow_mut().store(
                    'd',
                    stop.context + t.data.ctx.pc_offset,
                    4,
                    next_pc as u64,
                )?;
            }
            Some(ResumeKind::SingleStep { original }) => {
                // Restore, step one instruction, re-plant.
                let unit = t.data.insn_unit;
                t.client.borrow_mut().store('c', pc, unit, original)?;
                if let NubEvent::Stopped { .. } = self.wait(id, Leg::Step)? {
                    t.client.borrow_mut().plant(pc, unit, t.data.break_pattern as u64)?;
                }
                // The restore/replant patched code behind the cache's back.
                t.invalidate_code_cache();
            }
        }
        // Resume paths store the saved pc (and may have stepped the
        // target) through the bare client: nothing cached from data
        // memory survives the boundary.
        t.invalidate_data_cache();
        Ok(())
    }

    /// The stop pipeline: record the stop, walk the stack, describe the
    /// stop, and journal it.
    pub(crate) fn handle_event(&mut self, id: usize, ev: NubEvent) -> Result<StopEvent, LdbError> {
        let ev = self.handle_event_inner(id, ev)?;
        if self.trace.is_on() {
            let mut fields: Vec<(&'static str, ldb_trace::Value)> =
                vec![("target", id.into()), ("kind", ev.kind_name().into())];
            match &ev {
                StopEvent::Watchpoint { name, .. } => fields.push(("name", name.clone().into())),
                StopEvent::Fault { sig, code } => {
                    fields.push(("sig", sig.clone().into()));
                    fields.push(("code", (*code).into()));
                }
                StopEvent::Exited(status) => fields.push(("status", (*status).into())),
                _ => {}
            }
            if let Some((func, line, addr)) = ev.site() {
                fields.push(("func", func.to_string().into()));
                fields.push(("line", line.into()));
                fields.push(("addr", addr.into()));
            }
            self.trace.emit(Layer::Dbg, Severity::Info, "stop", &fields);
        }
        Ok(ev)
    }

    fn handle_event_inner(&mut self, id: usize, ev: NubEvent) -> Result<StopEvent, LdbError> {
        match ev {
            NubEvent::Exited(c) => {
                self.targets[id].stop = None;
                self.targets[id].frames.clear();
                Ok(StopEvent::Exited(c))
            }
            NubEvent::Stopped { sig, code, context } => {
                self.settle(id, Stop { sig, code, context });
                self.after_stop(id)?;
                Ok(match sig {
                    Sig::Pause => StopEvent::Paused,
                    Sig::Attach => StopEvent::Attached,
                    Sig::Trap | Sig::Step => {
                        let addr = self.read_saved_pc(id)?;
                        let (func, line) = self.describe_pc(id, addr);
                        if sig == Sig::Trap {
                            StopEvent::Breakpoint { func, line, addr }
                        } else {
                            StopEvent::Stepped { func, line, addr }
                        }
                    }
                    Sig::Segv => StopEvent::Fault { sig: "SIGSEGV".into(), code },
                    Sig::Fpe => StopEvent::Fault { sig: "SIGFPE".into(), code },
                    Sig::Ill => StopEvent::Fault { sig: "SIGILL".into(), code },
                })
            }
        }
    }
}
