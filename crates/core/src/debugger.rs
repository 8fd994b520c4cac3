//! The debugger session: attaching targets, breakpoints, frames, and
//! printing — the client interface tying every subsystem together. What
//! runs the target lives in `motion.rs`, target calls in `call.rs`, and
//! the expression-server glue in `expr.rs`.
//!
//! One embedded PostScript interpreter serves all of it ("one interpreter
//! supports code in symbol tables and expression evaluation"). Each target
//! carries its own loader table, per-architecture dictionary, nub
//! connection, and breakpoints; ldb "can debug on multiple architectures
//! simultaneously" and changes architectures by rebinding the dictionary
//! stack.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ldb_nub::{FaultConfig, FaultyWire, NubClient, NubConfig, NubEvent, NubHandle, Sig, Wire};
use ldb_postscript::{Budget, DictRef, Interp, Location, Object, Out};
use ldb_trace::{Layer, Severity, Trace};

use crate::amemory::{CachedMemory, JoinedMemory, MemRef, WireMemory};
use crate::breakpoint::Breakpoints;
use crate::chaos::{ChaosConfig, ChaosMemory};
use crate::expr::{ExprSession, ExprState};
use crate::frame::{frame_walker, walk_stack, Frame, WalkCtx, WalkStop};
use crate::loader::{shared_module_cache, Loader, ModuleTable};
use crate::motion::StopEvent;
use crate::psops::{make_arch_dict, make_debug_dict, CtxRef, EvalCtx, MemHandle};
use crate::symtab;
use crate::target::{Health, Stop, Target, Watch};
use crate::LdbError;

/// Per-call resource-budget profiles for untrusted PostScript: symbol
/// tables load under the generous `load` profile; interactive printing
/// and expression evaluation run under the tight `interactive` profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsBudgets {
    /// Budget for symbol-table loading (the frame, and each module).
    pub load: Budget,
    /// Budget for printing and expression evaluation.
    pub interactive: Budget,
}

impl Default for PsBudgets {
    fn default() -> Self {
        PsBudgets { load: Budget::LOAD, interactive: Budget::INTERACTIVE }
    }
}

/// One row of a [`Ldb::reload_modules`] report: the module name and its
/// outcome — `Ok(())` reloaded, `Err(reason)` still quarantined.
pub type ReloadRow = (String, Result<(), String>);

/// How [`Ldb::attach`] talks to the nub.
#[derive(Debug, Default)]
pub struct AttachOpts {
    /// The nub client's resilience policy (lossy wires want shorter
    /// timeouts and bigger retry budgets than the defaults).
    pub client: ldb_nub::ClientConfig,
    /// Wrap the wire in a deterministic fault injector that journals into
    /// the session recorder. [`Ldb::reconnect`] wraps the fresh wire in
    /// the same injector, so the drill follows the target.
    pub fault: Option<FaultConfig>,
}

/// The debugger session.
pub struct Ldb {
    /// The embedded PostScript interpreter.
    pub interp: Interp,
    /// Captured debugger output (what `print` produced).
    pub out: Rc<RefCell<String>>,
    pub(crate) ctx: CtxRef,
    pub(crate) targets: Vec<Target>,
    pub(crate) cur: Option<usize>,
    pub(crate) dicts_pushed: u8,
    pub(crate) expr: Option<ExprSession>,
    pub(crate) expr_state: Rc<RefCell<ExprState>>,
    pub(crate) handles: u32,
    /// Put the block cache in front of the wire of targets attached from
    /// now on (on by default; `--no-wire-cache` turns it off).
    pub(crate) wire_cache: bool,
    /// Resource budgets for untrusted PostScript (the artifact sandbox).
    pub(crate) budgets: PsBudgets,
    /// Flight-recorder handle, propagated to the interpreter and to every
    /// nub client ([`Ldb::set_trace`]).
    pub(crate) trace: Trace,
    /// Chaos-injection policy for targets attached from now on (`--chaos
    /// SEED`): hostile-target testing, off by default.
    pub(crate) chaos: Option<ChaosConfig>,
    /// Session-wide robustness counters (`info health`).
    pub(crate) health: Health,
    /// Cross-thread cancellation token ([`Ldb::set_cancel`]): the daemon's
    /// per-session watchdog sets it to abort a wedged command. Propagated
    /// to the interpreter and to every nub client, like the trace handle.
    pub(crate) cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// The dictionary stack as of session construction (systemdict …
    /// debug dict): the known-good base [`Ldb::recover_session`] restores
    /// after a quarantined command.
    pub(crate) base_dicts: Vec<DictRef>,
    /// Periodic-checkpoint interval for `cont` (`--checkpoint-every N`):
    /// when set, resumes run in `N`-step legs and a checkpoint is taken at
    /// each leg boundary. `None` (the default) leaves the run path alone.
    pub(crate) checkpoint_every: Option<u64>,
    /// Expressions re-evaluated and shown after every stop (`display`).
    pub(crate) displays: Vec<String>,
}

impl Default for Ldb {
    fn default() -> Self {
        Self::new()
    }
}

impl Ldb {
    /// A fresh session: interpreter, debugging dictionary, captured output.
    pub fn new() -> Ldb {
        let mut interp = Interp::new();
        let out = Rc::new(RefCell::new(String::new()));
        interp.set_output(Out::Shared(Rc::clone(&out)));
        let ctx: CtxRef = Rc::new(RefCell::new(EvalCtx::new()));
        let debug_dict = make_debug_dict(&mut interp, ctx.clone());
        interp.push_dict(debug_dict);
        let base_dicts = interp.dict_stack_snapshot();
        let expr_state = Rc::new(RefCell::new(ExprState { outcome: None }));
        let mut ldb = Ldb {
            interp,
            out,
            ctx,
            targets: Vec::new(),
            cur: None,
            dicts_pushed: 0,
            expr: None,
            expr_state,
            handles: 0,
            wire_cache: true,
            budgets: PsBudgets::default(),
            trace: Trace::off(),
            chaos: None,
            health: Health::default(),
            cancel: None,
            base_dicts,
            checkpoint_every: None,
            displays: Vec::new(),
        };
        ldb.register_expr_ops();
        ldb
    }

    /// Attach the flight recorder to the whole session: the debugger
    /// command loop ([`Layer::Dbg`]), the embedded interpreter
    /// ([`Layer::Ps`]), and every nub client — targets already attached
    /// and targets attached from now on ([`Layer::Wire`]). Pass
    /// [`Trace::off`] to detach everywhere.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace.clone();
        self.interp.set_trace(trace.clone());
        for t in &self.targets {
            t.client.borrow_mut().set_trace(trace.clone());
        }
    }

    /// The session's flight-recorder handle (`info trace` reads its
    /// counters and ring).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attach a cross-thread cancellation token to the whole session: the
    /// interpreter's dispatch loop and every nub client — targets already
    /// attached and targets attached from now on — poll it and abort with
    /// a timeout error once it is set. The daemon's per-session watchdog
    /// owns the other end; `None` detaches everywhere.
    pub fn set_cancel(
        &mut self,
        cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    ) {
        self.cancel = cancel.clone();
        self.interp.set_cancel(cancel.clone());
        for t in &self.targets {
            t.client.borrow_mut().set_cancel(cancel.clone());
        }
    }

    /// Record a wedged command the session watchdog had to cancel (the
    /// daemon's session worker calls this before `recover_session`).
    pub fn note_watchdog_timeout(&mut self) {
        self.health.watchdog_timeouts += 1;
    }

    /// Best-effort detach of every live target with a hard per-target
    /// deadline: the teardown path for watchdog kills, idle eviction, and
    /// daemon shutdown, where relying on drop order would leave the
    /// simulated target running with breakpoints planted. Detach failures
    /// are swallowed — the target may already be gone — but each attempt
    /// is bounded so teardown cannot wedge behind a dead wire.
    pub fn detach_all_with_deadline(&mut self, deadline: std::time::Duration) {
        for t in self.targets.drain(..) {
            if !t.disconnected {
                t.client.borrow_mut().detach_with_deadline(deadline);
            }
            drop(t.nub);
        }
        self.pop_target_dicts();
        self.cur = None;
    }

    /// Enable or disable the wire cache for *future* attaches (existing
    /// targets keep whatever they were attached with).
    pub fn set_wire_cache(&mut self, on: bool) {
        self.wire_cache = on;
    }

    /// Inject seeded target-memory corruption into targets attached from
    /// now on (`--chaos SEED`); `None` turns injection off. The chaos
    /// layer sits on the inspection path only — above the wire cache,
    /// below the frame walkers and printers — so run control stays
    /// reliable while everything the debugger *reads* is hostile.
    pub fn set_chaos(&mut self, chaos: Option<ChaosConfig>) {
        self.chaos = chaos;
    }

    /// Session robustness counters, merged from the walk, print, and
    /// chaos layers.
    pub fn health(&self) -> Health {
        let mut h = self.health.clone();
        {
            let c = self.ctx.borrow();
            h.print_cycles = c.print_cycle_hits;
            h.print_follow_caps = c.follow_cap_trips;
        }
        for t in &self.targets {
            if let Some(chaos) = &t.chaos {
                h.chaos_corruptions += chaos.stats().corruptions;
            }
        }
        h
    }

    /// Record a command quarantined by the crash-proof loop (the CLI and
    /// script runner call this from their `catch_unwind` handlers).
    pub fn note_quarantined(&mut self) {
        self.health.quarantined_commands += 1;
    }

    /// Put the session back into a coherent state after a panicking
    /// command was caught: clear the operand stack, drop any inner budget
    /// the unwound code left in force, restore the known-good base
    /// dictionary stack, re-select the current target (re-pushing its
    /// dictionaries and re-syncing the frame context), and retire the
    /// expression server — a panic may have left it mid-protocol, and it
    /// respawns cleanly on the next evaluation.
    pub fn recover_session(&mut self) {
        self.interp.clear_stack();
        self.interp.set_budget(Budget::default());
        self.interp.restore_dict_stack(self.base_dicts.clone());
        self.dicts_pushed = 0;
        if let Some(s) = self.expr.take() {
            // Ask it to exit, but do not join: the server may be blocked
            // on the pipe the unwound command abandoned.
            let _ = s.to_server.send(ldb_exprserver::ToServer::Shutdown);
        }
        self.expr_state.borrow_mut().outcome = None;
        if let Some(id) = self.cur {
            let _ = self.select_target(id);
        }
    }

    /// The budget profiles in force.
    pub fn ps_budgets(&self) -> PsBudgets {
        self.budgets
    }

    /// Replace the budget profiles (`--ps-fuel`/`--ps-mem` land here).
    pub fn set_ps_budgets(&mut self, budgets: PsBudgets) {
        self.budgets = budgets;
    }

    /// Override the sandbox limits from the command line: `fuel` and
    /// `mem` (bytes) apply to the load profile; the interactive profile
    /// gets a tenth of each (at least one) so a stuck printer still dies
    /// quickly.
    pub fn set_ps_limits(&mut self, fuel: Option<u64>, mem: Option<u64>) {
        if let Some(f) = fuel {
            self.budgets.load.max_fuel = f.max(1);
            self.budgets.interactive.max_fuel = (f / 10).max(1);
        }
        if let Some(m) = mem {
            self.budgets.load.max_alloc = m.max(1);
            self.budgets.interactive.max_alloc = (m / 10).max(1);
        }
    }

    // ----- targets -----

    /// Attach from a *load plan*: the trusted loader frame plus one
    /// symbol table per module, compiled through the process-wide
    /// [`shared_module_cache`], with the default nub client policy.
    ///
    /// # Errors
    /// As [`Ldb::attach`].
    pub fn attach_plan(
        &mut self,
        wire: Box<dyn Wire>,
        frame_ps: &str,
        modules: &[ModuleTable],
        nub: Option<NubHandle>,
    ) -> Result<usize, LdbError> {
        self.attach(wire, frame_ps, modules, shared_module_cache(), nub, AttachOpts::default())
    }

    /// Attach over a wire: waits for the nub's initial stop notification,
    /// then loads the plan — `frame_ps` plus the per-module `modules`,
    /// compiled through `cache` — lazily (see
    /// [`Loader::load_plan_compiled`]): modules that fail to compile or
    /// name the wrong architecture are quarantined now, the rest run on
    /// first use, under the load budget, and quarantine then if they
    /// fail. The attach succeeds as long as at least one module is
    /// admitted.
    ///
    /// # Errors
    /// Nub and PostScript failures, or every module quarantined.
    pub fn attach(
        &mut self,
        wire: Box<dyn Wire>,
        frame_ps: &str,
        modules: &[ModuleTable],
        cache: &ldb_postscript::ModuleCache,
        nub: Option<NubHandle>,
        opts: AttachOpts,
    ) -> Result<usize, LdbError> {
        let wire = self.maybe_faulty(wire, &opts.fault);
        let mut client = NubClient::with_config(wire, opts.client);
        client.set_trace(self.trace.clone());
        client.set_cancel(self.cancel.clone());
        let ev = client.wait_event()?;
        let stop = match ev {
            NubEvent::Stopped { sig, code, context } => Stop { sig, code, context },
            NubEvent::Exited(c) => return Err(LdbError::msg(format!("target already exited ({c})"))),
        };
        // Each target's symbol-table entries live in their own dictionary,
        // pushed while that target is selected (deferred code in the
        // tables resolves S-names against it later).
        let unit_dict: DictRef =
            Rc::new(std::cell::RefCell::new(ldb_postscript::Dict::new(256)));
        self.pop_target_dicts();
        self.interp.push_dict(Rc::clone(&unit_dict));
        let loaded = Loader::load_plan_compiled(
            &mut self.interp,
            frame_ps,
            modules,
            cache,
            self.budgets.load,
        );
        let _ = self.interp.pop_dict();
        let loader = Rc::new(loaded?);
        let arch = loader.arch;
        let arch_dict = make_arch_dict(&mut self.interp, arch);
        let client = Rc::new(RefCell::new(client));
        let (wire, cache): (MemRef, Option<Rc<CachedMemory>>) = if self.wire_cache {
            let c = Rc::new(CachedMemory::new(Rc::clone(&client)));
            (Rc::clone(&c) as MemRef, Some(c))
        } else {
            (Rc::new(WireMemory::new(Rc::clone(&client))), None)
        };
        // The chaos layer wraps the cached view: everything the walkers
        // and printers read is corruptible, while the nub client (run
        // control, plants) bypasses it.
        let (wire, chaos): (MemRef, Option<Rc<ChaosMemory>>) = match &self.chaos {
            Some(cfg) => {
                let c = Rc::new(ChaosMemory::new(wire, cfg.clone(), self.trace.clone()));
                (Rc::clone(&c) as MemRef, Some(c))
            }
            None => (wire, None),
        };
        let mut target = Target {
            arch,
            data: arch.data(),
            client,
            loader,
            arch_dict,
            unit_dict,
            wire,
            cache,
            chaos,
            breakpoints: Breakpoints::new(arch.data()),
            stop: Some(stop),
            frames: Vec::new(),
            walk_stop: WalkStop::StackBase,
            cur_frame: 0,
            nub,
            watches: Vec::new(),
            conds: HashMap::new(),
            disconnected: false,
            reg_cache: Vec::new(),
            checkpoints: crate::checkpoint::CheckpointStore::default(),
            fault: opts.fault,
            owed: Vec::new(),
        };
        // Recover any breakpoints a crashed predecessor left planted.
        let _ = target.breakpoints.recover(&target.client);
        self.targets.push(target);
        let id = self.targets.len() - 1;
        if self.trace.is_on() {
            let t = &self.targets[id];
            self.trace.emit(
                Layer::Dbg,
                Severity::Info,
                "attach",
                &[
                    ("target", id.into()),
                    ("arch", format!("{arch}").into()),
                    ("quarantined", t.loader.quarantined().len().into()),
                ],
            );
        }
        self.select_target(id)?;
        self.after_stop(id)?;
        Ok(id)
    }

    /// Spawn a program under a fresh nub and attach to it — the "target
    /// process forked as a child" connection mechanism. `loader_ps` is a
    /// whole loader table: a frame with no separate modules, compiled
    /// through the [`shared_module_cache`].
    ///
    /// # Errors
    /// As [`Ldb::attach`].
    pub fn spawn_program(
        &mut self,
        image: &ldb_machine::Image,
        loader_ps: &str,
    ) -> Result<usize, LdbError> {
        let handle = ldb_nub::spawn(image, NubConfig { wait_at_pause: true, ..Default::default() });
        let wire = handle
            .connect_channel()
            .map_err(|e| LdbError::Nub(ldb_nub::NubError::Io(e)))?;
        let cache = shared_module_cache();
        self.attach(Box::new(wire), loader_ps, &[], cache, Some(handle), AttachOpts::default())
    }

    /// Wrap `wire` in a fault injector journaling into the session
    /// recorder, when `fault` names one.
    fn maybe_faulty(&self, wire: Box<dyn Wire>, fault: &Option<FaultConfig>) -> Box<dyn Wire> {
        match fault {
            Some(cfg) => {
                let mut fw = FaultyWire::new(wire, cfg.clone());
                fw.set_trace(self.trace.clone());
                Box::new(fw)
            }
            None => wire,
        }
    }

    /// Reattach target `id` over a fresh wire after the old connection
    /// died (or the previous debugger instance crashed): swaps the
    /// client's transport without losing debugger-side state, waits for
    /// the nub to (re-)announce the current stop, re-runs plant recovery
    /// so breakpoints planted before the loss are known again, and
    /// rebuilds the frame view. Temporary plants a failed motion could not
    /// lift are removed right after recovery. A target attached through a
    /// fault injector gets the same injector on the fresh wire.
    ///
    /// # Errors
    /// Unknown target id; nub failures on the fresh wire.
    pub fn reconnect(&mut self, id: usize, wire: Box<dyn Wire>) -> Result<StopEvent, LdbError> {
        if id >= self.targets.len() {
            return Err(LdbError::msg(format!("no target {id}")));
        }
        self.trace.emit(Layer::Dbg, Severity::Info, "reconnect", &[("target", id.into())]);
        let wire = self.maybe_faulty(wire, &self.targets[id].fault);
        self.targets[id].client.borrow_mut().reconnect(wire);
        let ev = self.targets[id].client.borrow_mut().wait_event()?;
        let t = &mut self.targets[id];
        t.breakpoints.recover(&t.client)?;
        // Recovery cannot tell temporary plants from user breakpoints:
        // lift the ones a failed motion left behind.
        while let Some(&a) = t.owed.last() {
            t.breakpoints.remove(&t.client, a)?;
            t.owed.pop();
        }
        t.disconnected = false;
        // Another debugger may have touched anything while we were away:
        // nothing cached before the loss can be trusted.
        if let Some(c) = &self.targets[id].cache {
            c.flush();
        }
        self.handle_event(id, ev)
    }

    /// Refuse a wire-touching mutation while the target is disconnected.
    pub(crate) fn ensure_connected(&self, id: usize) -> Result<(), LdbError> {
        if self.targets[id].disconnected {
            return Err(LdbError::msg(
                "target is disconnected (connection to the nub was lost); \
                 the nub preserves the target's state — reconnect to resume",
            ));
        }
        Ok(())
    }

    /// Whether any attached target has lost its wire (see
    /// [`Ldb::reconnect`] for the recovery). Batch-outcome classification
    /// ([`crate::script::BatchOutcome::classify`]) reads this to tell a
    /// wire-lost session from a merely erroring one.
    pub fn any_disconnected(&self) -> bool {
        self.targets.iter().any(|t| t.disconnected)
    }

    /// Pass a result through, switching the target to the disconnected
    /// state when it reports a lost or unresponsive wire.
    pub(crate) fn guard_wire<T>(
        &mut self,
        id: usize,
        r: Result<T, LdbError>,
    ) -> Result<T, LdbError> {
        if let Err(LdbError::Nub(ldb_nub::NubError::Io(_) | ldb_nub::NubError::Timeout(_))) = &r {
            self.targets[id].disconnected = true;
        }
        r
    }

    /// Run `op` against the current target's wire: refuse while the
    /// target is disconnected, and flag it disconnected when the wire
    /// fails under `op`.
    pub(crate) fn on_wire<T>(
        &mut self,
        op: impl FnOnce(&mut Self, usize) -> Result<T, LdbError>,
    ) -> Result<T, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = op(self, id);
        self.guard_wire(id, r)
    }

    /// Switch the session to target `id`: pops the old architecture
    /// dictionary and pushes the new one (machine-dependent names rebind;
    /// "ldb can change architectures dynamically").
    ///
    /// # Errors
    /// Unknown target id.
    pub fn select_target(&mut self, id: usize) -> Result<(), LdbError> {
        if id >= self.targets.len() {
            return Err(LdbError::msg(format!("no target {id}")));
        }
        self.pop_target_dicts();
        self.interp.push_dict(Rc::clone(&self.targets[id].arch_dict));
        self.interp.push_dict(Rc::clone(&self.targets[id].unit_dict));
        self.dicts_pushed = 2;
        self.cur = Some(id);
        self.sync_ctx(id);
        Ok(())
    }

    fn pop_target_dicts(&mut self) {
        for _ in 0..self.dicts_pushed {
            let _ = self.interp.pop_dict();
        }
        self.dicts_pushed = 0;
    }

    /// The current target id.
    pub fn current(&self) -> Option<usize> {
        self.cur
    }

    /// Access a target.
    pub fn target(&self, id: usize) -> &Target {
        &self.targets[id]
    }

    /// Number of attached targets.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    pub(crate) fn cur_id(&self) -> Result<usize, LdbError> {
        self.cur.ok_or_else(|| LdbError::msg("no target selected"))
    }

    fn sync_ctx(&mut self, id: usize) {
        let t = &self.targets[id];
        let mut c = self.ctx.borrow_mut();
        c.target_nonce = id;
        c.anchors = t.loader.anchors.iter().map(|(k, v)| (k.clone(), *v)).collect();
        c.mem = Some(match t.frames.get(t.cur_frame) {
            Some(f) => f.mem.clone(),
            None => Rc::new(JoinedMemory::new().fallback(t.wire.clone())),
        });
    }

    /// Run every pending lazily-loaded symbol-table module of target
    /// `id`. Definitions land in the target's unit dictionary under the
    /// same sandbox discipline as at attach time; failures quarantine the
    /// module (visible in `info ps`, recoverable via `reload`).
    fn force_all_pending(&mut self, id: usize) {
        if self.targets[id].loader.has_pending() {
            let _ = self.in_unit(id, |loader, interp, budget| loader.force_pending(interp, budget));
        }
    }

    /// Run pending modules until one defines procedure `name` (or the
    /// queue drains). Keeps single-procedure operations (`b f`,
    /// `stop f.addr`) from paying for every module in the program.
    pub(crate) fn force_pending_for(&mut self, id: usize, name: &str) {
        if self.targets[id].loader.has_pending() {
            let _ = self.in_unit(id, |loader, interp, budget| {
                loader.force_pending_for_name(interp, budget, name)
            });
        }
    }

    /// Run symbol-table code of target `id` under the load budget, with
    /// the target's unit dictionary on top: definitions the tables make
    /// land there, exactly as they would have at attach time.
    fn in_unit<T>(&mut self, id: usize, run: impl FnOnce(&Loader, &mut Interp, Budget) -> T) -> T {
        let loader = Rc::clone(&self.targets[id].loader);
        self.interp.push_dict(Rc::clone(&self.targets[id].unit_dict));
        let out = run(&loader, &mut self.interp, self.budgets.load);
        let _ = self.interp.pop_dict();
        out
    }

    /// Rebuild the frame list after a stop. The walk is guarded (depth
    /// cap, cycle detection, per-arch sanity checks): it always
    /// terminates, and the typed reason it stopped lands in
    /// [`Target::walk_stop`] for `bt` to render.
    pub(crate) fn after_stop(&mut self, id: usize) -> Result<(), LdbError> {
        // Any stop past the startup pause is about to be walked and
        // described, and both need symbol-table entries (frame metadata,
        // procedure names) — so pending lazily-loaded modules must
        // materialize before the walk. That includes an attach to a
        // target already running or faulted, which may be anywhere. The
        // startup pause stays lazy: that is what makes connect
        // headers-only.
        if let Some(stop) = self.targets[id].stop {
            if stop.sig != Sig::Pause {
                self.force_all_pending(id);
            }
        }
        let (frames, stop_reason) = {
            let t = &self.targets[id];
            let Some(stop) = t.stop else {
                return Ok(());
            };
            let walker = frame_walker(t.arch);
            let wctx = WalkCtx {
                wire: t.wire.clone(),
                context: stop.context,
                data: t.data,
                loader: &t.loader,
            };
            walk_stack(walker, &wctx)
        };
        if self.trace.is_on() && (!frames.is_empty() || !stop_reason.is_clean()) {
            let mut fields: Vec<(&'static str, ldb_trace::Value)> =
                vec![("target", id.into()), ("depth", frames.len().into())];
            if !stop_reason.is_clean() {
                fields.push(("stop", stop_reason.to_string().into()));
            }
            let sev = if stop_reason.is_clean() { Severity::Debug } else { Severity::Warn };
            self.trace.emit(Layer::Dbg, sev, "frames", &fields);
        }
        if !stop_reason.is_clean() {
            self.health.walks_truncated += 1;
            if matches!(stop_reason, WalkStop::Cycle { .. }) {
                self.health.walk_cycles += 1;
            }
        }
        let t = &mut self.targets[id];
        t.walk_stop = stop_reason;
        if !frames.is_empty() {
            t.frames = frames;
            t.cur_frame = 0;
        }
        // An empty walk means the wire died (or lied) before the top frame
        // could be read (a real stop always yields at least one frame):
        // keep the view of the last coherent stop so cached queries still
        // answer; `walk_stop` records why the fresh walk produced nothing.
        self.sync_ctx(id);
        Ok(())
    }

    // ----- breakpoints and execution -----

    /// The one path that plants a user breakpoint: refuse on a lost wire,
    /// resolve the address with `at` (which may force symbol tables),
    /// plant it over a stopping-point no-op ([`Breakpoints::plant`]) or,
    /// if `anywhere`, with the single-step scheme
    /// ([`Breakpoints::plant_anywhere`]), then drop cached code and
    /// journal the plant.
    fn plant_user(
        &mut self,
        anywhere: bool,
        at: impl FnOnce(&mut Self, usize) -> Result<u32, LdbError>,
    ) -> Result<u32, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let addr = at(self, id)?;
        let t = &mut self.targets[id];
        if anywhere {
            t.breakpoints.plant_anywhere(&t.client, addr)?;
        } else {
            t.breakpoints.plant(&t.client, addr)?;
        }
        t.invalidate_code_cache();
        self.trace.emit(
            Layer::Dbg,
            Severity::Info,
            "plant",
            &[("target", id.into()), ("addr", addr.into())],
        );
        Ok(addr)
    }

    /// Plant a breakpoint at stopping point `index` of procedure `func`.
    ///
    /// # Errors
    /// Unknown procedure, missing stopping point, nub failures.
    pub fn break_at(&mut self, func: &str, index: usize) -> Result<u32, LdbError> {
        self.plant_user(false, |ldb, _| ldb.stop_address(func, index))
    }

    /// Plant a breakpoint at the first stopping point on `line`.
    ///
    /// # Errors
    /// No stopping point on the line; nub failures.
    pub fn break_at_line(&mut self, line: u32) -> Result<u32, LdbError> {
        self.plant_user(false, |ldb, id| {
            // Line lookups scan every procedure's sourcemap, so all
            // pending modules must be in.
            ldb.force_all_pending(id);
            let loader = Rc::clone(&ldb.targets[id].loader);
            let stops = symtab::stops_at_line(&mut ldb.interp, &loader, line)?;
            let Some((entry, index)) = stops.first().cloned() else {
                return Err(LdbError::msg(format!("no stopping point on line {line}")));
            };
            Ok(symtab::stop_addr(&mut ldb.interp, &entry, index)?)
        })
    }

    /// Plant a breakpoint at an arbitrary code address using the
    /// single-step scheme — works on code compiled *without* `-g` no-ops.
    ///
    /// # Errors
    /// Nub failures.
    pub fn break_at_pc(&mut self, addr: u32) -> Result<(), LdbError> {
        self.plant_user(true, |_, _| Ok(addr)).map(|_| ())
    }

    /// Plant a breakpoint at the first stopping point on `line` of
    /// `file`, resolved through the sourcemap (multi-unit programs have
    /// several files).
    ///
    /// # Errors
    /// No stopping point there; nub failures.
    pub fn break_at_file_line(&mut self, file: &str, line: u32) -> Result<u32, LdbError> {
        self.plant_user(false, |ldb, id| {
            ldb.force_all_pending(id);
            let loader = Rc::clone(&ldb.targets[id].loader);
            let stops = symtab::stops_at_file_line(&mut ldb.interp, &loader, file, line)?;
            let Some((entry, index)) = stops.first().cloned() else {
                return Err(LdbError::msg(format!("no stopping point at {file}:{line}")));
            };
            Ok(symtab::stop_addr(&mut ldb.interp, &entry, index)?)
        })
    }

    /// Remove the breakpoint at `addr`.
    ///
    /// # Errors
    /// Nub failures.
    pub fn clear_breakpoint(&mut self, addr: u32) -> Result<(), LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let t = &mut self.targets[id];
        t.conds.remove(&addr);
        t.breakpoints.remove(&t.client, addr)?;
        t.invalidate_code_cache();
        self.trace.emit(
            Layer::Dbg,
            Severity::Info,
            "unplant",
            &[("target", id.into()), ("addr", addr.into())],
        );
        Ok(())
    }

    // ----- time travel: checkpoints and reverse execution -----

    /// Set the periodic-checkpoint interval for `cont` (`--checkpoint-every
    /// N`): `Some(n)` makes every continue run in `n`-step legs with a
    /// checkpoint at each boundary; `None` (the default) restores the
    /// plain run path, which pays nothing.
    pub fn set_checkpoint_every(&mut self, every: Option<u64>) {
        self.checkpoint_every = every;
    }

    /// Capture the current target's full state into its checkpoint ring
    /// (the `checkpoint` command). Returns the retired-instruction count
    /// the checkpoint is keyed by.
    ///
    /// # Errors
    /// No stopped target; nub failures.
    pub fn checkpoint_now(&mut self) -> Result<u64, LdbError> {
        self.on_wire(Self::take_checkpoint)
    }

    /// Per-entry checkpoint rows of the current target, oldest first:
    /// `(steps, raw bytes, compressed bytes)` (the `info checkpoints`
    /// command).
    ///
    /// # Errors
    /// No current target.
    pub fn checkpoint_rows(&self) -> Result<Vec<(u64, usize, usize)>, LdbError> {
        let id = self.cur_id()?;
        Ok(self.targets[id].checkpoints.rows())
    }

    /// Aggregate checkpoint statistics of the current target.
    ///
    /// # Errors
    /// No current target.
    pub fn checkpoint_stats(&self) -> Result<crate::checkpoint::CheckpointStats, LdbError> {
        let id = self.cur_id()?;
        Ok(self.targets[id].checkpoints.stats())
    }

    /// Retired-instruction count of the current target (its position on
    /// the time axis reverse execution rewinds along).
    ///
    /// # Errors
    /// No connected target; nub failures.
    pub fn steps_retired(&mut self) -> Result<u64, LdbError> {
        self.on_wire(|ldb, id| Ok(ldb.targets[id].client.borrow_mut().query_steps()?))
    }

    /// The current target's serialized machine state (registers plus
    /// dirty pages, planted traps lifted) — the canonical image the
    /// differential harness compares for bit-identity: two equal images
    /// mean equal CPU state, equal memory, and equal step counts.
    ///
    /// # Errors
    /// No connected target; nub failures.
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>, LdbError> {
        self.on_wire(|ldb, id| Ok(ldb.targets[id].client.borrow_mut().take_snapshot()?))
    }

    /// Capture target `id`'s state into its checkpoint ring, keyed by the
    /// retired-step count and stamped with the stop signal and the
    /// breakpoint-set generation (both govern how replay resumes from it).
    pub(crate) fn take_checkpoint(&mut self, id: usize) -> Result<u64, LdbError> {
        let stop = self.targets[id]
            .stop
            .ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        let (image, steps) = {
            let mut c = self.targets[id].client.borrow_mut();
            let image = c.take_snapshot()?;
            let steps = c.query_steps()?;
            (image, steps)
        };
        let gen = self.targets[id].breakpoints.generation();
        self.targets[id].checkpoints.push(steps, stop.sig.number(), stop.code, gen, &image);
        self.health.checkpoints_taken += 1;
        if self.trace.is_on() {
            self.trace.emit(
                Layer::Dbg,
                Severity::Info,
                "checkpoint",
                &[("target", id.into()), ("steps", steps.into()), ("bytes", image.len().into())],
            );
        }
        Ok(steps)
    }

    /// Attach a condition to the breakpoint at `addr` (or clear it with
    /// `None`): `cont_watch`, `step_over`, and `finish` resume silently
    /// past the breakpoint while the expression evaluates to zero.
    /// Conditions are evaluated by the expression server in the scope of
    /// the stop, so they may reference locals.
    ///
    /// # Errors
    /// No breakpoint planted at `addr`.
    pub fn set_break_condition(
        &mut self,
        addr: u32,
        cond: Option<String>,
    ) -> Result<(), LdbError> {
        let id = self.cur_id()?;
        if !self.targets[id].breakpoints.is_planted(addr) {
            return Err(LdbError::msg(format!("no breakpoint at {addr:#x}")));
        }
        match cond {
            Some(c) => {
                self.targets[id].conds.insert(addr, c);
            }
            None => {
                self.targets[id].conds.remove(&addr);
            }
        }
        Ok(())
    }

    /// Arm a software watchpoint on `name`: the target is then driven by
    /// single-stepping (the nub's step extension, paper Sec. 7.1) and
    /// stops when the printed value changes. Frame-relative variables are
    /// bound to the invocation they were armed in and are only compared
    /// while that frame is innermost. Returns the current printed value.
    ///
    /// # Errors
    /// Unknown name; no stopped target; nub failures.
    pub fn watch_var(&mut self, name: &str) -> Result<String, LdbError> {
        let entry = self.resolve(name)?;
        let last = self.print_entry(&entry)?;
        let id = self.cur_id()?;
        let loc = self.entry_location(&entry)?;
        let scope = match loc {
            Location::Addr { space: 'd', .. } | Location::Immediate(_) => None,
            _ => {
                let f = self.selected_frame()?;
                let (func, _) = self.describe_pc(id, f.pc);
                Some((func, f.vfp))
            }
        };
        let t = &mut self.targets[id];
        t.watches.retain(|w| w.name != name);
        t.watches.push(Watch { name: name.to_string(), entry, scope, last: last.clone() });
        Ok(last)
    }

    /// Disarm the watchpoint on `name`.
    ///
    /// # Errors
    /// No such watchpoint; no current target.
    pub fn clear_watch(&mut self, name: &str) -> Result<(), LdbError> {
        let id = self.cur_id()?;
        let before = self.targets[id].watches.len();
        self.targets[id].watches.retain(|w| w.name != name);
        if self.targets[id].watches.len() == before {
            return Err(LdbError::msg(format!("no watchpoint on `{name}`")));
        }
        Ok(())
    }

    /// The current target's armed watchpoints as (name, last value).
    pub fn watchpoints(&self) -> Vec<(String, String)> {
        match self.cur_id() {
            Ok(id) => self.targets[id]
                .watches
                .iter()
                .map(|w| (w.name.clone(), w.last.clone()))
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// The [`Location`] a symbol entry resolves to in the selected frame.
    fn entry_location(&mut self, entry: &Object) -> Result<Location, LdbError> {
        let mem = self.selected_frame()?.mem.clone();
        self.interp.push(Object::host(Rc::new(MemHandle(mem))));
        self.interp.push(entry.clone());
        self.interp.run_str("SymLoc")?;
        Ok(self.interp.pop()?.as_location()?)
    }

    /// Overwrite the stopped target's saved pc (it takes effect on
    /// continue). With the paper's interim breakpoint scheme this is also
    /// how execution resumes at a chosen stopping point.
    ///
    /// # Errors
    /// Target not stopped; nub failures.
    pub fn set_pc(&mut self, pc: u32) -> Result<(), LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let t = &self.targets[id];
        let stop = t.stop.ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        t.client
            .borrow_mut()
            .store('d', stop.context + t.data.ctx.pc_offset, 4, pc as u64)?;
        t.invalidate_data_cache();
        Ok(())
    }

    /// The address of stopping point `index` of `func` (without planting).
    ///
    /// # Errors
    /// Unknown procedure or stopping point.
    pub fn stop_address(&mut self, func: &str, index: usize) -> Result<u32, LdbError> {
        let id = self.cur_id()?;
        self.force_pending_for(id, func);
        let entry = self.targets[id]
            .loader
            .proc_entry_by_name(func)
            .ok_or_else(|| match self.targets[id].loader.quarantine_note() {
                Some(note) => LdbError::msg(format!("no procedure `{func}` ({note})")),
                None => LdbError::msg(format!("no procedure `{func}`")),
            })?;
        Ok(symtab::stop_addr(&mut self.interp, &entry, index)?)
    }

    pub(crate) fn read_saved_pc(&self, id: usize) -> Result<u32, LdbError> {
        let t = &self.targets[id];
        let stop = t.stop.ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        Ok(t.client
            .borrow_mut()
            .fetch('d', stop.context + t.data.ctx.pc_offset, 4)? as u32)
    }

    pub(crate) fn describe_pc(&mut self, id: usize, pc: u32) -> (String, u32) {
        let loader = Rc::clone(&self.targets[id].loader);
        let func = loader
            .proc_containing(pc)
            .map(|(_, n)| n.trim_start_matches('_').to_string())
            .unwrap_or_else(|| "?".to_string());
        let line = loader
            .proc_containing(pc)
            .and_then(|(_, n)| loader.proc_entry_by_link_name(n))
            .and_then(|entry| self.stop_before(&entry, pc).ok().flatten())
            .map_or(0, |(_, line)| line);
        (func, line)
    }

    // ----- frames -----

    /// The current backtrace, top first: (level, func, pc, vfp), plus why
    /// the walk stopped — anything but [`WalkStop::StackBase`] means the
    /// rows are a truncated view of a stack the debugger could not fully
    /// trust, and the caller should say so.
    pub fn backtrace(&self) -> (Vec<(u32, String, u32, u32)>, WalkStop) {
        let Some(id) = self.cur else { return (Vec::new(), WalkStop::StackBase) };
        let t = &self.targets[id];
        let rows = t
            .frames
            .iter()
            .map(|f| {
                let name = t
                    .loader
                    .proc_containing(f.pc)
                    .map(|(_, n)| n.trim_start_matches('_').to_string())
                    .unwrap_or_else(|| format!("{:#x}", f.pc));
                (f.level, name, f.pc, f.vfp)
            })
            .collect();
        (rows, t.walk_stop.clone())
    }

    /// The current target's selected frame.
    fn selected_frame(&self) -> Result<Rc<Frame>, LdbError> {
        let t = &self.targets[self.cur_id()?];
        t.frames.get(t.cur_frame).cloned().ok_or_else(|| LdbError::msg("target is not stopped"))
    }

    /// Select frame `level` (0 = top); name resolution and printing then
    /// use that frame's scope and memory.
    ///
    /// # Errors
    /// No such frame.
    pub fn select_frame(&mut self, level: usize) -> Result<(), LdbError> {
        let id = self.cur_id()?;
        if level >= self.targets[id].frames.len() {
            return Err(LdbError::msg(format!("no frame {level}")));
        }
        self.targets[id].cur_frame = level;
        self.sync_ctx(id);
        Ok(())
    }

    /// The scope (procedure entry, stopping-point index) at the selected
    /// frame's pc.
    pub(crate) fn scope(&mut self) -> Result<(Object, usize), LdbError> {
        let id = self.cur_id()?;
        // A scope query is a demand for symbol-table entries: materialize
        // any pending lazily-loaded modules (no-op after the first real
        // stop, which already forced them).
        self.force_all_pending(id);
        let t = &self.targets[id];
        let f = t
            .frames
            .get(t.cur_frame)
            .ok_or_else(|| LdbError::msg("no frame"))?;
        let pc = f.pc;
        let loader = Rc::clone(&t.loader);
        let (_, name) = loader
            .proc_containing(pc)
            .ok_or_else(|| LdbError::msg(format!("pc {pc:#x} is in no known procedure")))?;
        let name = name.to_string();
        let entry = loader.proc_entry_by_link_name(&name).ok_or_else(|| {
            let note = match loader.quarantine_note() {
                Some(note) => format!("; {note}"),
                None => String::new(),
            };
            LdbError::msg(format!(
                "stopped in `{name}`, which has no symbol-table entry \
                 (startup code or a procedure compiled without -g{note})"
            ))
        })?;
        let best = self.stop_before(&entry, pc)?.map_or(0, |(index, _)| index);
        Ok((entry, best))
    }

    /// The innermost stopping point of procedure `entry` at or before
    /// `pc`, as (index, line): the exact stopping point, else the nearest
    /// one before it (single-stepping lands between stopping points).
    fn stop_before(&mut self, entry: &Object, pc: u32) -> Result<Option<(usize, u32)>, LdbError> {
        let mut best: Option<(u32, usize, u32)> = None;
        for l in symtab::loci_of(&mut self.interp, entry)? {
            let a = symtab::stop_addr(&mut self.interp, entry, l.index)?;
            if a <= pc && best.is_none_or(|(ba, _, _)| a >= ba) {
                best = Some((a, l.index, l.line));
            }
        }
        Ok(best.map(|(_, index, line)| (index, line)))
    }

    /// Resolve `name` in the current scope to its symbol entry.
    ///
    /// # Errors
    /// Unknown name; no stopped target.
    pub fn resolve(&mut self, name: &str) -> Result<Object, LdbError> {
        let (entry, stop) = self.scope()?;
        let id = self.cur_id()?;
        let loader = Rc::clone(&self.targets[id].loader);
        symtab::resolve_name(&mut self.interp, &loader, &entry, stop, name)?.ok_or_else(|| {
            // The name may live in a module whose table was quarantined;
            // say so, instead of a bare "not visible".
            match loader.quarantine_note() {
                Some(note) => {
                    LdbError::msg(format!("`{name}` is not visible here ({note})"))
                }
                None => LdbError::msg(format!("`{name}` is not visible here")),
            }
        })
    }

    /// Retry the current target's quarantined modules under the load
    /// budget. Returns one `(module, outcome)` row per retried module.
    ///
    /// # Errors
    /// No current target.
    pub fn reload_modules(&mut self) -> Result<Vec<ReloadRow>, LdbError> {
        let id = self.cur_id()?;
        Ok(self.in_unit(id, |loader, interp, budget| loader.reload_quarantined(interp, budget)))
    }

    /// The current target's quarantined modules (empty when none, or no
    /// target is selected).
    pub fn quarantined_modules(&self) -> Vec<(String, String)> {
        match self.cur {
            Some(id) => self.targets[id].loader.quarantined(),
            None => Vec::new(),
        }
    }

    /// Print the value of `name` (the paper's worked example: the fetch
    /// travels joined → register → alias → wire → nub). Returns the
    /// printed text.
    ///
    /// # Errors
    /// Unknown names, nub failures, printer failures.
    pub fn print_var(&mut self, name: &str) -> Result<String, LdbError> {
        let entry = self.resolve(name)?;
        self.print_entry(&entry)
    }

    /// Print a resolved symbol entry.
    ///
    /// # Errors
    /// As [`Ldb::print_var`].
    pub fn print_entry(&mut self, entry: &Object) -> Result<String, LdbError> {
        let mem = self.selected_frame()?.mem.clone();
        let typedict = symtab::entry_type(entry)
            .ok_or_else(|| LdbError::msg("symbol has no type"))?;
        // Fresh pointer-chase guard for this print (cycle-safe printing).
        self.ctx.borrow_mut().begin_print();
        let before = self.out.borrow().len();
        self.interp.push(Object::host(Rc::new(MemHandle(mem))));
        self.interp.push(entry.clone());
        // Printers come from the symbol table (untrusted): run them under
        // the tight interactive budget so a looping or allocating printer
        // dies with `timeout`/`vmerror` instead of wedging the session.
        let budget = self.budgets.interactive;
        self.interp.with_budget(budget, |i| {
            i.run_str("SymLoc")?;
            i.push(typedict);
            i.run_str("print")
        })?;
        self.interp.pretty.newline();
        let all = self.out.borrow();
        let mut s = all[before..].to_string();
        if s.ends_with('\n') {
            s.pop();
        }
        Ok(s)
    }

    /// Enumerate the current target's registers using the
    /// machine-dependent `&regnames` PostScript data.
    ///
    /// # Errors
    /// No stopped frame.
    pub fn registers(&mut self) -> Result<Vec<(String, u32)>, LdbError> {
        let id = self.cur_id()?;
        if self.targets[id].disconnected {
            // Answer from the last snapshot: the wire is gone, but what
            // the target looked like at the last stop is still known.
            if !self.targets[id].reg_cache.is_empty() {
                return Ok(self.targets[id].reg_cache.clone());
            }
            return Err(LdbError::msg(
                "target is disconnected and no register snapshot is cached",
            ));
        }
        let mem = self.selected_frame()?.mem.clone();
        let names = self.interp.lookup("&regnames")?.as_array()?;
        let names = names.borrow().clone();
        let mut out = Vec::with_capacity(names.len());
        for (i, n) in names.iter().enumerate() {
            let v = mem.fetch('r', i as i64, 4).unwrap_or(0);
            out.push((n.as_string()?.to_string(), v as u32));
        }
        self.targets[id].reg_cache = out.clone();
        Ok(out)
    }

    /// Take ownership of the nub handle of target `id` (to join the nub
    /// thread after exit and inspect the final machine).
    pub fn take_nub_handle(&mut self, id: usize) -> Option<NubHandle> {
        self.targets.get_mut(id).and_then(|t| t.nub.take())
    }

    /// Detach from the current target, leaving its state preserved in the
    /// nub for a later debugger (even a different ldb process).
    ///
    /// # Errors
    /// Nothing selected.
    pub fn detach_current(&mut self) -> Result<Option<NubHandle>, LdbError> {
        let id = self.cur_id()?;
        self.targets[id].client.borrow_mut().detach_in_place()?;
        let t = self.targets.remove(id);
        self.pop_target_dicts();
        self.cur = None;
        Ok(t.nub)
    }
}

