//! The debugger: targets, stops, frames, printing, and expression
//! evaluation — the client interface tying every subsystem together.
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

use ldb_machine::{Arch, MachineData};
use ldb_nub::{FaultConfig, FaultyWire, NubClient, NubConfig, NubEvent, NubHandle, Sig, Wire};
use ldb_postscript::{Budget, DictRef, Interp, Location, Object, Out, PsError, PsFile, Value};
use ldb_trace::{Layer, Severity, Trace};

use crate::amemory::{CachedMemory, JoinedMemory, MemRef, WireMemory};
use crate::breakpoint::Breakpoints;
use crate::chaos::{ChaosConfig, ChaosMemory};
use crate::frame::{frame_walker, walk_stack, Frame, WalkCtx, WalkStop};
use crate::loader::{shared_module_cache, Loader, ModuleTable};
use crate::psops::{make_arch_dict, make_debug_dict, CtxRef, EvalCtx, MemHandle};
use crate::symtab;
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
}

/// The current stop state of a target.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Signal.
    pub sig: Sig,
    /// Auxiliary code.
    pub code: u32,
    /// Context-block address.
    pub context: u32,
}

/// A software watchpoint: a resolved symbol entry plus the value it had
/// when last inspected. Locals carry the frame (procedure + vfp) they were
/// armed in and are only compared while that invocation is innermost.
pub struct Watch {
    /// The watched name, as the user gave it.
    pub name: String,
    entry: Object,
    /// `Some((proc, vfp))` for frame-relative variables.
    scope: Option<(String, u32)>,
    last: String,
}

/// Split on commas that are not nested inside parentheses or quoted in
/// character literals.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut level = 0i32;
    let mut start = 0;
    let mut quote = false;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'\'' => quote = !quote,
            _ if quote => {}
            b'(' => level += 1,
            b')' => level -= 1,
            b',' if level == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

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

/// How a target receives debugger-initiated calls.
enum CallConv {
    /// Arguments in registers, return address in a link register.
    Risc {
        /// Integer argument registers, in order.
        arg_regs: &'static [u8],
        /// The link register the callee returns through.
        ra: u8,
    },
    /// Arguments pushed right-to-left; the call pushes the return address.
    Cisc,
}

/// The calling convention of each simulated target (mirrors the
/// compiler back ends in `ldb-cc`).
fn call_conv(arch: Arch) -> CallConv {
    match arch {
        Arch::Mips => CallConv::Risc { arg_regs: &[4, 5, 6, 7], ra: 31 },
        Arch::Sparc => CallConv::Risc { arg_regs: &[8, 9, 10, 11, 12, 13], ra: 15 },
        Arch::M68k | Arch::Vax => CallConv::Cisc,
    }
}

struct ExprState {
    outcome: Option<Result<(), String>>,
}

/// One debugged target (the paper's *target object*: connection state and
/// everything that must not live in globals, because ldb connects to
/// multiple targets simultaneously).
pub struct Target {
    /// Architecture.
    pub arch: Arch,
    /// Machine-dependent data.
    pub data: &'static MachineData,
    /// Nub connection.
    pub client: Rc<RefCell<NubClient>>,
    /// Loader table.
    pub loader: Rc<Loader>,
    /// The per-architecture dictionary.
    pub arch_dict: DictRef,
    /// The unit dictionary holding this target's symbol-table entries
    /// (`S0`, `S1`, ... and the type dictionaries).
    pub unit_dict: DictRef,
    /// The wire memory (c/d spaces), possibly behind the block cache.
    pub wire: MemRef,
    /// The block cache in front of the wire, when enabled: `wire` is then
    /// this same object. Held separately so the debugger can invalidate
    /// at resume/stop/plant boundaries and the CLI can report stats.
    pub cache: Option<Rc<CachedMemory>>,
    /// The chaos layer corrupting this target's data fetches, when the
    /// session was started with `--chaos`: `wire` is then this object,
    /// wrapping the cache (or raw wire). Held separately for stats.
    pub chaos: Option<Rc<ChaosMemory>>,
    /// Planted breakpoints.
    pub breakpoints: Breakpoints,
    /// Current stop, if stopped.
    pub stop: Option<Stop>,
    /// The call stack at the current stop (0 = top).
    pub frames: Vec<Rc<Frame>>,
    /// Why the last stack walk stopped ([`WalkStop::StackBase`] for a
    /// complete walk; anything else means `frames` is truncated).
    pub walk_stop: WalkStop,
    /// The selected frame.
    pub cur_frame: usize,
    /// Keep the spawned nub alive (when we spawned it).
    pub nub: Option<NubHandle>,
    /// Armed software watchpoints.
    pub watches: Vec<Watch>,
    /// Breakpoint conditions: address -> C expression; resume paths skip
    /// the stop while the expression evaluates to zero.
    pub conds: HashMap<u32, String>,
    /// The wire to the nub was lost (debugger-side view). The nub itself
    /// preserves the target; cached queries still answer, mutating
    /// operations refuse until [`Ldb::reconnect`].
    pub disconnected: bool,
    /// Register snapshot from the last successful [`Ldb::registers`]
    /// call, answered while disconnected.
    reg_cache: Vec<(String, u32)>,
    /// The checkpoint ring reverse execution rewinds through.
    pub checkpoints: crate::checkpoint::CheckpointStore,
    /// The fault injector this target was attached through
    /// ([`AttachOpts::fault`]); a reconnect's fresh wire gets one too.
    fault: Option<FaultConfig>,
}

impl Target {
    /// Drop cached `d`-space lines. Data memory is cached per-stop: any
    /// boundary where the target may run, or where the debugger stores
    /// into data behind the cache's back, lands here.
    pub fn invalidate_data_cache(&self) {
        if let Some(c) = &self.cache {
            c.invalidate_space('d');
        }
    }

    /// Drop cached `c`-space lines. Code is read-only to the *target*, so
    /// it is cached for the whole session — but the debugger itself
    /// patches it when planting and unplanting breakpoints.
    pub fn invalidate_code_cache(&self) {
        if let Some(c) = &self.cache {
            c.invalidate_space('c');
        }
    }
}

impl std::fmt::Debug for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Target {{ arch: {}, stopped: {} }}", self.arch, self.stop.is_some())
    }
}

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
    ctx: CtxRef,
    #[allow(dead_code)]
    debug_dict: DictRef,
    targets: Vec<Target>,
    cur: Option<usize>,
    dicts_pushed: u8,
    expr: Option<ExprSession>,
    expr_state: Rc<RefCell<ExprState>>,
    handles: u32,
    /// Put the block cache in front of the wire of targets attached from
    /// now on (on by default; `--no-wire-cache` turns it off).
    wire_cache: bool,
    /// Resource budgets for untrusted PostScript (the artifact sandbox).
    budgets: PsBudgets,
    /// Flight-recorder handle, propagated to the interpreter and to every
    /// nub client ([`Ldb::set_trace`]).
    trace: Trace,
    /// Chaos-injection policy for targets attached from now on (`--chaos
    /// SEED`): hostile-target testing, off by default.
    chaos: Option<ChaosConfig>,
    /// Session-wide robustness counters (`info health`).
    health: Health,
    /// Cross-thread cancellation token ([`Ldb::set_cancel`]): the daemon's
    /// per-session watchdog sets it to abort a wedged command. Propagated
    /// to the interpreter and to every nub client, like the trace handle.
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// The dictionary stack as of session construction (systemdict …
    /// debug dict): the known-good base [`Ldb::recover_session`] restores
    /// after a quarantined command.
    base_dicts: Vec<DictRef>,
    /// Periodic-checkpoint interval for `cont` (`--checkpoint-every N`):
    /// when set, resumes run in `N`-step legs and a checkpoint is taken at
    /// each leg boundary. `None` (the default) leaves the run path alone.
    checkpoint_every: Option<u64>,
    /// Expressions re-evaluated and shown after every stop (`display`).
    pub(crate) displays: Vec<String>,
}

/// Session-wide robustness counters: how often the defensive layers
/// fired. `info health` renders this; the chaos soak asserts over it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Health {
    /// Stack walks that ended in anything but
    /// [`WalkStop::StackBase`](crate::frame::WalkStop::StackBase).
    pub walks_truncated: u64,
    /// Of those, walks stopped by cycle detection.
    pub walk_cycles: u64,
    /// `<cycle>` diagnostics emitted while printing pointer-linked data.
    pub print_cycles: u64,
    /// Prints truncated by the pointer-follow cap.
    pub print_follow_caps: u64,
    /// Commands quarantined by the crash-proof command loop.
    pub quarantined_commands: u64,
    /// Fetches the chaos layer corrupted (0 without `--chaos`).
    pub chaos_corruptions: u64,
    /// Wedged commands a session watchdog cancelled (0 outside a
    /// watchdog-supervised session — the daemon's per-tenant deadline).
    pub watchdog_timeouts: u64,
    /// Checkpoints captured (manual, at-resume, and periodic).
    pub checkpoints_taken: u64,
    /// Snapshot restores performed by reverse execution.
    pub restores: u64,
}

impl Health {
    /// The counters as one machine-readable JSON object (`info health
    /// --json`): what the daemon and fleet runner aggregate per tenant
    /// without screen-scraping the human format. Keys are the field
    /// names; all values are unsigned integers, so the encoding needs no
    /// escaping machinery.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"walks_truncated\":{},\"walk_cycles\":{},\"print_cycles\":{},\
             \"print_follow_caps\":{},\"quarantined_commands\":{},\
             \"chaos_corruptions\":{},\"watchdog_timeouts\":{},\
             \"checkpoints_taken\":{},\"restores\":{}}}",
            self.walks_truncated,
            self.walk_cycles,
            self.print_cycles,
            self.print_follow_caps,
            self.quarantined_commands,
            self.chaos_corruptions,
            self.watchdog_timeouts,
            self.checkpoints_taken,
            self.restores
        )
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "health: {} truncated walks ({} cycles), {} print cycles, \
             {} follow caps, {} quarantined commands, {} chaos corruptions, \
             {} watchdog timeouts, {} checkpoints, {} restores",
            self.walks_truncated,
            self.walk_cycles,
            self.print_cycles,
            self.print_follow_caps,
            self.quarantined_commands,
            self.chaos_corruptions,
            self.watchdog_timeouts,
            self.checkpoints_taken,
            self.restores
        )
    }
}

struct ExprSession {
    to_server: crossbeam::channel::Sender<ldb_exprserver::ToServer>,
    pipe: Rc<RefCell<PsFile>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Ldb {
    fn drop(&mut self) {
        if let Some(s) = self.expr.take() {
            let _ = s.to_server.send(ldb_exprserver::ToServer::Shutdown);
            if let Some(j) = s.join {
                let _ = j.join();
            }
        }
    }
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
        interp.push_dict(Rc::clone(&debug_dict));
        let base_dicts = interp.dict_stack_snapshot();
        let expr_state = Rc::new(RefCell::new(ExprState { outcome: None }));
        let mut ldb = Ldb {
            interp,
            out,
            ctx,
            debug_dict,
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
    /// rebuilds the frame view. A target attached through a fault
    /// injector gets the same injector on the fresh wire.
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
        self.targets[id].disconnected = false;
        let t = &mut self.targets[id];
        let recovered = t.breakpoints.recover(&t.client)?;
        let _ = recovered;
        // Another debugger may have touched anything while we were away:
        // nothing cached before the loss can be trusted.
        if let Some(c) = &self.targets[id].cache {
            c.flush();
        }
        self.handle_event(id, ev)
    }

    /// Refuse a wire-touching mutation while the target is disconnected.
    fn ensure_connected(&self, id: usize) -> Result<(), LdbError> {
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
    fn guard_wire<T>(&mut self, id: usize, r: Result<T, LdbError>) -> Result<T, LdbError> {
        if let Err(LdbError::Nub(
            ldb_nub::NubError::Io(_) | ldb_nub::NubError::Timeout(_),
        )) = &r
        {
            self.targets[id].disconnected = true;
        }
        r
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

    fn cur_id(&self) -> Result<usize, LdbError> {
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
        let loader = Rc::clone(&self.targets[id].loader);
        if !loader.has_pending() {
            return;
        }
        let unit_dict = Rc::clone(&self.targets[id].unit_dict);
        self.interp.push_dict(unit_dict);
        let _ = loader.force_pending(&mut self.interp, self.budgets.load);
        let _ = self.interp.pop_dict();
    }

    /// Run pending modules until one defines procedure `name` (or the
    /// queue drains). Keeps single-procedure operations (`b f`,
    /// `stop f.addr`) from paying for every module in the program.
    fn force_pending_for(&mut self, id: usize, name: &str) {
        let loader = Rc::clone(&self.targets[id].loader);
        if !loader.has_pending() {
            return;
        }
        let unit_dict = Rc::clone(&self.targets[id].unit_dict);
        self.interp.push_dict(unit_dict);
        let _ = loader.force_pending_for_name(&mut self.interp, self.budgets.load, name);
        let _ = self.interp.pop_dict();
    }

    /// Rebuild the frame list after a stop. The walk is guarded (depth
    /// cap, cycle detection, per-arch sanity checks): it always
    /// terminates, and the typed reason it stopped lands in
    /// [`Target::walk_stop`] for `bt` to render.
    fn after_stop(&mut self, id: usize) -> Result<(), LdbError> {
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

    /// Plant a breakpoint at stopping point `index` of procedure `func`.
    ///
    /// # Errors
    /// Unknown procedure, missing stopping point, nub failures.
    pub fn break_at(&mut self, func: &str, index: usize) -> Result<u32, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        self.force_pending_for(id, func);
        let entry = self.targets[id]
            .loader
            .proc_entry_by_name(func)
            .ok_or_else(|| match self.targets[id].loader.quarantine_note() {
                Some(note) => LdbError::msg(format!("no procedure `{func}` ({note})")),
                None => LdbError::msg(format!("no procedure `{func}`")),
            })?;
        let addr = symtab::stop_addr(&mut self.interp, &entry, index)?;
        let t = &mut self.targets[id];
        t.breakpoints.plant(&t.client, addr)?;
        t.invalidate_code_cache();
        self.trace.emit(
            Layer::Dbg,
            Severity::Info,
            "plant",
            &[("target", id.into()), ("addr", addr.into())],
        );
        Ok(addr)
    }

    /// Plant a breakpoint at the first stopping point on `line`.
    ///
    /// # Errors
    /// No stopping point on the line; nub failures.
    pub fn break_at_line(&mut self, line: u32) -> Result<u32, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        // Line lookups scan every procedure's sourcemap, so all pending
        // modules must be in.
        self.force_all_pending(id);
        let loader = Rc::clone(&self.targets[id].loader);
        let stops = symtab::stops_at_line(&mut self.interp, &loader, line)?;
        let Some((entry, index)) = stops.first().cloned() else {
            return Err(LdbError::msg(format!("no stopping point on line {line}")));
        };
        let addr = symtab::stop_addr(&mut self.interp, &entry, index)?;
        let t = &mut self.targets[id];
        t.breakpoints.plant(&t.client, addr)?;
        t.invalidate_code_cache();
        self.trace.emit(
            Layer::Dbg,
            Severity::Info,
            "plant",
            &[("target", id.into()), ("addr", addr.into())],
        );
        Ok(addr)
    }

    /// Plant a breakpoint at an arbitrary code address using the
    /// single-step scheme — works on code compiled *without* `-g` no-ops.
    ///
    /// # Errors
    /// Nub failures.
    pub fn break_at_pc(&mut self, addr: u32) -> Result<(), LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let t = &mut self.targets[id];
        t.breakpoints.plant_anywhere(&t.client, addr)?;
        t.invalidate_code_cache();
        self.trace.emit(
            Layer::Dbg,
            Severity::Info,
            "plant",
            &[("target", id.into()), ("addr", addr.into())],
        );
        Ok(())
    }

    /// Single-step one target instruction (requires the nub's step
    /// extension). Returns the resulting stop event.
    ///
    /// # Errors
    /// Nub failures.
    pub fn step_insn(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.step_insn_inner(id);
        self.guard_wire(id, r)
    }

    fn step_insn_inner(&mut self, id: usize) -> Result<StopEvent, LdbError> {
        self.prepare_resume(id)?;
        let ev = self.targets[id].client.borrow_mut().step_and_wait()?;
        self.handle_event(id, ev)
    }

    /// Plant a breakpoint at the first stopping point on `line` of
    /// `file`, resolved through the sourcemap (multi-unit programs have
    /// several files).
    ///
    /// # Errors
    /// No stopping point there; nub failures.
    pub fn break_at_file_line(&mut self, file: &str, line: u32) -> Result<u32, LdbError> {
        let id = self.cur_id()?;
        self.force_all_pending(id);
        let loader = Rc::clone(&self.targets[id].loader);
        let stops = symtab::stops_at_file_line(&mut self.interp, &loader, file, line)?;
        let Some((entry, index)) = stops.first().cloned() else {
            return Err(LdbError::msg(format!("no stopping point at {file}:{line}")));
        };
        let addr = symtab::stop_addr(&mut self.interp, &entry, index)?;
        let t = &mut self.targets[id];
        t.breakpoints.plant(&t.client, addr)?;
        t.invalidate_code_cache();
        self.trace.emit(
            Layer::Dbg,
            Severity::Info,
            "plant",
            &[("target", id.into()), ("addr", addr.into())],
        );
        Ok(addr)
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

    /// Continue the current target until the next stop.
    ///
    /// # Errors
    /// Nub failures.
    pub fn cont(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.cont_inner(id);
        self.guard_wire(id, r)
    }

    fn cont_inner(&mut self, id: usize) -> Result<StopEvent, LdbError> {
        let Some(every) = self.checkpoint_every else {
            self.prepare_resume(id)?;
            let ev = self.targets[id].client.borrow_mut().continue_and_wait()?;
            return self.handle_event(id, ev);
        };
        // Checkpointed continue: record the resume point (so reverse
        // execution can come back to this very stop), then run in
        // `every`-step legs, checkpointing at each quiet leg boundary.
        let every = every.max(1);
        self.take_checkpoint(id)?;
        loop {
            self.prepare_resume(id)?;
            let ev = self.targets[id].client.borrow_mut().step_n_and_wait(every)?;
            match ev {
                // `cont` never sends a single-step, so a `Step` stop here
                // is exactly the leg budget running out: checkpoint the
                // quiet state and keep running.
                NubEvent::Stopped { sig: Sig::Step, code, context } => {
                    self.targets[id].invalidate_data_cache();
                    self.targets[id].stop = Some(Stop { sig: Sig::Step, code, context });
                    self.take_checkpoint(id)?;
                }
                other => return self.handle_event(id, other),
            }
        }
    }

    // ----- time travel: checkpoints and reverse execution -----

    /// Set the periodic-checkpoint interval for `cont` (`--checkpoint-every
    /// N`): `Some(n)` makes every continue run in `n`-step legs with a
    /// checkpoint at each boundary; `None` (the default) restores the
    /// plain run path, which pays nothing.
    pub fn set_checkpoint_every(&mut self, every: Option<u64>) {
        self.checkpoint_every = every;
    }

    /// The configured periodic-checkpoint interval.
    #[must_use]
    pub fn checkpoint_every(&self) -> Option<u64> {
        self.checkpoint_every
    }

    /// Capture the current target's full state into its checkpoint ring
    /// (the `checkpoint` command). Returns the retired-instruction count
    /// the checkpoint is keyed by.
    ///
    /// # Errors
    /// No stopped target; nub failures.
    pub fn checkpoint_now(&mut self) -> Result<u64, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.take_checkpoint(id);
        self.guard_wire(id, r)
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
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.targets[id]
            .client
            .borrow_mut()
            .query_steps()
            .map_err(LdbError::from);
        self.guard_wire(id, r)
    }

    /// The current target's serialized machine state (registers plus
    /// dirty pages, planted traps lifted) — the canonical image the
    /// differential harness compares for bit-identity: two equal images
    /// mean equal CPU state, equal memory, and equal step counts.
    ///
    /// # Errors
    /// No connected target; nub failures.
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.targets[id]
            .client
            .borrow_mut()
            .take_snapshot()
            .map_err(LdbError::from);
        self.guard_wire(id, r)
    }

    /// Capture target `id`'s state into its checkpoint ring, keyed by the
    /// retired-step count and stamped with the stop signal and the
    /// breakpoint-set generation (both govern how replay resumes from it).
    fn take_checkpoint(&mut self, id: usize) -> Result<u64, LdbError> {
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

    /// Rewind one retired instruction: restore the nearest checkpoint and
    /// deterministically re-execute forward to the instruction before the
    /// current one (`reverse-step`).
    ///
    /// # Errors
    /// `reverse truncated: …` when no usable checkpoint reaches back far
    /// enough; nub failures.
    pub fn reverse_step_insn(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.reverse_step_inner(id);
        self.guard_wire(id, r)
    }

    fn reverse_step_inner(&mut self, id: usize) -> Result<StopEvent, LdbError> {
        let now = self.targets[id].client.borrow_mut().query_steps()?;
        if now == 0 {
            return Err(LdbError::msg(
                "reverse truncated: already at the start of execution",
            ));
        }
        self.rewind_to(id, now - 1)?;
        self.announce_rewound(id)
    }

    /// Rewind to the most recent breakpoint stop before the current one,
    /// or to the oldest reachable checkpoint when no breakpoint fired in
    /// recorded history (`reverse-continue`).
    ///
    /// # Errors
    /// As [`Ldb::reverse_step_insn`].
    pub fn reverse_cont(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.reverse_cont_inner(id);
        self.guard_wire(id, r)
    }

    fn reverse_cont_inner(&mut self, id: usize) -> Result<StopEvent, LdbError> {
        let now = self.targets[id].client.borrow_mut().query_steps()?;
        if now == 0 {
            return Err(LdbError::msg(
                "reverse truncated: already at the start of execution",
            ));
        }
        // Scan pass: replay to just before the current stop, remembering
        // the last breakpoint trap crossed on the way.
        let (ckpt, last_trap) = self.rewind_to(id, now - 1)?;
        let land = last_trap.unwrap_or(ckpt);
        if land != now - 1 {
            // Landing pass: fresh restore, replay exactly to the landing
            // point (the scan already proved the interval deterministic).
            self.rewind_to(id, land)?;
        }
        self.announce_rewound(id)
    }

    /// Rewind to the previous source line of the current procedure (or an
    /// enclosing one), skipping backwards over completed calls — the
    /// reverse of `next` (`reverse-next`).
    ///
    /// # Errors
    /// As [`Ldb::reverse_step_insn`].
    pub fn reverse_next(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        self.ensure_connected(id)?;
        let r = self.reverse_next_inner(id);
        self.guard_wire(id, r)
    }

    fn reverse_next_inner(&mut self, id: usize) -> Result<StopEvent, LdbError> {
        let start_pc = self.read_saved_pc(id)?;
        let (start_func, start_line) = self.describe_pc(id, start_pc);
        let start_vfp = self.targets[id].frames.first().map(|f| f.vfp);
        // One source line is a handful of instructions; the cap only
        // guards against degenerate line maps.
        const CAP: u32 = 4096;
        for _ in 0..CAP {
            let ev = self.reverse_step_inner(id)?;
            match &ev {
                // Rewound onto a breakpoint hit, the start of recorded
                // history, or a terminal state: surface it as-is.
                StopEvent::Breakpoint { .. }
                | StopEvent::Paused
                | StopEvent::Attached
                | StopEvent::Exited(_)
                | StopEvent::Fault { .. } => return Ok(ev),
                StopEvent::Stepped { func, line, .. }
                | StopEvent::Watchpoint { func, line, .. } => {
                    if func == &start_func && *line == start_line {
                        continue;
                    }
                    // The stack grows down: a topmost frame *below* the
                    // starting vfp is inside a call the starting line
                    // made — keep rewinding until the call unwinds.
                    let vfp = self.targets[id].frames.first().map(|f| f.vfp);
                    if let (Some(start), Some(cur)) = (start_vfp, vfp) {
                        if cur < start {
                            continue;
                        }
                    }
                    return Ok(ev);
                }
            }
        }
        Err(LdbError::msg(format!(
            "reverse truncated: no line boundary within {CAP} reverse steps"
        )))
    }

    /// Restore the newest usable checkpoint at or before `target` and
    /// deterministically re-execute forward to exactly `target` retired
    /// instructions, resuming past intermediate trap stops with the same
    /// choreography the original run used. Returns the checkpoint's step
    /// count and the position of the last breakpoint trap observed at or
    /// before `target` (including a checkpoint captured at a fired trap).
    fn rewind_to(&mut self, id: usize, target: u64) -> Result<(u64, Option<u64>), LdbError> {
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
        self.targets[id].invalidate_data_cache();
        self.targets[id].invalidate_code_cache();
        // Replay must resume from the restored state exactly as the
        // original resume did, so the stop takes the signal the
        // checkpoint was captured under.
        let sig = Sig::from_number(sig).unwrap_or(Sig::Step);
        self.targets[id].stop = Some(Stop { sig, code, context });
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
        loop {
            let pos = self.targets[id].client.borrow_mut().query_steps()?;
            if pos == target {
                return Ok((at, last_trap));
            }
            if pos > target {
                return Err(LdbError::msg(format!(
                    "reverse replay overshot: at step {pos}, wanted {target}"
                )));
            }
            self.prepare_resume(id)?;
            // The single-step choreography retires instructions itself;
            // re-measure before budgeting the next leg.
            let pos = self.targets[id].client.borrow_mut().query_steps()?;
            if pos == target {
                return Ok((at, last_trap));
            }
            if pos > target {
                return Err(LdbError::msg(format!(
                    "reverse replay overshot: at step {pos}, wanted {target}"
                )));
            }
            let ev = self.targets[id].client.borrow_mut().step_n_and_wait(target - pos)?;
            match ev {
                NubEvent::Exited(c) => {
                    return Err(LdbError::msg(format!(
                        "reverse replay diverged: target exited ({c})"
                    )));
                }
                NubEvent::Stopped { sig, code, context } => {
                    self.targets[id].invalidate_data_cache();
                    self.targets[id].stop = Some(Stop { sig, code, context });
                    match sig {
                        Sig::Trap => {
                            let p = self.targets[id].client.borrow_mut().query_steps()?;
                            last_trap = Some(p);
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
    }

    /// Run the full stop pipeline (cache invalidation, stack walk, trace
    /// record, description) for the state reverse execution landed on.
    fn announce_rewound(&mut self, id: usize) -> Result<StopEvent, LdbError> {
        let stop = self.targets[id]
            .stop
            .ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        self.handle_event(
            id,
            NubEvent::Stopped { sig: stop.sig, code: stop.code, context: stop.context },
        )
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

    /// Whether the breakpoint stop at `addr` should be shown: true when
    /// it has no condition or its condition is numerically non-zero.
    fn breakpoint_should_stop(&mut self, id: usize, addr: u32) -> Result<bool, LdbError> {
        let Some(cond) = self.targets[id].conds.get(&addr).cloned() else {
            return Ok(true);
        };
        let v = self.eval(&cond)?;
        Ok(!v.parse::<f64>().is_ok_and(|x| x == 0.0))
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
                let t = &self.targets[id];
                let f = t
                    .frames
                    .get(t.cur_frame)
                    .ok_or_else(|| LdbError::msg("target is not stopped"))?;
                let (func, _) = self.describe_pc(id, f.pc);
                let vfp = self.targets[id].frames[self.targets[id].cur_frame].vfp;
                Some((func, vfp))
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

    /// Continue the current target, honoring watchpoints: with any armed,
    /// the target is single-stepped and each step compares the watched
    /// values; without, this is [`Ldb::cont`].
    ///
    /// # Errors
    /// Nub failures; the step budget (16M instructions) exhausted.
    pub fn cont_watch(&mut self) -> Result<StopEvent, LdbError> {
        let id = self.cur_id()?;
        if self.targets[id].watches.is_empty() {
            loop {
                let ev = self.cont()?;
                if let StopEvent::Breakpoint { addr, .. } = &ev {
                    if !self.breakpoint_should_stop(id, *addr)? {
                        continue;
                    }
                }
                return Ok(ev);
            }
        }
        const MAX_STEPS: usize = 16_000_000;
        for _ in 0..MAX_STEPS {
            let ev = self.step_insn()?;
            match ev {
                StopEvent::Stepped { func, line, addr } => {
                    // Stepping onto a planted breakpoint is a hit. The
                    // machine state is exactly a fired trap's — pc at the
                    // plant, original instruction pending — so record the
                    // stop as one; the next resume then runs the usual
                    // skip/step choreography instead of letting the trap
                    // fire a second report.
                    if self.targets[id].breakpoints.is_planted(addr)
                        && self.breakpoint_should_stop(id, addr)?
                    {
                        if let Some(stop) = self.targets[id].stop.as_mut() {
                            stop.sig = Sig::Trap;
                        }
                        return Ok(StopEvent::Breakpoint { func, line, addr });
                    }
                    if let Some((name, old, new)) = self.check_watches(id, &func)? {
                        return Ok(StopEvent::Watchpoint { name, old, new, func, line, addr });
                    }
                }
                other => return Ok(other),
            }
        }
        Err(LdbError::msg("watchpoint run exceeded the step budget"))
    }

    /// Compare every in-scope watch against its last value; on the first
    /// change, record the new value and report (name, old, new).
    fn check_watches(&mut self, id: usize, func: &str) -> Result<Option<(String, String, String)>, LdbError> {
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

    /// The [`Location`] a symbol entry resolves to in the selected frame.
    fn entry_location(&mut self, entry: &Object) -> Result<Location, LdbError> {
        let id = self.cur_id()?;
        let t = &self.targets[id];
        let f = t
            .frames
            .get(t.cur_frame)
            .ok_or_else(|| LdbError::msg("target is not stopped"))?;
        let mem = f.mem.clone();
        self.interp.push(Object::host(Rc::new(MemHandle(mem))));
        self.interp.push(entry.clone());
        self.interp.run_str("SymLoc")?;
        Ok(self.interp.pop()?.as_location()?)
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
        self.targets[id].cur_frame = 0;
        let pc0 = self.read_saved_pc(id)?;
        let my_vfp = self.targets[id].frames.first().map(|f| f.vfp);
        let parent = self.targets[id].frames.get(1).map(|f| (f.pc, f.vfp));
        let (entry, _) = self.scope()?;
        // Temporary plants: every stopping point of the procedure. They
        // are no-ops, but the temps use the single-step scheme anyway —
        // stepping the no-op retires the same one step the pristine
        // program would, so a transient temp never perturbs the step
        // clock or orphans time-travel checkpoints.
        let n = symtab::loci_of(&mut self.interp, &entry)?.len();
        let mut temps = Vec::new();
        for i in 0..n {
            let a = symtab::stop_addr(&mut self.interp, &entry, i)?;
            if a != pc0 && !self.targets[id].breakpoints.is_planted(a) {
                let t = &mut self.targets[id];
                t.breakpoints.plant_anywhere(&t.client, a)?;
                temps.push(a);
            }
        }
        // ... plus the caller's resume site, which is a real instruction
        // and needs the single-step scheme.
        if let Some((ret_pc, _)) = parent {
            if !self.targets[id].breakpoints.is_planted(ret_pc) {
                let t = &mut self.targets[id];
                t.breakpoints.plant_anywhere(&t.client, ret_pc)?;
                temps.push(ret_pc);
            }
        }
        self.targets[id].invalidate_code_cache();
        let result = self.run_to_frame(id, &temps, my_vfp, parent);
        self.cleanup_temps(id, &temps, &result)?;
        result
    }

    /// Run until the selected frame's procedure returns to its caller
    /// ("finish"). Returns the stop event and the callee's integer return
    /// value.
    ///
    /// # Errors
    /// No caller frame (outermost); nub failures.
    pub fn finish(&mut self) -> Result<(StopEvent, Option<i64>), LdbError> {
        let id = self.cur_id()?;
        let sel = self.targets[id].cur_frame;
        let parent = self.targets[id]
            .frames
            .get(sel + 1)
            .map(|f| (f.pc, f.vfp))
            .ok_or_else(|| LdbError::msg("the selected frame has no caller"))?;
        let mut temps = Vec::new();
        if !self.targets[id].breakpoints.is_planted(parent.0) {
            let t = &mut self.targets[id];
            t.breakpoints.plant_anywhere(&t.client, parent.0)?;
            temps.push(parent.0);
        }
        self.targets[id].invalidate_code_cache();
        let result = self.run_to_frame(id, &temps, None, Some(parent));
        self.cleanup_temps(id, &temps, &result)?;
        let ev = result?;
        let rv = match &ev {
            StopEvent::Breakpoint { addr, .. } if *addr == parent.0 => {
                let t = &self.targets[id];
                let stop = t.stop.ok_or_else(|| LdbError::msg("target gone"))?;
                Some(t.client.borrow_mut().fetch(
                    'd',
                    stop.context + t.data.ctx.reg_offset + t.data.rv as u32 * 4,
                    4,
                )? as u32 as i32 as i64)
            }
            _ => None,
        };
        Ok((ev, rv))
    }

    /// Resume repeatedly until a stop that belongs to the right frame:
    /// a temp hit in the armed invocation (`my_vfp`), the caller's resume
    /// site in the caller's frame, any non-temp (user) breakpoint, or a
    /// terminal event.
    fn run_to_frame(
        &mut self,
        id: usize,
        temps: &[u32],
        my_vfp: Option<u32>,
        parent: Option<(u32, u32)>,
    ) -> Result<StopEvent, LdbError> {
        loop {
            let ev = self.cont()?;
            let StopEvent::Breakpoint { addr, .. } = &ev else { return Ok(ev) };
            if !temps.contains(addr) {
                // The user's own breakpoint: honor its condition.
                if self.breakpoint_should_stop(id, *addr)? {
                    return Ok(ev);
                }
                continue;
            }
            let top_vfp = self.targets[id].frames.first().map(|f| f.vfp);
            let wanted = match parent {
                Some((ret_pc, ret_vfp)) if *addr == ret_pc => top_vfp == Some(ret_vfp),
                _ => my_vfp.is_some() && top_vfp == my_vfp,
            };
            if wanted {
                return Ok(ev);
            }
        }
    }

    /// Unplant temporary breakpoints. Runs on the error path too, so a
    /// failed `next`/`finish` never leaks plants; when the target exited
    /// there is nothing to restore into and the records are just dropped.
    fn cleanup_temps(
        &mut self,
        id: usize,
        temps: &[u32],
        outcome: &Result<StopEvent, LdbError>,
    ) -> Result<(), LdbError> {
        let t = &mut self.targets[id];
        if matches!(outcome, Ok(StopEvent::Exited(_))) {
            for a in temps {
                t.breakpoints.forget(*a);
            }
            return Ok(());
        }
        for a in temps {
            if outcome.is_err() {
                // Best effort: don't mask the original error.
                if t.breakpoints.remove(&t.client, *a).is_err() {
                    t.breakpoints.forget(*a);
                }
            } else {
                t.breakpoints.remove(&t.client, *a)?;
            }
        }
        t.invalidate_code_cache();
        // A temp that landed on a stopping-point no-op advanced the
        // breakpoint generation, orphaning every earlier checkpoint —
        // correctly, since the finished interval skipped a no-op the
        // pristine program would execute. When the session is
        // checkpointing at all, re-seed reverse reach at this stop under
        // the current generation (best effort: a failed snapshot must
        // not fail the step).
        if !temps.is_empty()
            && outcome.is_ok()
            && (self.checkpoint_every.is_some() || !self.targets[id].checkpoints.is_empty())
        {
            let _ = self.take_checkpoint(id);
        }
        Ok(())
    }

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

    /// Snapshot the whole context block (pc + registers) as 4-byte words.
    fn save_context(&mut self, id: usize) -> Result<(u32, Vec<u64>), LdbError> {
        let t = &self.targets[id];
        let stop = t.stop.ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
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
        match call_conv(self.targets[id].arch) {
            CallConv::Risc { arg_regs, ra } => {
                let ints = args.iter().filter(|a| matches!(a, CallArg::Int(_))).count();
                if ints > arg_regs.len() {
                    return Err(LdbError::msg(format!(
                        "at most {} integer arguments on {}",
                        arg_regs.len(),
                        self.targets[id].arch
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
            CallConv::Cisc => {
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
        match self.cont()? {
            StopEvent::Fault { code, .. } if code == sentinel => {
                let t = &self.targets[id];
                let stop = t.stop.ok_or_else(|| LdbError::msg("target gone"))?;
                let rv = t.client.borrow_mut().fetch(
                    'd',
                    stop.context + t.data.ctx.reg_offset + t.data.rv as u32 * 4,
                    4,
                )?;
                let fbits = t.client.borrow_mut().fetch(
                    'd',
                    stop.context + t.data.ctx.freg_offset,
                    8,
                )?;
                Ok(CallReturn {
                    int: rv as u32 as i32 as i64,
                    float: f64::from_bits(fbits),
                })
            }
            StopEvent::Exited(c) => {
                Err(LdbError::msg(format!("target exited ({c}) during the call")))
            }
            other => Err(LdbError::msg(format!(
                "call interrupted before returning: {other:?}"
            ))),
        }
    }

    /// Get past a planted breakpoint at the current pc, if any: no-op
    /// breakpoints are skipped by advancing the saved pc; single-step
    /// breakpoints restore the original instruction, step it with the
    /// nub's step extension, and re-plant the trap.
    fn prepare_resume(&mut self, id: usize) -> Result<(), LdbError> {
        let Some(stop) = self.targets[id].stop else { return Ok(()) };
        let pc = self.read_saved_pc(id)?;
        // The skip/single-step choreography is for a trap that *fired* (it
        // already consumed its fetch): only a `Sig::Trap` stop means that.
        // A single-step or checkpoint-leg pause can land *on* a planted
        // address with the trap not yet executed — resuming plainly lets
        // it fire, which both reports the breakpoint and keeps replay
        // step-for-step identical to the original run.
        let kind = if stop.sig == Sig::Trap {
            self.targets[id].breakpoints.resume_kind(pc)
        } else {
            None
        };
        let t = &self.targets[id];
        match kind {
            None => {}
            Some(crate::breakpoint::ResumeKind::SkipNop { next_pc }) => {
                t.client.borrow_mut().store(
                    'd',
                    stop.context + t.data.ctx.pc_offset,
                    4,
                    next_pc as u64,
                )?;
            }
            Some(crate::breakpoint::ResumeKind::SingleStep { original }) => {
                // Restore, step one instruction, re-plant.
                let unit = t.data.insn_unit;
                t.client.borrow_mut().store('c', pc, unit, original)?;
                let ev = t.client.borrow_mut().step_and_wait()?;
                match ev {
                    NubEvent::Stopped { .. } => {
                        t.client
                            .borrow_mut()
                            .plant(pc, unit, t.data.break_pattern as u64)?;
                    }
                    NubEvent::Exited(_) => {}
                }
                // The restore/replant patched code behind the cache's back.
                t.invalidate_code_cache();
            }
        }
        // Resume paths store the saved pc (and may have stepped the
        // target) through the bare client: nothing cached from data
        // memory survives the boundary.
        self.targets[id].invalidate_data_cache();
        Ok(())
    }

    fn handle_event(&mut self, id: usize, ev: NubEvent) -> Result<StopEvent, LdbError> {
        let out = self.handle_event_inner(id, ev);
        if self.trace.is_on() {
            if let Ok(ev) = &out {
                let mut fields: Vec<(&'static str, ldb_trace::Value)> =
                    vec![("target", id.into()), ("kind", ev.kind_name().into())];
                match ev {
                    StopEvent::Breakpoint { func, line, addr }
                    | StopEvent::Stepped { func, line, addr } => {
                        fields.push(("func", func.clone().into()));
                        fields.push(("line", (*line).into()));
                        fields.push(("addr", (*addr).into()));
                    }
                    StopEvent::Watchpoint { name, func, line, addr, .. } => {
                        fields.push(("name", name.clone().into()));
                        fields.push(("func", func.clone().into()));
                        fields.push(("line", (*line).into()));
                        fields.push(("addr", (*addr).into()));
                    }
                    StopEvent::Fault { sig, code } => {
                        fields.push(("sig", sig.clone().into()));
                        fields.push(("code", (*code).into()));
                    }
                    StopEvent::Exited(status) => fields.push(("status", (*status).into())),
                    StopEvent::Paused | StopEvent::Attached => {}
                }
                self.trace.emit(Layer::Dbg, Severity::Info, "stop", &fields);
            }
        }
        out
    }

    fn handle_event_inner(&mut self, id: usize, ev: NubEvent) -> Result<StopEvent, LdbError> {
        match ev {
            NubEvent::Exited(c) => {
                self.targets[id].stop = None;
                self.targets[id].frames.clear();
                Ok(StopEvent::Exited(c))
            }
            NubEvent::Stopped { sig, code, context } => {
                // The target ran: every cached data line is stale. Code
                // lines survive — the target cannot write its own text,
                // and the debugger's own patches invalidate at the plant
                // sites.
                self.targets[id].invalidate_data_cache();
                self.targets[id].stop = Some(Stop { sig, code, context });
                self.after_stop(id)?;
                Ok(match sig {
                    Sig::Pause => StopEvent::Paused,
                    Sig::Attach => StopEvent::Attached,
                    Sig::Trap => {
                        let pc = self.read_saved_pc(id)?;
                        let (func, line) = self.describe_pc(id, pc);
                        StopEvent::Breakpoint { func, line, addr: pc }
                    }
                    Sig::Step => {
                        let pc = self.read_saved_pc(id)?;
                        let (func, line) = self.describe_pc(id, pc);
                        StopEvent::Stepped { func, line, addr: pc }
                    }
                    Sig::Segv => StopEvent::Fault { sig: "SIGSEGV".into(), code },
                    Sig::Fpe => StopEvent::Fault { sig: "SIGFPE".into(), code },
                    Sig::Ill => StopEvent::Fault { sig: "SIGILL".into(), code },
                })
            }
        }
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

    fn read_saved_pc(&self, id: usize) -> Result<u32, LdbError> {
        let t = &self.targets[id];
        let stop = t.stop.ok_or_else(|| LdbError::msg("target is not stopped (running or exited)"))?;
        Ok(t.client
            .borrow_mut()
            .fetch('d', stop.context + t.data.ctx.pc_offset, 4)? as u32)
    }

    fn describe_pc(&mut self, id: usize, pc: u32) -> (String, u32) {
        let loader = Rc::clone(&self.targets[id].loader);
        let func = loader
            .proc_containing(pc)
            .map(|(_, n)| n.trim_start_matches('_').to_string())
            .unwrap_or_else(|| "?".to_string());
        // Exact stopping point, else the nearest one at or before the pc
        // (single-stepping lands between stopping points).
        let line = (|| -> Option<u32> {
            let entry = loader
                .proc_containing(pc)
                .and_then(|(_, n)| loader.proc_entry_by_link_name(n))?;
            let loci = symtab::loci_of(&mut self.interp, &entry).ok()?;
            let mut best: Option<(u32, u32)> = None;
            for l in &loci {
                let a = symtab::stop_addr(&mut self.interp, &entry, l.index).ok()?;
                if a <= pc && best.map(|(ba, _)| a >= ba).unwrap_or(true) {
                    best = Some((a, l.line));
                }
            }
            best.map(|(_, line)| line)
        })()
        .unwrap_or(0);
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
    fn scope(&mut self) -> Result<(Object, usize), LdbError> {
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
        // The innermost stopping point at or before pc.
        let n = symtab::loci_of(&mut self.interp, &entry)?.len();
        let mut best = 0usize;
        let mut best_addr = 0u32;
        for i in 0..n {
            let a = symtab::stop_addr(&mut self.interp, &entry, i)?;
            if a <= pc && a >= best_addr {
                best_addr = a;
                best = i;
            }
        }
        Ok((entry, best))
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
        let loader = Rc::clone(&self.targets[id].loader);
        let unit_dict = Rc::clone(&self.targets[id].unit_dict);
        // Definitions a retried table makes must land in the target's
        // unit dictionary, exactly as they would have at attach time.
        self.interp.push_dict(unit_dict);
        let rows = loader.reload_quarantined(&mut self.interp, self.budgets.load);
        let _ = self.interp.pop_dict();
        Ok(rows)
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
        let id = self.cur_id()?;
        let t = &self.targets[id];
        let f = t
            .frames
            .get(t.cur_frame)
            .ok_or_else(|| LdbError::msg("target is not stopped"))?;
        let mem = f.mem.clone();
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

    // ----- expression evaluation -----

    fn register_expr_ops(&mut self) {
        let state = Rc::clone(&self.expr_state);
        self.interp.register("ExpressionServer.result", move |_| {
            state.borrow_mut().outcome = Some(Ok(()));
            Err(PsError::Stop)
        });
        let state = Rc::clone(&self.expr_state);
        self.interp.register("ExpressionServer.error", move |i| {
            let msg = i.pop()?.as_string()?;
            state.borrow_mut().outcome = Some(Err(msg.to_string()));
            Err(PsError::Stop)
        });
    }

    fn ensure_server(&mut self) {
        if self.expr.is_none() {
            let h = ldb_exprserver::spawn();
            let pipe = PsFile::from_reader("exprserver", Box::new(h.reply_pipe));
            self.expr = Some(ExprSession {
                to_server: h.to_server,
                pipe: Rc::new(RefCell::new(pipe)),
                join: Some(h.join),
            });
        }
    }

    /// Evaluate a C expression in the current scope via the expression
    /// server; returns the result rendered as text. Assignments store
    /// through the abstract memories into the target.
    ///
    /// # Errors
    /// Parse/type errors from the server, unknown identifiers, nub
    /// failures.
    pub fn eval(&mut self, expr: &str) -> Result<String, LdbError> {
        // Fresh pointer-chase guard for this evaluation (the fetchP deref
        // path charges against it).
        self.ctx.borrow_mut().begin_print();
        let expanded = self.expand_calls(expr, 0)?;
        self.eval_expr(&expanded)
    }

    /// Replace `proc(args)` subexpressions with the value the call
    /// returns, innermost first — this is how function calls compose with
    /// the expression server, which itself only rewrites data accesses.
    /// Only names the loader knows as procedures are treated as calls, so
    /// array indexing and parenthesized arithmetic pass through.
    fn expand_calls(&mut self, expr: &str, depth: u8) -> Result<String, LdbError> {
        if depth > 8 {
            return Err(LdbError::msg("call expressions nested too deeply"));
        }
        let id = self.cur_id()?;
        let bytes = expr.as_bytes();
        let mut out = String::new();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let ident = &expr[start..i];
                // Skip whitespace to see whether a call follows.
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
                let is_proc = {
                    let t = &self.targets[id];
                    t.loader.proc_addr(&format!("_{ident}")).is_some()
                        || t.loader.proc_addr(ident).is_some()
                };
                if j < bytes.len() && bytes[j] == b'(' && is_proc {
                    // Find the matching close paren.
                    let open = j;
                    let mut level = 0i32;
                    let mut close = None;
                    let mut quote = false;
                    for (k, &b) in bytes.iter().enumerate().skip(open) {
                        match b {
                            b'\'' => quote = !quote,
                            _ if quote => {}
                            b'(' => level += 1,
                            b')' => {
                                level -= 1;
                                if level == 0 {
                                    close = Some(k);
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    let close =
                        close.ok_or_else(|| LdbError::msg("unbalanced parentheses in call"))?;
                    let inner = &expr[open + 1..close];
                    let mut args = Vec::new();
                    if !inner.trim().is_empty() {
                        for part in split_top_level(inner) {
                            let v = self.expand_calls(part.trim(), depth + 1)?;
                            let v = self.eval_expr(&v)?;
                            let arg = match v.parse::<i64>() {
                                Ok(n) => CallArg::Int(n),
                                Err(_) => CallArg::Double(v.parse::<f64>().map_err(|_| {
                                    LdbError::msg(format!(
                                        "call argument `{}` is not a number (got {v})",
                                        part.trim()
                                    ))
                                })?),
                            };
                            args.push(arg);
                        }
                    }
                    let name = ident.to_string();
                    let rv = self.call_and_format(&name, &args)?;
                    out.push_str(&rv);
                    i = close + 1;
                } else {
                    out.push_str(ident);
                }
            } else {
                out.push(c);
                i += 1;
            }
        }
        Ok(out)
    }

    /// Run one expression through the server (no call expansion).
    fn eval_expr(&mut self, expr: &str) -> Result<String, LdbError> {
        self.ensure_server();
        // Register the lookup operator against the *current* scope.
        self.install_lookup()?;
        let session = self
            .expr
            .as_ref()
            .ok_or_else(|| LdbError::msg("expression server is not running"))?;
        let pipe = Rc::clone(&session.pipe);
        if session.to_server.send(ldb_exprserver::ToServer::Expr(expr.to_string())).is_err() {
            // The server thread died: drop the session so the next
            // evaluation respawns it instead of failing forever.
            self.expr = None;
            return Err(LdbError::msg("expression server is gone (will respawn on next use)"));
        }
        self.expr_state.borrow_mut().outcome = None;
        // "The operation of interpreting until told to stop is implemented
        // by applying cvx stopped to the open pipe from the server."
        // The rewritten expression executes symbol-table code (SymLoc,
        // printers), so it runs under the interactive budget.
        let budget = self.budgets.interactive;
        match self.interp.with_budget(budget, |i| i.run_file(&pipe)) {
            Ok(()) => return Err(LdbError::msg("expression server closed the pipe")),
            Err(PsError::Stop) => {}
            Err(e) => return Err(e.into()),
        }
        let outcome = self
            .expr_state
            .borrow_mut()
            .outcome
            .take()
            .ok_or_else(|| LdbError::msg("server stopped without a result"))?;
        match outcome {
            Err(msg) => Err(LdbError::msg(format!("expression error: {msg}"))),
            Ok(()) => {
                // Stack: procedure, result-type decl string.
                let decl = self.interp.pop()?.as_string()?;
                let proc = self.interp.pop()?;
                self.interp.with_budget(budget, |i| i.call(&proc))?;
                let value = self.interp.pop()?;
                Ok(render_value(&value, &decl))
            }
        }
    }

    /// Install `ExpressionServer.lookup` bound to the current scope.
    fn install_lookup(&mut self) -> Result<(), LdbError> {
        let scope = self.scope().ok();
        let id = self.cur_id()?;
        let loader = Rc::clone(&self.targets[id].loader);
        let session = {
            self.ensure_server();
            self.expr
                .as_ref()
                .ok_or_else(|| LdbError::msg("expression server is not running"))?
                .to_server
                .clone()
        };
        let handles = Rc::new(RefCell::new(self.handles));
        let outer = Rc::new(RefCell::new(HashMap::<String, String>::new()));
        self.interp.register("ExpressionServer.lookup", move |i| {
            let name = i.pop()?.as_name()?;
            let found = match &scope {
                Some((entry, stop)) => {
                    symtab::resolve_name(i, &loader, entry, *stop, &name).ok().flatten()
                }
                None => loader.proc_entry_by_name(&name),
            };
            let reply = match found {
                None => "notfound".to_string(),
                Some(entry) => {
                    let mut cache = outer.borrow_mut();
                    let handle = match cache.get(name.as_ref()) {
                        Some(h) => h.clone(),
                        None => {
                            let mut n = handles.borrow_mut();
                            *n += 1;
                            let h = format!("E{}", *n);
                            // Define the handle so rewritten code can say
                            // `E1 SymLoc`.
                            i.def(&h, entry.clone());
                            cache.insert(name.to_string(), h.clone());
                            h
                        }
                    };
                    let d = entry.as_dict()?;
                    let tdict = d.borrow().get_name("type").cloned();
                    let decl = tdict
                        .as_ref()
                        .and_then(|t| t.as_dict().ok())
                        .and_then(|t| t.borrow().get_name("decl").cloned())
                        .and_then(|d| d.as_string().ok())
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "int %s".to_string());
                    // Struct types: prepend the definitions the server
                    // needs to reconstruct the compiler's type info.
                    let decl = match &tdict {
                        Some(t) => format!("{}{}", struct_defs_for(t), decl),
                        None => decl,
                    };
                    let kind = d
                        .borrow()
                        .get_name("kind")
                        .and_then(|k| k.as_string().ok())
                        .map(|s| s.to_string())
                        .unwrap_or_default();
                    if kind == "procedure" {
                        format!("func {handle} int %s")
                    } else {
                        format!("var {handle} {decl}")
                    }
                }
            };
            session
                .send(ldb_exprserver::ToServer::Symbol(reply))
                .map_err(|_| PsError::runtime(ldb_postscript::ErrorKind::IoError, "server gone"))?;
            Ok(())
        });
        Ok(())
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
        let t = &self.targets[id];
        let f = t
            .frames
            .get(t.cur_frame)
            .ok_or_else(|| LdbError::msg("target is not stopped"))?;
        let mem = f.mem.clone();
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

/// Collect C `struct` definitions reachable from a type dictionary, so
/// the expression server can reconstruct aggregate types ("it must be
/// enough to enable the expression server to reconstruct the compiler's
/// symbol-table and type information at debug time", paper Sec. 7).
fn struct_defs_for(tdict: &Object) -> String {
    let mut out = String::new();
    let mut seen = std::collections::HashSet::new();
    collect_structs(tdict, &mut out, &mut seen);
    out
}

fn collect_structs(
    tdict: &Object,
    out: &mut String,
    seen: &mut std::collections::HashSet<String>,
) {
    let Ok(d) = tdict.as_dict() else { return };
    let get = |k: &str| d.borrow().get_name(k).cloned();
    // Chase pointees and array elements first.
    for link in ["&pointee", "&elemtype"] {
        if let Some(inner) = get(link) {
            collect_structs(&inner, out, seen);
        }
    }
    let Some(fields) = get("&fields") else { return };
    let Some(decl) = get("decl").and_then(|o| o.as_string().ok()) else { return };
    // decl looks like "struct acc %s".
    let name = decl
        .trim_start_matches("struct ")
        .split_whitespace()
        .next()
        .unwrap_or("anon")
        .to_string();
    if !seen.insert(name.clone()) {
        return;
    }
    let Ok(fields) = fields.as_array() else { return };
    let fields = fields.borrow().clone();
    let mut body = String::new();
    let mut i = 0;
    while i + 2 < fields.len() + 1 && i + 2 <= fields.len() {
        let fname = fields[i].as_string().ok();
        let ftype = &fields[i + 2];
        collect_structs(ftype, out, seen);
        if let (Some(fname), Ok(fd)) = (fname, ftype.as_dict()) {
            if let Some(fdecl) = fd.borrow().get_name("decl").and_then(|o| o.as_string().ok()) {
                body.push_str(&format!(" {};", fdecl.replace("%s", &fname)));
            }
        }
        i += 3;
    }
    out.push_str(&format!("struct {name} {{{body} }}; "));
}

/// Render an evaluated value using its declared type.
fn render_value(v: &Object, decl: &str) -> String {
    match &v.val {
        Value::Location(ldb_postscript::Location::Addr { offset, .. }) => {
            format!("({}) 0x{:x}", decl.replace("%s", "").trim(), *offset as u32)
        }
        _ => v.to_text(),
    }
}
