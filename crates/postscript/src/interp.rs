//! The interpreter: operand stack, dictionary stack, and the execution loop.
//!
//! The dialect follows the paper (Sec. 5): names are bound dynamically, and
//! the dictionary stack is distinct from the call stack and explicitly
//! controlled by the program. When ldb changes target architectures it
//! pushes a per-architecture dictionary that rebinds the machine-dependent
//! names (`Regset0`, `&wordsize`, ...) — see [`Interp::push_dict`].

use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;

use ldb_trace::{Layer, Severity, Trace};

use crate::budget::{Budget, BudgetSave, BudgetStats};
use crate::dict::{Dict, Key};
use crate::error::{undefined, ErrorKind, PsError, PsResult, RuntimeError};
use crate::file::PsFile;
use crate::object::{Object, Operator, Value};
use crate::ops;
use crate::pretty::Pretty;
use crate::scanner::Scanner;

/// Where `print`, `=`, `==`, and the prettyprinter write.
#[derive(Clone)]
pub enum Out {
    /// Write through to the process's stdout.
    Stdout,
    /// Accumulate in a shared buffer (tests, and ldb's client interface).
    Shared(Rc<RefCell<String>>),
}

impl Out {
    /// Append a string to the sink.
    pub fn write_str(&self, s: &str) {
        match self {
            Out::Stdout => {
                let mut o = std::io::stdout().lock();
                let _ = o.write_all(s.as_bytes());
            }
            Out::Shared(buf) => buf.borrow_mut().push_str(s),
        }
    }
}

impl std::fmt::Debug for Out {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Out::Stdout => write!(f, "Out::Stdout"),
            Out::Shared(_) => write!(f, "Out::Shared"),
        }
    }
}

/// The embedded PostScript interpreter.
///
/// # Examples
/// ```
/// use ldb_postscript::Interp;
/// let mut interp = Interp::new();
/// interp.run_str("2 3 add").unwrap();
/// assert_eq!(interp.pop().unwrap().as_int().unwrap(), 5);
/// ```
pub struct Interp {
    stack: Vec<Object>,
    dicts: Vec<crate::object::DictRef>,
    systemdict: crate::object::DictRef,
    out: Out,
    /// The prettyprinter driven by the `Put`/`Break`/`Begin`/`End` operators.
    pub pretty: Pretty,
    depth: usize,
    /// The most recent runtime error caught by `stopped`.
    pub last_error: Option<RuntimeError>,
    /// The resource budget in force (UNLIMITED unless installed).
    budget: Budget,
    /// Fuel charged against the current budget.
    fuel_used: u64,
    /// Bytes charged against the current budget.
    alloc_used: u64,
    /// Lifetime sandbox statistics (`info ps`).
    stats: BudgetStats,
    /// Flight-recorder handle ([`Layer::Ps`] records: budgeted-region
    /// consumption, budget trips; the loader adds module loads and
    /// quarantines through [`Interp::trace`]).
    trace: Trace,
    /// Cross-thread cancellation token (a session watchdog sets it from
    /// outside the owning thread). Polled every [`CANCEL_POLL_MASK`]+1
    /// execution steps; a set token aborts the run with `timeout`.
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

/// The execution nesting limit: conservative, so deep PostScript
/// recursion fails cleanly with a `limitcheck` instead of exhausting a
/// small host thread stack.
const MAX_DEPTH: usize = 400;

/// How often [`Interp::charge_step`] polls the cancellation token: every
/// `CANCEL_POLL_MASK + 1` steps (one atomic load amortized over 1024
/// dispatches keeps the hot path unchanged for the common case).
const CANCEL_POLL_MASK: u64 = 0x3ff;

impl std::fmt::Debug for Interp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Interp {{ stack: {}, dicts: {} }}", self.stack.len(), self.dicts.len())
    }
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// A fresh interpreter with the full operator set, writing to stdout.
    pub fn new() -> Self {
        let systemdict = Rc::new(RefCell::new(Dict::new(256)));
        let userdict = Rc::new(RefCell::new(Dict::new(64)));
        let out = Out::Stdout;
        let mut interp = Interp {
            stack: Vec::with_capacity(64),
            dicts: vec![Rc::clone(&systemdict), Rc::clone(&userdict)],
            systemdict,
            out: out.clone(),
            pretty: Pretty::new(out),
            depth: 0,
            last_error: None,
            budget: Budget::UNLIMITED,
            fuel_used: 0,
            alloc_used: 0,
            stats: BudgetStats::default(),
            trace: Trace::off(),
            cancel: None,
        };
        ops::register_all(&mut interp);
        interp
    }

    /// A fresh interpreter whose output accumulates in the returned buffer.
    pub fn new_capturing() -> (Self, Rc<RefCell<String>>) {
        let mut interp = Interp::new();
        let buf = Rc::new(RefCell::new(String::new()));
        interp.set_output(Out::Shared(Rc::clone(&buf)));
        (interp, buf)
    }

    /// Redirect output (print operators and prettyprinter).
    pub fn set_output(&mut self, out: Out) {
        self.out = out.clone();
        self.pretty.set_output(out);
    }

    /// The current output sink.
    pub fn output(&self) -> Out {
        self.out.clone()
    }

    /// Attach (or detach, with [`Trace::off`]) the flight recorder.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Install (or remove, with `None`) a cross-thread cancellation token.
    /// When another thread sets the token, the interpreter aborts the
    /// current run with a `timeout` error at the next poll (within 1024
    /// execution steps) — how a session watchdog kills a wedged command
    /// that is spinning inside untrusted PostScript.
    pub fn set_cancel(&mut self, cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>) {
        self.cancel = cancel;
    }

    /// The flight-recorder handle (cheap to clone; hosts like the loader
    /// emit their own [`Layer::Ps`] records through it).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    // ----- resource budgets (the artifact sandbox) -----

    /// Install `budget` as the ambient budget and reset the used counters.
    /// Trusted code should leave the default ([`Budget::UNLIMITED`]);
    /// untrusted executions install a per-call budget via
    /// [`Interp::push_budget`] or [`Interp::with_budget`].
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
        self.fuel_used = 0;
        self.alloc_used = 0;
    }

    /// The budget currently in force.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Begin a budgeted region: installs `budget` with fresh counters and
    /// returns the outer state for [`Interp::pop_budget`].
    pub fn push_budget(&mut self, budget: Budget) -> BudgetSave {
        let save = BudgetSave {
            budget: self.budget,
            fuel_used: self.fuel_used,
            alloc_used: self.alloc_used,
        };
        self.budget = budget;
        self.fuel_used = 0;
        self.alloc_used = 0;
        save
    }

    /// End a budgeted region: restores the outer budget, and charges the
    /// inner region's consumption against it so nesting cannot launder
    /// resource use past an outer limit.
    pub fn pop_budget(&mut self, save: BudgetSave) {
        let (inner_fuel, inner_alloc) = (self.fuel_used, self.alloc_used);
        if self.trace.is_on() && self.budget.is_limited() {
            self.trace.emit(
                Layer::Ps,
                Severity::Debug,
                "budget",
                &[("fuel", inner_fuel.into()), ("alloc", inner_alloc.into())],
            );
        }
        self.budget = save.budget;
        self.fuel_used = save.fuel_used.saturating_add(inner_fuel);
        self.alloc_used = save.alloc_used.saturating_add(inner_alloc);
    }

    /// Run `f` under `budget`, then restore the outer budget (charging the
    /// inner consumption against it).
    ///
    /// # Errors
    /// Whatever `f` returns, including budget errors.
    pub fn with_budget<T>(
        &mut self,
        budget: Budget,
        f: impl FnOnce(&mut Self) -> PsResult<T>,
    ) -> PsResult<T> {
        let save = self.push_budget(budget);
        let r = f(self);
        self.pop_budget(save);
        r
    }

    /// Charge `bytes` of allocation against the budget. Public so host
    /// operators that build large objects (e.g. the debugger's string
    /// converters) participate in accounting.
    ///
    /// # Errors
    /// `vmerror` when the charge exceeds the budget.
    pub fn charge_alloc(&mut self, bytes: u64) -> PsResult<()> {
        self.alloc_used = self.alloc_used.saturating_add(bytes);
        self.stats.alloc_charged_total = self.stats.alloc_charged_total.saturating_add(bytes);
        if self.alloc_used > self.stats.alloc_peak {
            self.stats.alloc_peak = self.alloc_used;
        }
        if self.alloc_used > self.budget.max_alloc {
            self.stats.budget_trips += 1;
            self.trace.emit(
                Layer::Ps,
                Severity::Warn,
                "budget_trip",
                &[("what", "alloc".into()), ("limit", self.budget.max_alloc.into())],
            );
            return Err(PsError::runtime(
                ErrorKind::VmError,
                format!("allocation budget exhausted ({} bytes)", self.budget.max_alloc),
            ));
        }
        Ok(())
    }

    /// Fuel consumed under the current budget.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    /// Allocation charged under the current budget.
    pub fn alloc_used(&self) -> u64 {
        self.alloc_used
    }

    /// Lifetime sandbox statistics.
    pub fn budget_stats(&self) -> BudgetStats {
        BudgetStats { fuel_used: self.fuel_used, alloc_used: self.alloc_used, ..self.stats }
    }

    /// Charge one execution step and enforce the fuel and operand-stack
    /// limits. One increment and two compares on the dispatch hot path.
    /// Crate-visible so the compiled-module executor charges identically.
    #[inline]
    pub(crate) fn charge_step(&mut self) -> PsResult<()> {
        self.fuel_used += 1;
        self.stats.fuel_spent_total += 1;
        if self.fuel_used & CANCEL_POLL_MASK == 0 {
            if let Some(c) = &self.cancel {
                if c.load(std::sync::atomic::Ordering::Relaxed) {
                    self.trace.emit(
                        Layer::Ps,
                        Severity::Warn,
                        "cancelled",
                        &[("fuel_used", self.fuel_used.into())],
                    );
                    return Err(PsError::runtime(
                        ErrorKind::Timeout,
                        "execution cancelled by session watchdog",
                    ));
                }
            }
        }
        if self.fuel_used > self.budget.max_fuel {
            self.stats.budget_trips += 1;
            self.trace.emit(
                Layer::Ps,
                Severity::Warn,
                "budget_trip",
                &[("what", "fuel".into()), ("limit", self.budget.max_fuel.into())],
            );
            return Err(PsError::runtime(
                ErrorKind::Timeout,
                format!("execution fuel exhausted ({} steps)", self.budget.max_fuel),
            ));
        }
        if self.stack.len() > self.budget.max_operands {
            self.stats.budget_trips += 1;
            self.trace.emit(
                Layer::Ps,
                Severity::Warn,
                "budget_trip",
                &[("what", "operands".into()), ("limit", self.budget.max_operands.into())],
            );
            return Err(PsError::runtime(
                ErrorKind::LimitCheck,
                format!("operand stack exceeds budget ({} entries)", self.budget.max_operands),
            ));
        }
        Ok(())
    }

    // ----- operand stack -----

    /// Push an object.
    pub fn push(&mut self, o: impl Into<Object>) {
        self.stack.push(o.into());
    }

    /// Pop an object.
    ///
    /// # Errors
    /// Stackunderflow when the stack is empty.
    pub fn pop(&mut self) -> PsResult<Object> {
        self.stack
            .pop()
            .ok_or_else(|| PsError::runtime(ErrorKind::StackUnderflow, "operand stack empty"))
    }

    /// Pop `n` objects; the result is in stack order (deepest first).
    ///
    /// # Errors
    /// Stackunderflow when fewer than `n` operands are available.
    pub fn popn(&mut self, n: usize) -> PsResult<Vec<Object>> {
        if self.stack.len() < n {
            return Err(PsError::runtime(
                ErrorKind::StackUnderflow,
                format!("need {n} operands, have {}", self.stack.len()),
            ));
        }
        Ok(self.stack.split_off(self.stack.len() - n))
    }

    /// Reference the object `i` positions below the top (0 = top).
    ///
    /// # Errors
    /// Stackunderflow when the stack is too shallow.
    pub fn peek(&self, i: usize) -> PsResult<&Object> {
        let len = self.stack.len();
        if i >= len {
            return Err(PsError::runtime(ErrorKind::StackUnderflow, "peek past stack bottom"));
        }
        Ok(&self.stack[len - 1 - i])
    }

    /// Number of operands on the stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Direct access to the operand stack (bottom first).
    pub fn stack(&self) -> &[Object] {
        &self.stack
    }

    /// Remove all operands.
    pub fn clear_stack(&mut self) {
        self.stack.clear();
    }

    /// Truncate the stack to `n` entries (used by mark-based operators).
    pub(crate) fn truncate_stack(&mut self, n: usize) {
        self.stack.truncate(n);
    }

    /// Find the topmost mark; returns the number of objects above it.
    ///
    /// # Errors
    /// `unmatchedmark` (reported as rangecheck) when no mark is present.
    pub fn count_to_mark(&self) -> PsResult<usize> {
        for (i, o) in self.stack.iter().rev().enumerate() {
            if matches!(o.val, Value::Mark) {
                return Ok(i);
            }
        }
        Err(PsError::runtime(ErrorKind::RangeCheck, "no mark on stack"))
    }

    // ----- dictionary stack -----

    /// Push a dictionary (the `begin` operator; also how ldb installs a
    /// per-architecture rebinding dictionary).
    pub fn push_dict(&mut self, d: crate::object::DictRef) {
        self.dicts.push(d);
    }

    /// Pop the top dictionary (`end`).
    ///
    /// # Errors
    /// Dictstackunderflow when only systemdict and userdict remain.
    pub fn pop_dict(&mut self) -> PsResult<crate::object::DictRef> {
        if self.dicts.len() <= 2 {
            return Err(PsError::runtime(
                ErrorKind::DictStackUnderflow,
                "end: dictionary stack at minimum",
            ));
        }
        self.dicts.pop().ok_or_else(|| {
            PsError::runtime(ErrorKind::DictStackUnderflow, "end: dictionary stack empty")
        })
    }

    /// The current (topmost) dictionary (systemdict if the dictionary
    /// stack were ever empty, which `pop_dict` prevents).
    pub fn currentdict(&self) -> crate::object::DictRef {
        match self.dicts.last() {
            Some(d) => Rc::clone(d),
            None => Rc::clone(&self.systemdict),
        }
    }

    /// Number of dictionaries on the dictionary stack.
    pub fn dict_stack_len(&self) -> usize {
        self.dicts.len()
    }

    /// Snapshot the dictionary stack, so a sandboxed run of untrusted
    /// code can be undone: stray `begin`s (or `end`s popping the host's
    /// dictionaries) are reverted by [`Interp::restore_dict_stack`].
    pub fn dict_stack_snapshot(&self) -> Vec<crate::object::DictRef> {
        self.dicts.clone()
    }

    /// Restore a dictionary stack taken by [`Interp::dict_stack_snapshot`].
    /// Empty snapshots are ignored (the stack always keeps systemdict).
    pub fn restore_dict_stack(&mut self, dicts: Vec<crate::object::DictRef>) {
        if !dicts.is_empty() {
            self.dicts = dicts;
        }
    }

    /// Look up a name through the dictionary stack, topmost first.
    ///
    /// # Errors
    /// Undefined when no dictionary binds the name.
    pub fn lookup(&self, name: &str) -> PsResult<Object> {
        let key = Key::name(name);
        for d in self.dicts.iter().rev() {
            if let Some(v) = d.borrow().get(&key) {
                return Ok(v.clone());
            }
        }
        Err(undefined(name.to_string()))
    }

    /// Find the dictionary that binds `name`, topmost first (`where`).
    pub fn find_dict(&self, name: &str) -> Option<crate::object::DictRef> {
        let key = Key::name(name);
        for d in self.dicts.iter().rev() {
            if d.borrow().contains(&key) {
                return Some(Rc::clone(d));
            }
        }
        None
    }

    /// Define `name` in the current dictionary (`def` from Rust).
    pub fn def(&mut self, name: &str, value: Object) {
        self.currentdict().borrow_mut().put_name(name, value);
    }

    /// Register an operator in systemdict.
    pub fn register(&mut self, name: &str, f: impl Fn(&mut Interp) -> PsResult<()> + 'static) {
        let op = Operator { name: Rc::from(name), f: Rc::new(f) };
        self.systemdict
            .borrow_mut()
            .put_name(name, Object::ex(Value::Operator(op)));
    }

    // ----- execution -----

    pub(crate) fn enter(&mut self) -> PsResult<()> {
        self.charge_step()?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(PsError::runtime(ErrorKind::LimitCheck, "execution nesting too deep"));
        }
        Ok(())
    }

    pub(crate) fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Fully execute an object: executable arrays run, executable names are
    /// loaded and executed, executable strings are scanned and run,
    /// executable files run token by token. Literal objects are pushed.
    ///
    /// # Errors
    /// Propagates runtime errors and `exit`/`stop`/`quit` control transfers.
    pub fn exec_object(&mut self, o: &Object) -> PsResult<()> {
        if !o.exec {
            self.stack.push(o.clone());
            return Ok(());
        }
        match &o.val {
            Value::Name(n) => {
                let found = self.lookup(n)?;
                self.enter()?;
                let r = self.exec_object(&found);
                self.leave();
                r
            }
            Value::Operator(op) => {
                let f = Rc::clone(&op.f);
                self.enter()?;
                let r = f(self);
                self.leave();
                r
            }
            Value::Array(a) => {
                self.enter()?;
                let r = self.run_proc_elements(&Rc::clone(a));
                self.leave();
                r
            }
            Value::String(s) => {
                self.enter()?;
                let r = self.run_scanner(&mut Scanner::from_str(Rc::clone(s)));
                self.leave();
                r
            }
            Value::File(f) => {
                self.enter()?;
                let r = self.run_file(&Rc::clone(f));
                self.leave();
                r
            }
            // Executable versions of other types behave like literals.
            _ => {
                self.stack.push(o.clone());
                Ok(())
            }
        }
    }

    /// Execute a procedure body: nested procedures are *pushed*, everything
    /// else executes. This is the rule that makes `{...}` inside a procedure
    /// a deferred body rather than immediate execution.
    fn run_proc_elements(&mut self, a: &crate::object::Arr) -> PsResult<()> {
        let len = a.borrow().len();
        for i in 0..len {
            let el = a.borrow()[i].clone();
            if el.is_proc() {
                self.stack.push(el);
            } else {
                self.exec_object(&el)?;
            }
        }
        Ok(())
    }

    /// Call an object the way `if`/`ifelse`/`for`/`exec` do: procedures run,
    /// other executables execute, literals push.
    pub fn call(&mut self, o: &Object) -> PsResult<()> {
        // `is_proc` implies the object is an array; fall through to
        // `exec_object` rather than asserting, so a host-constructed
        // oddity cannot panic the interpreter.
        match (o.is_proc(), o.as_array()) {
            (true, Ok(a)) => {
                self.enter()?;
                let r = self.run_proc_elements(&a);
                self.leave();
                r
            }
            _ => self.exec_object(o),
        }
    }

    /// Run every token from a scanner. Procedure tokens are pushed; all
    /// other tokens execute immediately.
    pub fn run_scanner(&mut self, sc: &mut Scanner) -> PsResult<()> {
        while let Some(tok) = sc.next_token()? {
            self.run_token(&tok)?;
        }
        Ok(())
    }

    /// Execute one scanned token. Charges one step of fuel per token (so
    /// token streams terminate under a budget even when every token is a
    /// literal push) plus the approximate size of freshly scanned string
    /// and procedure tokens.
    pub fn run_token(&mut self, tok: &Object) -> PsResult<()> {
        self.charge_step()?;
        let cost = match &tok.val {
            Value::String(s) => s.len() as u64 + 16,
            Value::Array(a) => 32 * a.borrow().len() as u64 + 16,
            _ => 0,
        };
        if cost > 0 {
            self.charge_alloc(cost)?;
        }
        if tok.is_proc() {
            self.stack.push(tok.clone());
            Ok(())
        } else {
            self.exec_object(tok)
        }
    }

    /// Run tokens from a file object until end of stream (or an error /
    /// `stop` propagates out). The file's position persists, so a later
    /// execution resumes after the point where `stop` fired — exactly the
    /// behaviour ldb needs on the expression-server pipe.
    pub fn run_file(&mut self, f: &Rc<RefCell<PsFile>>) -> PsResult<()> {
        loop {
            let tok = f.borrow_mut().next_token()?;
            match tok {
                None => return Ok(()),
                Some(t) => self.run_token(&t)?,
            }
        }
    }

    /// Scan and run a program given as text.
    ///
    /// # Errors
    /// Syntax and runtime errors; `stop` outside `stopped` surfaces as
    /// [`PsError::Stop`].
    pub fn run_str(&mut self, program: &str) -> PsResult<()> {
        self.run_scanner(&mut Scanner::from_str(program))
    }

    /// Run a program, catching errors the way `stopped` does. Returns
    /// `Ok(true)` if the program stopped or errored, `Ok(false)` on success.
    ///
    /// # Errors
    /// Only `quit` propagates.
    pub fn run_stopped(&mut self, program: &str) -> PsResult<bool> {
        match self.run_str(program) {
            Ok(()) => Ok(false),
            Err(PsError::Quit) => Err(PsError::Quit),
            Err(PsError::Runtime(e)) => {
                self.last_error = Some(e);
                Ok(true)
            }
            Err(_) => Ok(true),
        }
    }

    /// Write to the interpreter's output sink.
    pub fn write_output(&mut self, s: &str) {
        self.out.write_str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_stack() {
        let mut i = Interp::new();
        i.run_str("1 2 add 3 mul").unwrap();
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 9);
        assert_eq!(i.depth(), 0);
    }

    #[test]
    fn def_and_lookup() {
        let mut i = Interp::new();
        i.run_str("/x 42 def x x add").unwrap();
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 84);
    }

    #[test]
    fn procedures_defer() {
        let mut i = Interp::new();
        i.run_str("/double {2 mul} def 21 double").unwrap();
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 42);
    }

    #[test]
    fn nested_procedures_push() {
        let mut i = Interp::new();
        i.run_str("/f {true {1} {2} ifelse} def f").unwrap();
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 1);
    }

    #[test]
    fn executable_string_scans_on_demand() {
        let mut i = Interp::new();
        i.run_str("(3 4 add) cvx exec").unwrap();
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 7);
    }

    #[test]
    fn undefined_name_errors() {
        let mut i = Interp::new();
        let e = i.run_str("no_such_name").unwrap_err();
        assert!(matches!(e, PsError::Runtime(r) if r.kind == ErrorKind::Undefined));
    }

    #[test]
    fn run_stopped_catches() {
        let mut i = Interp::new();
        assert!(!i.run_stopped("1 2 add").unwrap());
        assert!(i.run_stopped("no_such_name").unwrap());
        assert_eq!(i.last_error.as_ref().unwrap().kind, ErrorKind::Undefined);
        assert!(i.run_stopped("stop").unwrap());
    }

    #[test]
    fn recursion_limit_guards() {
        let mut i = Interp::new();
        let e = i.run_str("/f {f} def f").unwrap_err();
        assert!(matches!(e, PsError::Runtime(r) if r.kind == ErrorKind::LimitCheck));
    }

    #[test]
    fn recursive_postscript_fib() {
        let mut i = Interp::new();
        i.run_str("/fib {dup 2 lt {pop 1} {dup 1 sub fib exch 2 sub fib add} ifelse} def 10 fib")
            .unwrap();
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 89);
    }

    #[test]
    fn dict_stack_rebinding_like_architectures() {
        // Per-architecture dictionaries rebind machine-dependent names.
        let mut i = Interp::new();
        i.run_str("/Regset0 {(generic)} def").unwrap();
        i.run_str("/mips 4 dict def mips /Regset0 {(mips r)} put").unwrap();
        i.run_str("mips begin Regset0 end Regset0").unwrap();
        assert_eq!(i.pop().unwrap().as_string().unwrap().as_ref(), "generic");
        assert_eq!(i.pop().unwrap().as_string().unwrap().as_ref(), "mips r");
    }

    #[test]
    fn fuel_cuts_off_an_infinite_loop() {
        let mut i = Interp::new();
        let b = Budget { max_fuel: 10_000, ..Budget::UNLIMITED };
        let e = i.with_budget(b, |i| i.run_str("{} loop")).unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::Timeout), "{e}");
        // The budget error is sticky: further execution re-raises until
        // the budget is reset, so `stopped` cannot mask exhaustion.
        let e = i.with_budget(b, |i| i.run_str("{{} loop} stopped pop 1 2 add")).unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::Timeout), "{e}");
        // A fresh ambient budget clears the balance.
        i.set_budget(Budget::UNLIMITED);
        i.run_str("1 2 add").unwrap();
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 3);
    }

    #[test]
    fn allocation_bomb_trips_vmerror() {
        let mut i = Interp::new();
        let b = Budget { max_alloc: 1 << 20, ..Budget::UNLIMITED };
        // Doubling the stack with `copy` inside `loop` grows without bound.
        let e = i.with_budget(b, |i| i.run_str("1 { count copy } loop")).unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::VmError), "{e}");
        i.set_budget(Budget::UNLIMITED);
        i.clear_stack();
    }

    #[test]
    fn operand_stack_budget_bounds_literal_floods() {
        let mut i = Interp::new();
        let b = Budget { max_operands: 100, ..Budget::UNLIMITED };
        let e = i.with_budget(b, |i| i.run_str("{1} loop")).unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::LimitCheck), "{e}");
        assert!(i.depth() <= 200, "stack overshoot bounded: {}", i.depth());
        i.set_budget(Budget::UNLIMITED);
        i.clear_stack();
    }

    #[test]
    fn nested_budgets_charge_the_outer_region() {
        let mut i = Interp::new();
        let outer = Budget { max_fuel: 1_000, ..Budget::UNLIMITED };
        let save = i.push_budget(outer);
        let inner = Budget { max_fuel: 900, ..Budget::UNLIMITED };
        i.with_budget(inner, |i| i.run_str("1 1 200 {pop} for")).unwrap();
        // The inner run's fuel shows up on the outer meter.
        assert!(i.fuel_used() >= 300, "inner fuel charged outward: {}", i.fuel_used());
        let e = i.run_str("1 1 600 {pop} for").unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::Timeout), "{e}");
        i.pop_budget(save);
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut i = Interp::new();
        i.run_str("1 2 add pop").unwrap();
        let s1 = i.budget_stats();
        assert!(s1.fuel_spent_total > 0);
        i.run_str("(abc) cvs pop").unwrap();
        let s2 = i.budget_stats();
        assert!(s2.fuel_spent_total > s1.fuel_spent_total);
        assert!(s2.alloc_charged_total > s1.alloc_charged_total);
        assert_eq!(s2.budget_trips, 0);
    }

    #[test]
    fn huge_composite_requests_are_limitchecks_even_unbudgeted() {
        let mut i = Interp::new();
        let e = i.run_str("16#40000000 array").unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::LimitCheck), "{e}");
        let e = i.run_str("16#40000000 dict").unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::LimitCheck), "{e}");
    }

    #[test]
    fn file_execution_resumes_after_stop() {
        use std::cell::RefCell;
        let f = Rc::new(RefCell::new(PsFile::from_str("pipe", "1 stop 2 3")));
        let mut i = Interp::new();
        // First execution runs until `stop`.
        let e = i.run_file(&f).unwrap_err();
        assert_eq!(e, PsError::Stop);
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 1);
        // Second execution resumes where we left off.
        i.run_file(&f).unwrap();
        assert_eq!(i.depth(), 2);
        assert_eq!(i.pop().unwrap().as_int().unwrap(), 3);
    }
}
