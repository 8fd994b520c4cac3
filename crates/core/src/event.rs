//! An event-driven client interface (paper, Sec. 7.1).
//!
//! "One solution is to make the debugger internals event-driven...
//! Exporting the mechanisms used to make the debugger event-driven would
//! simplify the implementation of event-driven clients. Event-driven
//! debugging subsumes conditional breakpoints as a special case."
//!
//! [`Events`] wraps a session: clients register actions on breakpoint
//! addresses (or on faults); [`Events::run`] drives the target, invoking
//! actions at each stop, until an action asks to hold the stop or the
//! target exits. Conditional breakpoints are an action that evaluates an
//! expression and resumes when it is false.

use std::collections::HashMap;

use crate::debugger::Ldb;
use crate::motion::StopEvent;
use crate::LdbError;

/// What an action wants done after it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Resume the target.
    Resume,
    /// Hold the stop and return control to the client.
    Hold,
}

/// An action invoked at a stop. It may inspect and mutate the target
/// through the debugger.
pub type Action = Box<dyn FnMut(&mut Ldb, &StopEvent) -> Result<Outcome, LdbError>>;

/// The event-driven driver.
pub struct Events {
    /// The underlying session (accessible between runs).
    pub ldb: Ldb,
    on_addr: HashMap<u32, Action>,
    on_fault: Option<Action>,
    /// Count of events dispatched (observable by clients and tests).
    pub dispatched: u64,
}

impl Events {
    /// Wrap a session.
    pub fn new(ldb: Ldb) -> Events {
        Events { ldb, on_addr: HashMap::new(), on_fault: None, dispatched: 0 }
    }

    /// Plant a breakpoint at stopping point `index` of `func` and register
    /// an action for it.
    ///
    /// # Errors
    /// As [`Ldb::break_at`].
    pub fn on_break(
        &mut self,
        func: &str,
        index: usize,
        action: Action,
    ) -> Result<u32, LdbError> {
        let addr = self.ldb.break_at(func, index)?;
        self.on_addr.insert(addr, action);
        Ok(addr)
    }

    /// A conditional breakpoint: hold only when `cond` (a C expression
    /// evaluated in the stop's scope) is nonzero.
    ///
    /// # Errors
    /// As [`Ldb::break_at`].
    pub fn on_break_when(
        &mut self,
        func: &str,
        index: usize,
        cond: &str,
    ) -> Result<u32, LdbError> {
        let cond = cond.to_string();
        self.on_break(
            func,
            index,
            Box::new(move |ldb, _ev| {
                let v = ldb.eval(&cond)?;
                Ok(if v != "0" { Outcome::Hold } else { Outcome::Resume })
            }),
        )
    }

    /// Register an action for faults.
    pub fn on_fault(&mut self, action: Action) {
        self.on_fault = Some(action);
    }

    /// Drive the target until an action holds a stop, an unhandled stop
    /// arrives, or the target exits.
    ///
    /// # Errors
    /// Nub and evaluation failures.
    pub fn run(&mut self) -> Result<StopEvent, LdbError> {
        loop {
            let ev = self.ldb.cont()?;
            self.dispatched += 1;
            match &ev {
                StopEvent::Exited(_) => return Ok(ev),
                StopEvent::Breakpoint { addr, .. } => {
                    let addr = *addr;
                    match self.on_addr.remove(&addr) {
                        None => return Ok(ev), // not ours: surface it
                        Some(mut action) => {
                            let out = action(&mut self.ldb, &ev);
                            self.on_addr.insert(addr, action);
                            match out? {
                                Outcome::Hold => return Ok(ev),
                                Outcome::Resume => continue,
                            }
                        }
                    }
                }
                StopEvent::Fault { .. } => {
                    // The action runs, but faults never resume blindly.
                    if let Some(mut action) = self.on_fault.take() {
                        let out = action(&mut self.ldb, &ev);
                        self.on_fault = Some(action);
                        out?;
                    }
                    return Ok(ev);
                }
                _ => return Ok(ev),
            }
        }
    }
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Events {{ actions: {}, dispatched: {} }}", self.on_addr.len(), self.dispatched)
    }
}
