//! ldb: a retargetable debugger — the Rust reproduction of Ramsey &
//! Hanson, *A Retargetable Debugger* (PLDI 1992).
//!
//! ldb owes its retargetability to three techniques: help from the
//! compiler ([`ldb_cc`] emits PostScript symbol tables, stopping-point
//! no-ops, and anchor symbols), a machine-independent embedded interpreter
//! ([`ldb_postscript`]), and abstractions that minimize and isolate
//! machine-dependent code — [`amemory`] (the abstract-memory DAG),
//! [`frame`] (per-target walkers supplying just two methods each), the
//! [`breakpoint`] scheme driven by four items of machine-dependent data,
//! and the [`ldb_nub`] protocol that never mentions breakpoints at all.
//!
//! # Examples
//! ```no_run
//! use ldb_cc::driver::{compile, CompileOpts};
//! use ldb_cc::{nm, pssym};
//! use ldb_core::Ldb;
//! use ldb_machine::Arch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "int main(void) { return 0; }";
//! let c = compile("t.c", src, Arch::Mips, CompileOpts::default())?;
//! let symtab = pssym::emit(&c.unit, &c.funcs, c.arch, pssym::PsMode::Deferred);
//! let loader = nm::loader_table_for(&c.linked.image, &symtab);
//! let mut ldb = Ldb::new();
//! let _target = ldb.spawn_program(&c.linked.image, &loader)?;
//! ldb.break_at("main", 0)?;
//! ldb.cont()?;
//! println!("{:?}", ldb.backtrace());
//! # Ok(())
//! # }
//! ```

pub mod amemory;
pub mod breakpoint;
pub mod chaos;
pub mod checkpoint;
pub mod commands;
pub mod debugger;
pub mod event;
pub mod frame;
pub mod loader;
pub mod psops;
pub mod script;
pub mod session;
pub mod symtab;

pub use amemory::{AbstractMemory, AliasMemory, CachedMemory, CacheStats, JoinedMemory, MemError, MemRef, RegisterMemory, WireMemory};
pub use breakpoint::Breakpoints;
pub use chaos::{ChaosConfig, ChaosMemory, ChaosStats};
pub use checkpoint::{CheckpointStats, CheckpointStore};
pub use debugger::{
    AttachOpts, CallArg, CallReturn, Health, Ldb, PsBudgets, ReloadRow, StopEvent, TableSource, Target,
};
pub use event::{Events, Outcome};
pub use frame::{walk_stack, Frame, FrameWalker, WalkCtx, WalkError, WalkGuard, WalkStop, WALK_DEPTH_CAP};
pub use loader::{CompiledTable, FrameMeta, Loader, ModuleTable, Quarantined};
// The compiled-module machinery sessions share across tenants; the stats
// struct is renamed to dodge the amemory::CacheStats export above.
pub use ldb_postscript::{compile_module, CompiledModule, ModuleCache};
pub use ldb_postscript::CacheStats as ModuleCacheStats;
pub use psops::{CtxRef, EvalCtx, MemHandle};
pub use commands::{lookup, Command, COMMANDS};
pub use script::{
    command_count, panic_text, run_command_guarded, run_line, run_script, trace_report,
    BatchOutcome,
};
pub use session::{
    CloseReason, Session, SessionBuilder, SessionConfig, SessionError, SessionRegistry,
};

/// Errors from debugger operations.
#[derive(Debug)]
pub enum LdbError {
    /// Abstract-memory failure.
    Mem(amemory::MemError),
    /// Nub connection failure.
    Nub(ldb_nub::NubError),
    /// Embedded-interpreter failure.
    Ps(ldb_postscript::PsError),
    /// Anything else.
    Msg(String),
}

impl LdbError {
    /// A plain-message error.
    pub fn msg(m: impl Into<String>) -> LdbError {
        LdbError::Msg(m.into())
    }
}

impl std::fmt::Display for LdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LdbError::Mem(e) => write!(f, "{e}"),
            LdbError::Nub(e) => write!(f, "{e}"),
            LdbError::Ps(e) => write!(f, "{e}"),
            LdbError::Msg(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LdbError {}

impl From<amemory::MemError> for LdbError {
    fn from(e: amemory::MemError) -> Self {
        LdbError::Mem(e)
    }
}

impl From<ldb_nub::NubError> for LdbError {
    fn from(e: ldb_nub::NubError) -> Self {
        LdbError::Nub(e)
    }
}

impl From<ldb_postscript::PsError> for LdbError {
    fn from(e: ldb_postscript::PsError) -> Self {
        LdbError::Ps(e)
    }
}
