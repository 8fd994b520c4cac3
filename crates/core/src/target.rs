//! One debugged target and the session's robustness counters: the state
//! the debugger keeps per connection, apart from the commands that drive
//! it (`debugger.rs`, `motion.rs`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ldb_machine::{Arch, MachineData};
use ldb_nub::{FaultConfig, NubClient, NubHandle, Sig};
use ldb_postscript::{DictRef, Object};

use crate::amemory::{CachedMemory, MemRef};
use crate::breakpoint::Breakpoints;
use crate::chaos::ChaosMemory;
use crate::frame::{Frame, WalkStop};
use crate::loader::Loader;

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
    pub(crate) entry: Object,
    /// `Some((proc, vfp))` for frame-relative variables.
    pub(crate) scope: Option<(String, u32)>,
    pub(crate) last: String,
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
    /// operations refuse until [`Ldb::reconnect`](crate::Ldb::reconnect).
    pub disconnected: bool,
    /// Register snapshot from the last successful
    /// [`Ldb::registers`](crate::Ldb::registers) call, answered while
    /// disconnected.
    pub(crate) reg_cache: Vec<(String, u32)>,
    /// The checkpoint ring reverse execution rewinds through.
    pub checkpoints: crate::checkpoint::CheckpointStore,
    /// The fault injector this target was attached through
    /// ([`AttachOpts::fault`](crate::AttachOpts::fault)); a reconnect's fresh wire gets one too.
    pub(crate) fault: Option<FaultConfig>,
    /// Temporary plants a motion could not lift because the wire failed
    /// first. The nub may still hold them, and plant recovery cannot tell
    /// them from user breakpoints, so
    /// [`Ldb::reconnect`](crate::Ldb::reconnect) removes them right after
    /// it recovers the plant set.
    pub(crate) owed: Vec<u32>,
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
