//! Stack frames (paper, Sec. 4.1).
//!
//! The machine-independent class holds the program counter, the
//! procedure's symbol-table entry, and the frame's abstract-memory DAG.
//! "Machine-dependent instances of the class supply only two methods: one
//! that walks down the stack and one that restores registers from the
//! stack" — here, the [`FrameWalker`] trait with `top` and `down`. The
//! frame-pointer targets share one walker ([`fp::FpFrame`]) and differ
//! only in a small layout table; the MIPS, with no frame pointer, keeps
//! its own.

pub mod fp;
pub mod m68k;
pub mod mips;
pub mod sparc;
pub mod vax;

use std::collections::HashSet;
use std::rc::Rc;

use ldb_machine::{Arch, MachineData};

use crate::amemory::{
    AliasMemory, AliasTarget, JoinedMemory, MemError, MemRef, MemResult, RegisterMemory,
};
use crate::loader::{FrameMeta, Loader};

/// One procedure activation.
pub struct Frame {
    /// The program counter in this frame.
    pub pc: u32,
    /// The virtual frame pointer: the base `Storage::Frame` offsets (and
    /// the `l` space) are relative to. On the MIPS it is computed as
    /// sp + frame size; on the others it is the frame-pointer register.
    pub vfp: u32,
    /// 0 = topmost.
    pub level: u32,
    /// The joined memory presented to the rest of the debugger.
    pub mem: MemRef,
    /// The alias memory inside it (walkers build the parent's aliases from
    /// it).
    pub alias: Rc<AliasMemory>,
    /// Frame metadata of the procedure, if known.
    pub meta: Option<FrameMeta>,
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frame {{ pc: {:#x}, vfp: {:#x}, level: {} }}", self.pc, self.vfp, self.level)
    }
}

/// What the walkers need from the target.
pub struct WalkCtx<'a> {
    /// The wire (serves `c` and `d`).
    pub wire: MemRef,
    /// Address of the nub's context block.
    pub context: u32,
    /// Machine description.
    pub data: &'static MachineData,
    /// The loader (frame metadata, proctable).
    pub loader: &'a Loader,
}

/// Why a stack walk stopped. Anything but [`WalkStop::StackBase`] means
/// the backtrace is truncated, and the variant says why — the walkers
/// never trust a saved frame pointer or return address enough to loop on
/// it (the target may be arbitrarily corrupted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkStop {
    /// Reached the stack base: the normal, complete walk.
    StackBase,
    /// The frame chain revisited a virtual frame pointer.
    Cycle {
        /// The vfp seen twice.
        vfp: u32,
    },
    /// The walk hit the hard depth cap without reaching the base.
    DepthCap {
        /// The cap that fired.
        cap: u32,
    },
    /// A candidate caller frame failed a sanity check (non-monotonic or
    /// misaligned chain).
    BadFrame {
        /// What looked wrong.
        reason: String,
    },
    /// The wire failed mid-walk (dead nub, fetch fault).
    WireError {
        /// The underlying memory error.
        detail: String,
    },
}

impl WalkStop {
    /// True for a complete, untruncated walk.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalkStop::StackBase)
    }
}

impl std::fmt::Display for WalkStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkStop::StackBase => write!(f, "StackBase"),
            WalkStop::Cycle { vfp } => write!(f, "Cycle (vfp {vfp:#x} already visited)"),
            WalkStop::DepthCap { cap } => write!(f, "DepthCap ({cap} frames)"),
            WalkStop::BadFrame { reason } => write!(f, "BadFrame ({reason})"),
            WalkStop::WireError { detail } => write!(f, "WireError ({detail})"),
        }
    }
}

/// A walker-level failure; converted to a [`WalkStop`] by [`walk_stack`].
#[derive(Debug)]
pub enum WalkError {
    /// The wire refused a fetch.
    Wire(MemError),
    /// A sanity check on a candidate frame failed.
    Bad(String),
    /// The candidate frame's vfp was already visited.
    Cycle(u32),
}

impl From<MemError> for WalkError {
    fn from(e: MemError) -> Self {
        WalkError::Wire(e)
    }
}

impl WalkError {
    fn into_stop(self) -> WalkStop {
        match self {
            WalkError::Wire(e) => WalkStop::WireError { detail: e.to_string() },
            WalkError::Bad(reason) => WalkStop::BadFrame { reason },
            WalkError::Cycle(vfp) => WalkStop::Cycle { vfp },
        }
    }
}

/// Hard cap on walk depth: far above any stack this suite produces, far
/// below anything that would make a corrupted-but-acyclic chain feel like
/// a hang.
pub const WALK_DEPTH_CAP: u32 = 64;

/// The defensive state threaded through a stack walk: the set of frame
/// pointers already visited plus the per-architecture sanity checks every
/// candidate caller frame must pass before the walk follows it.
pub struct WalkGuard {
    visited: HashSet<u32>,
    cap: u32,
    pc_align: u32,
}

impl WalkGuard {
    /// A fresh guard; `pc_align` is the architecture's instruction
    /// alignment (from [`FrameWalker::pc_align`]).
    pub fn new(cap: u32, pc_align: u32) -> Self {
        WalkGuard { visited: HashSet::new(), cap, pc_align }
    }

    /// The depth cap this guard enforces.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Record the top frame's vfp as visited.
    pub fn admit_top(&mut self, top: &Frame) {
        self.visited.insert(top.vfp);
    }

    /// Vet a candidate caller frame before the walker builds it: reject
    /// revisited vfps (a cycle), non-monotonic chains (stacks grow down,
    /// so a caller's frame sits at a higher address than its callee's on
    /// every supported architecture), and misaligned frame pointers or
    /// return addresses. Admitted vfps join the visited set.
    ///
    /// # Errors
    /// [`WalkError::Cycle`] or [`WalkError::Bad`] as above.
    pub fn check(&mut self, child: &Frame, parent_vfp: u32, parent_pc: u32) -> Result<(), WalkError> {
        if self.visited.contains(&parent_vfp) {
            return Err(WalkError::Cycle(parent_vfp));
        }
        if parent_vfp < child.vfp {
            return Err(WalkError::Bad(format!(
                "frame chain not monotonic: caller vfp {parent_vfp:#x} below callee vfp {:#x}",
                child.vfp
            )));
        }
        if !parent_vfp.is_multiple_of(4) {
            return Err(WalkError::Bad(format!("misaligned caller vfp {parent_vfp:#x}")));
        }
        if self.pc_align > 1 && !parent_pc.is_multiple_of(self.pc_align) {
            return Err(WalkError::Bad(format!("misaligned return address {parent_pc:#x}")));
        }
        self.visited.insert(parent_vfp);
        Ok(())
    }
}

/// The machine-dependent stack-walking methods.
pub trait FrameWalker {
    /// Build the topmost frame from the context the nub saved.
    ///
    /// # Errors
    /// Wire failures; missing frame metadata.
    fn top(&self, t: &WalkCtx) -> Result<Frame, WalkError>;

    /// Walk down one frame (to the caller); `None` at the stack base.
    /// Every candidate caller must pass `g.check` before it is built.
    ///
    /// # Errors
    /// Wire failures; guard rejections.
    fn down(&self, t: &WalkCtx, g: &mut WalkGuard, f: &Frame) -> Result<Option<Frame>, WalkError>;

    /// Instruction alignment for return-address sanity checks.
    fn pc_align(&self) -> u32 {
        4
    }
}

/// The guarded walk shared by every architecture: build the top frame,
/// then walk down until the base, an error, or the guard objects. Returns
/// whatever frames were recovered plus the typed reason the walk stopped
/// — a truncated backtrace is still a backtrace.
pub fn walk_stack(walker: &dyn FrameWalker, t: &WalkCtx) -> (Vec<Rc<Frame>>, WalkStop) {
    let mut guard = WalkGuard::new(WALK_DEPTH_CAP, walker.pc_align());
    let mut frames: Vec<Rc<Frame>> = Vec::new();
    let top = match walker.top(t) {
        Ok(f) => f,
        Err(e) => return (frames, e.into_stop()),
    };
    guard.admit_top(&top);
    let mut cur = Rc::new(top);
    frames.push(Rc::clone(&cur));
    loop {
        if frames.len() as u32 >= guard.cap() {
            return (frames, WalkStop::DepthCap { cap: guard.cap() });
        }
        match walker.down(t, &mut guard, &cur) {
            Ok(Some(next)) => {
                cur = Rc::new(next);
                frames.push(Rc::clone(&cur));
            }
            Ok(None) => return (frames, WalkStop::StackBase),
            Err(e) => return (frames, e.into_stop()),
        }
    }
}

/// The walker for an architecture.
pub fn frame_walker(arch: Arch) -> &'static dyn FrameWalker {
    match arch {
        Arch::Mips => &mips::MipsFrame,
        Arch::Sparc => &sparc::SPARC_FRAME,
        Arch::M68k => &m68k::M68K_FRAME,
        Arch::Vax => &vax::VAX_FRAME,
    }
}

/// Shared construction: wrap an alias memory in register and joined
/// memories over the wire — the DAG of the paper's Figure 4.
pub fn assemble_dag(wire: &MemRef, alias: Rc<AliasMemory>) -> MemRef {
    let reg = Rc::new(RegisterMemory::new(
        alias.clone() as MemRef,
        &[('r', 4), ('x', 4), ('f', 8)],
    ));
    Rc::new(
        JoinedMemory::new()
            .route('r', reg.clone())
            .route('f', reg.clone())
            .route('x', reg)
            .route('l', alias as MemRef)
            .fallback(wire.clone()),
    )
}

/// Build a top frame's alias memory: every register aliases its context
/// slot; the pc and vfp become the extra registers x0 and x1 (x1 is an
/// immediate — it exists nowhere in target memory).
pub fn top_aliases(t: &WalkCtx, vfp: u32) -> Rc<AliasMemory> {
    let mut alias = AliasMemory::new(t.wire.clone());
    alias.map_space('l', 'd', vfp as i64);
    let ctx = t.context as i64;
    let layout = t.data.ctx;
    for r in 0..layout.nregs {
        alias.alias('r', r as i64, AliasTarget::Mem('d', ctx + layout.reg(r) as i64));
    }
    for f in 0..layout.nfregs {
        alias.alias('f', f as i64, AliasTarget::Mem('d', ctx + layout.freg(f) as i64));
    }
    alias.alias('x', 0, AliasTarget::Mem('d', ctx + layout.pc_offset as i64));
    alias.alias('x', 1, AliasTarget::Imm(vfp as u64));
    Rc::new(alias)
}

/// Build a parent frame's alias memory: reuse the child's aliases for
/// registers the child did not save, and point the saved ones at the
/// child's save area (`slot_of(rank)` gives each saved register's
/// address).
pub fn parent_aliases(
    t: &WalkCtx,
    child: &Frame,
    parent_pc: u32,
    parent_vfp: u32,
    slot_of: impl Fn(u32) -> i64,
) -> Rc<AliasMemory> {
    let mut alias = AliasMemory::new(t.wire.clone());
    alias.map_space('l', 'd', parent_vfp as i64);
    let alias = Rc::new(alias);
    // Saved registers: aliases into the child's save area.
    if let Some(meta) = &child.meta {
        let mut rank = 0u32;
        for r in 0..32u32 {
            if meta.save_mask & (1 << r) != 0 {
                alias.alias('r', r as i64, AliasTarget::Mem('d', slot_of(rank)));
                rank += 1;
            }
        }
    }
    // Everything else: inherited from the called frame ("the aliases from
    // the called frame are reused").
    alias.inherit_from(&child.alias);
    // The extra registers are immediates in parent frames.
    alias.alias('x', 0, AliasTarget::Imm(parent_pc as u64));
    alias.alias('x', 1, AliasTarget::Imm(parent_vfp as u64));
    // The stack pointer of the parent at call time is the child's vfp.
    alias.alias('r', t.data.sp as i64, AliasTarget::Imm(child.vfp as u64));
    if let Some(fp) = t.data.fp {
        alias.alias('r', fp as i64, AliasTarget::Imm(parent_vfp as u64));
    }
    alias
}

/// Read the saved pc out of a frame's context/stack through the wire.
pub(crate) fn wire_word(wire: &MemRef, addr: i64) -> MemResult<u32> {
    Ok(wire.fetch('d', addr, 4)? as u32)
}
