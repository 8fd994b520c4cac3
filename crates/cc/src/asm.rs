//! Assembler-level representation: semantic operations plus symbolic
//! labels, symbol references, and stopping-point markers. The linker
//! resolves these to the target's byte encodings.

use ldb_machine::{Cond, Op};

/// One assembler item.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmIns {
    /// A fully resolved operation (no control-flow target).
    Op(Op),
    /// Register-comparing conditional branch (MIPS style).
    Br {
        /// Condition.
        cond: Cond,
        /// Left register.
        rs: u8,
        /// Right register.
        rt: u8,
        /// Target label.
        label: u32,
    },
    /// Condition-code branch (SPARC/68020/VAX style).
    Bcc {
        /// Condition.
        cond: Cond,
        /// Target label.
        label: u32,
    },
    /// Unconditional jump to a label.
    Jmp {
        /// Target label.
        label: u32,
    },
    /// Call a function by linker symbol name.
    CallSym(String),
    /// Load the address of `sym` + `off` into `rd`.
    LoadAddr {
        /// Destination register.
        rd: u8,
        /// Linker symbol.
        sym: String,
        /// Constant offset.
        off: i32,
    },
    /// A branch target (zero bytes).
    Label(u32),
    /// A stopping point: the address of the *next* instruction is stopping
    /// point `index` of this function (zero bytes; under `-g` the code
    /// generator follows it with a no-op).
    StopPoint(u32),
}

/// Frame bookkeeping produced by the target's layout pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameInfo {
    /// Total frame size in bytes (what the prologue subtracts from sp).
    pub size: u32,
    /// Callee-saved registers this function saves (bit i = register i).
    pub save_mask: u32,
    /// Offset from the frame *top* of the first saved register.
    pub save_offset: u32,
    /// Offset from the frame top where the return address is saved
    /// (`None` for targets that push it / leaf functions).
    pub ra_offset: Option<u32>,
    /// Offset (frame-base-relative) of the first scratch spill slot.
    pub spill_base: i32,
}

/// A function in assembler form.
#[derive(Debug, Clone)]
pub struct AsmFn {
    /// Source-level name.
    pub name: String,
    /// Linker name (`_name`).
    pub link_name: String,
    /// The items.
    pub items: Vec<AsmIns>,
    /// Frame info.
    pub frame: FrameInfo,
    /// Floating-point literal pool entries this function needs:
    /// (label, value).
    pub float_consts: Vec<(String, f64)>,
    /// Number of stopping points.
    pub stop_count: u32,
}

impl AsmFn {
    /// Append an item.
    pub fn push(&mut self, i: AsmIns) {
        self.items.push(i);
    }

    /// Append a resolved operation.
    pub fn op(&mut self, o: Op) {
        self.items.push(AsmIns::Op(o));
    }
}
