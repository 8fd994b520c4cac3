//! Breakpoints (paper, Sec. 3).
//!
//! "ldb plants a breakpoint at an instruction I by overwriting I with a
//! trap instruction... For now, ldb can set breakpoints only at no-op
//! instructions, which can be skipped instead of interpreted. The
//! implementation is machine-independent, but it manipulates
//! machine-dependent data: the bit patterns used for break and no-op, the
//! type used to fetch and store instructions, and the amount to advance
//! the program counter after 'interpreting' the no-op."
//!
//! Those four items are exactly [`MachineData::break_pattern`],
//! [`MachineData::nop_pattern`], [`MachineData::insn_unit`], and
//! [`MachineData::pc_advance`]. Everything below is shared by all four
//! targets. Planting uses the nub's recorded *plant* store, so a fresh
//! debugger can recover overwritten instructions after a crash.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ldb_machine::MachineData;
use ldb_nub::NubClient;

use crate::LdbError;

/// How execution resumes from a planted breakpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeKind {
    /// The paper's interim scheme: the overwritten instruction is a no-op;
    /// skip it by advancing the saved pc.
    SkipNop {
        /// The pc just past the no-op.
        next_pc: u32,
    },
    /// The Sec. 7.1 scheme: restore the original instruction, single-step
    /// it, re-plant the trap.
    SingleStep {
        /// The overwritten instruction.
        original: u64,
    },
}

/// One planted breakpoint: the instruction it overwrote and the scheme
/// it resumes under. The scheme is chosen at plant time, not inferred
/// from the overwritten bits: a temp planted *over* a no-op by the
/// single-step scheme still resumes by stepping the no-op — which
/// retires the same one step the pristine program would, keeping the
/// step clock (and so recorded time-travel history) undisturbed.
#[derive(Debug, Clone, Copy)]
struct Plant {
    orig: u64,
    skip_nop: bool,
}

/// The set of planted breakpoints in one target. Each records the
/// instruction it overwrote: a stopping-point no-op under the paper's
/// interim scheme, or an arbitrary instruction under the single-step
/// scheme of Sec. 7.1 (when the nub's step extension is available).
pub struct Breakpoints {
    data: &'static MachineData,
    planted: HashMap<u32, Plant>,
    /// Bumped on every change to the planted set that perturbs the step
    /// clock. A skip-nop plant does: when its trap fires, the no-op is
    /// "interpreted" by advancing the pc, retiring zero steps where the
    /// pristine program retires one. A single-step plant does not: the
    /// trap fires for zero steps and the choreography steps the original
    /// instruction for one — the same clock as pristine execution, so
    /// planting or removing one (the temps of `next`/`finish`) leaves
    /// recorded history replayable. Checkpoints record the generation
    /// they were taken under: deterministic replay is only exact while
    /// the clock-perturbing plants match, so reverse execution refuses
    /// checkpoints from another generation (see `CheckpointStore`).
    gen: u64,
}

impl std::fmt::Debug for Breakpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Breakpoints({:?})", self.planted.keys())
    }
}

impl Breakpoints {
    /// An empty set for a target.
    pub fn new(data: &'static MachineData) -> Breakpoints {
        Breakpoints { data, planted: HashMap::new(), gen: 0 }
    }

    /// The current plant-set generation (bumped on every plant/unplant
    /// of a clock-perturbing — skip-nop — breakpoint).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.gen
    }


    /// Plant a breakpoint at `addr`, which must hold a no-op (a stopping
    /// point compiled with `-g`).
    ///
    /// # Errors
    /// The address does not hold a no-op, or the nub connection failed.
    pub fn plant(&mut self, client: &Rc<RefCell<NubClient>>, addr: u32) -> Result<(), LdbError> {
        if self.planted.contains_key(&addr) {
            return Ok(());
        }
        let cur = client.borrow_mut().fetch('c', addr, self.data.insn_unit)?;
        if cur as u32 != self.data.nop_pattern {
            return Err(LdbError::msg(format!(
                "{addr:#x} does not hold a stopping-point no-op (found {cur:#x}); \
                 was the program compiled with -g? (plant_anywhere uses the \
                 single-step scheme instead)"
            )));
        }
        client
            .borrow_mut()
            .plant(addr, self.data.insn_unit, self.data.break_pattern as u64)?;
        self.planted.insert(addr, Plant { orig: cur, skip_nop: true });
        self.gen += 1;
        Ok(())
    }

    /// Plant a breakpoint over an *arbitrary* instruction — the Sec. 7.1
    /// single-step scheme. Resuming needs the nub's step extension (see
    /// [`Breakpoints::resume_kind`]). Used for the temps of
    /// `next`/`finish` even when the overwritten instruction happens to
    /// be a no-op: single-stepping it keeps the step clock pristine, so
    /// these plants never advance the generation.
    ///
    /// # Errors
    /// Nub connection failure.
    pub fn plant_anywhere(
        &mut self,
        client: &Rc<RefCell<NubClient>>,
        addr: u32,
    ) -> Result<(), LdbError> {
        if self.planted.contains_key(&addr) {
            return Ok(());
        }
        // Fixed-width targets: reject misaligned plants outright. On the
        // variable-length targets (68020, VAX) the debugger cannot tell an
        // instruction boundary from the middle of one; callers must supply
        // a boundary (e.g. from the disassembler or a stopping point).
        if self.data.insn_unit > 1 && !addr.is_multiple_of(self.data.insn_unit as u32) {
            return Err(LdbError::msg(format!(
                "{addr:#x} is not aligned to the {}-byte instruction unit",
                self.data.insn_unit
            )));
        }
        let cur = client.borrow_mut().fetch('c', addr, self.data.insn_unit)?;
        client
            .borrow_mut()
            .plant(addr, self.data.insn_unit, self.data.break_pattern as u64)?;
        self.planted.insert(addr, Plant { orig: cur, skip_nop: false });
        Ok(())
    }

    /// Remove the breakpoint at `addr`, restoring the no-op.
    ///
    /// # Errors
    /// Nub connection failure.
    pub fn remove(&mut self, client: &Rc<RefCell<NubClient>>, addr: u32) -> Result<(), LdbError> {
        if let Some(p) = self.planted.remove(&addr) {
            if p.skip_nop {
                self.gen += 1;
            }
            client.borrow_mut().store('c', addr, self.data.insn_unit, p.orig)?;
        }
        Ok(())
    }

    /// Is a breakpoint planted at `addr`?
    pub fn contains(&self, addr: u32) -> bool {
        self.planted.contains_key(&addr)
    }

    /// Drop the record of a plant without touching target memory — for
    /// a target that no longer exists.
    pub fn forget(&mut self, addr: u32) {
        if let Some(p) = self.planted.remove(&addr) {
            if p.skip_nop {
                self.gen += 1;
            }
        }
    }

    /// Whether a breakpoint is planted at `addr`.
    #[must_use]
    pub fn is_planted(&self, addr: u32) -> bool {
        self.planted.contains_key(&addr)
    }

    /// All planted addresses.
    #[must_use]
    pub fn addresses(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.planted.keys().copied().collect();
        v.sort();
        v
    }

    /// How to resume from the breakpoint at `addr`.
    pub fn resume_kind(&self, addr: u32) -> Option<ResumeKind> {
        self.planted.get(&addr).map(|p| {
            if p.skip_nop {
                ResumeKind::SkipNop { next_pc: addr + self.data.pc_advance as u32 }
            } else {
                ResumeKind::SingleStep { original: p.orig }
            }
        })
    }

    /// The original instruction recorded for `addr`.
    pub fn original(&self, addr: u32) -> Option<u64> {
        self.planted.get(&addr).map(|p| p.orig)
    }

    /// Rebuild the set from the nub's plant records (after this debugger
    /// replaced a crashed one).
    ///
    /// # Errors
    /// Nub connection failure.
    pub fn recover(&mut self, client: &Rc<RefCell<NubClient>>) -> Result<usize, LdbError> {
        let plants = client.borrow_mut().query_plants()?;
        let mut n = 0;
        for (addr, size, orig) in plants {
            if size == self.data.insn_unit {
                // The nub records don't carry the resume scheme; a
                // recovered no-op plant is assumed to be a user
                // breakpoint (skip-nop). Conservative either way: the
                // generation advances, orphaning pre-crash checkpoints.
                let skip_nop = orig as u32 == self.data.nop_pattern;
                self.gen += 1;
                self.planted.insert(addr, Plant { orig, skip_nop });
                n += 1;
            }
        }
        Ok(n)
    }
}
