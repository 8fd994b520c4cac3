//! The linker interface (paper, Sec. 3 and 4.3).
//!
//! ldb reads the loader table — a PostScript dictionary generated from
//! `nm` output — to learn anchor-symbol addresses and the (address, name)
//! pairs of procedures. The frame-layout side differs by target: "the
//! VAX, SPARC, and 68020 share a single, machine-independent
//! implementation of the linker interface. The MIPS cannot use this
//! implementation because it has no frame pointer" — its frame sizes come
//! from the *runtime procedure table in the target address space*.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use ldb_machine::{Arch, Rpt};
use ldb_postscript::{
    compile_module, Budget, CompiledModule, Dict, DictRef, Interp, ModuleCache, Object, PsResult,
    Value,
};
use ldb_trace::{Layer, Severity};

use crate::amemory::MemRef;

/// Journal one module-load outcome ([`Layer::Ps`]) through the
/// interpreter's flight-recorder handle.
fn trace_module(
    interp: &Interp,
    kind: &'static str,
    sev: Severity,
    module: &str,
    reason: Option<&str>,
) {
    let t = interp.trace();
    if t.is_on() {
        match reason {
            None => t.emit(Layer::Ps, sev, kind, &[("module", module.to_string().into())]),
            Some(r) => {
                t.emit(
                    Layer::Ps,
                    sev,
                    kind,
                    &[("module", module.to_string().into()), ("reason", r.to_string().into())],
                );
            }
        }
    }
}

/// One module's symbol-table PostScript, named for provenance and
/// quarantine reports (see [`Loader::load_plan_compiled`]).
#[derive(Debug, Clone)]
pub struct ModuleTable {
    /// The module (source file) name, e.g. `t2.c`.
    pub name: String,
    /// The symbol-table PostScript emitted for this unit.
    pub ps: String,
}

/// A module admitted at connect whose compiled table has not run yet.
/// The `Arc` is shared read-only — possibly with other sessions.
struct Pending {
    name: String,
    module: Arc<CompiledModule>,
}

/// A module whose symbol table was rejected by the sandbox: it failed to
/// compile, faulted, exhausted its budget, or failed shape validation.
/// The table is kept so `reload` can retry it.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// The module name.
    pub module: String,
    /// Why it was quarantined (the rendered error).
    pub reason: String,
    /// The rejected table's compiled form, when it compiled.
    compiled: Option<Arc<CompiledModule>>,
    /// The rejected PostScript, recompiled on retry when it never compiled.
    ps: Arc<str>,
}

/// The module cache behind every in-process attach that does not bring
/// its own ([`crate::Ldb::attach_plan`], [`crate::Ldb::spawn_program`],
/// the `ldb` CLI): attaching the same program twice in one process
/// compiles its tables once. Daemons and fleets keep their own caches so
/// their counters stay per service.
pub fn shared_module_cache() -> &'static ModuleCache {
    static SHARED: OnceLock<ModuleCache> = OnceLock::new();
    SHARED.get_or_init(ModuleCache::new)
}

/// Compile a load plan's frame and module tables into `cache` ahead of
/// any attach, so every later attach of the program only hits. A module
/// that fails to compile is skipped here (attach quarantines it).
///
/// # Errors
/// The frame fails to compile.
pub fn precompile_plan(frame_ps: &str, modules: &[ModuleTable], cache: &ModuleCache) -> PsResult<()> {
    cache.get_or_compile(FRAME, frame_ps)?;
    for m in modules {
        let _ = cache.get_or_compile(&m.name, &m.ps);
    }
    Ok(())
}

/// The provenance name of the linker frame.
const FRAME: &str = "<loader frame>";

/// Frame metadata for one procedure, as the stack walkers need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Procedure start address.
    pub proc_addr: u32,
    /// Frame size in bytes.
    pub frame_size: u32,
    /// Offset below the frame top where the return address is saved
    /// (RISC convention; CISC frames find it at fp+4).
    pub ra_offset: Option<u32>,
    /// Callee-saved registers this procedure saves.
    pub save_mask: u32,
    /// Offset below the frame top of the save area.
    pub save_offset: u32,
}

/// The loader table, parsed.
pub struct Loader {
    /// The whole loader dictionary.
    pub table: DictRef,
    /// The program's top-level symbol dictionary.
    pub top: DictRef,
    /// Anchor symbol → address.
    pub anchors: HashMap<String, u32>,
    /// (address, linker name) pairs, sorted by address.
    pub proctable: Vec<(u32, String)>,
    /// The architecture named in the symbol table.
    pub arch: Arch,
    /// Cached MIPS runtime procedure table.
    rpt: RefCell<Option<Rpt>>,
    /// Modules rejected by the sandbox, awaiting `reload`.
    quarantined: RefCell<Vec<Quarantined>>,
    /// Modules admitted at connect (headers type-checked) but not yet
    /// executed: their debug info materializes on first touch (see
    /// [`Loader::force_pending`]).
    pending: RefCell<Vec<Pending>>,
}

impl std::fmt::Debug for Loader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Loader {{ arch: {}, procs: {} }}", self.arch, self.proctable.len())
    }
}

impl Loader {
    /// Load a program from a *plan*, lazily: the trusted loader frame
    /// (anchor map and proctable from the linker) plus one symbol table
    /// per module, every one compiled through `cache` (one compile per
    /// distinct content, however many sessions attach). The frame runs
    /// at once under `budget`; its `/symtab`, when not `null`, seeds the
    /// program's symbol dictionary, so a classic whole loader table is a
    /// frame with no modules. Module tables are only *admitted*: their
    /// compile-time `/architecture` headers are type-checked, and
    /// execution is deferred until the first breakpoint, stack walk, or
    /// print touches debug info ([`Loader::force_pending`]).
    ///
    /// A module that fails to compile, or whose header is missing or
    /// names the wrong architecture, is **quarantined** at once —
    /// recorded with its error and skipped — and one that faults, runs
    /// out of budget, or fails validation when forced is quarantined
    /// then; the healthy modules' tables are merged so debugging
    /// proceeds. The load fails only when no module is admitted (the
    /// architecture would be unknowable).
    ///
    /// # Errors
    /// Frame errors, malformed frames, or every module quarantined at
    /// admission.
    pub fn load_plan_compiled(
        interp: &mut Interp,
        frame_ps: &str,
        modules: &[ModuleTable],
        cache: &ModuleCache,
        budget: Budget,
    ) -> PsResult<Loader> {
        let (frame, _hit) = cache.get_or_compile(FRAME, frame_ps)?;
        let table = run_frame(interp, budget, &frame)?;
        let seed = table.borrow().get_name("symtab").cloned();
        let top: DictRef = match seed {
            None => return Err(bad("loader table has no /symtab")),
            Some(o) if matches!(o.val, Value::Null) => Rc::new(RefCell::new(Dict::new(64))),
            Some(o) => o.as_dict()?,
        };
        let mut quarantined = Vec::new();
        let mut pending = Vec::new();
        let mut arch = unit_arch(&top);
        for m in modules {
            let admitted = match cache.get_or_compile(&m.name, &m.ps) {
                Err(e) => Err((e.to_string(), None)),
                Ok((module, _hit)) => match admit(&m.name, &module, arch) {
                    Ok(a) => Ok((a, module)),
                    Err(reason) => Err((reason, Some(module))),
                },
            };
            match admitted {
                Ok((a, module)) => {
                    arch = Some(a);
                    pending.push(Pending { name: m.name.clone(), module });
                }
                Err((reason, compiled)) => {
                    let q = Quarantined {
                        module: m.name.clone(),
                        reason,
                        compiled,
                        ps: Arc::from(m.ps.as_str()),
                    };
                    quarantine(interp, &mut quarantined, q);
                }
            }
        }
        if pending.is_empty() && !modules.is_empty() {
            return Err(all_quarantined(modules.len(), &quarantined));
        }
        if let Some(a) = arch {
            if top.borrow().get_name("architecture").is_none() {
                top.borrow_mut().put_name("architecture", Object::string(a.name()));
            }
        }
        table.borrow_mut().put_name("symtab", Object::lit(Value::Dict(Rc::clone(&top))));
        let loader = Loader::from_table(table, quarantined)?;
        *loader.pending.borrow_mut() = pending;
        Ok(loader)
    }

    /// Are any admitted modules still unloaded?
    pub fn has_pending(&self) -> bool {
        !self.pending.borrow().is_empty()
    }

    /// Execute every still-pending module under `budget`, merging the
    /// healthy tables and quarantining the rest — the deferred half of
    /// [`Loader::load_plan_compiled`]. Returns how many modules loaded
    /// cleanly. Idempotent once the queue is drained.
    pub fn force_pending(&self, interp: &mut Interp, budget: Budget) -> usize {
        let pending = std::mem::take(&mut *self.pending.borrow_mut());
        let mut loaded = 0;
        for p in pending {
            if self.force_one(interp, budget, &p) {
                loaded += 1;
            }
        }
        loaded
    }

    /// Force pending modules one at a time until the symbol table binds
    /// procedure `name` (externs or statics). Returns whether the name
    /// resolved; modules admitted but not needed stay pending.
    pub fn force_pending_for_name(
        &self,
        interp: &mut Interp,
        budget: Budget,
        name: &str,
    ) -> bool {
        loop {
            if self.proc_entry_by_name(name).is_some() {
                return true;
            }
            let next = {
                let mut p = self.pending.borrow_mut();
                if p.is_empty() {
                    return false;
                }
                p.remove(0)
            };
            self.force_one(interp, budget, &next);
        }
    }

    /// Run one admitted module and merge or quarantine it.
    fn force_one(&self, interp: &mut Interp, budget: Budget, p: &Pending) -> bool {
        match run_module(interp, &p.name, &p.module, budget).and_then(|unit| self.same_arch(unit)) {
            Ok(unit) => {
                trace_module(interp, "module_load", Severity::Info, &p.name, None);
                merge_unit_into(&self.top, &unit);
                true
            }
            Err(reason) => {
                let q = Quarantined {
                    module: p.name.clone(),
                    reason,
                    compiled: Some(Arc::clone(&p.module)),
                    ps: Arc::clone(p.module.source()),
                };
                quarantine(interp, &mut self.quarantined.borrow_mut(), q);
                false
            }
        }
    }

    /// Admit a unit that ran cleanly only if it names this program's
    /// architecture.
    fn same_arch(&self, unit: DictRef) -> Result<DictRef, String> {
        check_arch(unit_arch(&unit), Some(self.arch)).map(|_| unit)
    }

    /// Extract the pieces ldb needs from an already-interpreted table.
    fn from_table(table: DictRef, quarantined: Vec<Quarantined>) -> PsResult<Loader> {
        let (top, anchors, proctable, arch);
        {
            let t = table.borrow();
            let top_obj = t
                .get_name("symtab")
                .cloned()
                .ok_or_else(|| bad("loader table has no /symtab"))?;
            top = top_obj.as_dict()?;
            let mut amap = HashMap::new();
            let am = t
                .get_name("anchormap")
                .cloned()
                .ok_or_else(|| bad("loader table has no /anchormap"))?
                .as_dict()?;
            for (k, v) in am.borrow().iter() {
                amap.insert(k.to_string().trim_start_matches('/').to_string(), v.as_int()? as u32);
            }
            anchors = amap;
            let mut procs = Vec::new();
            let pt = t
                .get_name("proctable")
                .cloned()
                .ok_or_else(|| bad("loader table has no /proctable"))?
                .as_array()?;
            let pt = pt.borrow();
            let mut i = 0;
            while i + 1 < pt.len() {
                procs.push((pt[i].as_int()? as u32, pt[i + 1].as_string()?.to_string()));
                i += 2;
            }
            procs.sort();
            proctable = procs;
            let arch_name = top
                .borrow()
                .get_name("architecture")
                .cloned()
                .ok_or_else(|| bad("symbol table has no /architecture"))?
                .as_string()?;
            arch = Arch::from_name(&arch_name)
                .ok_or_else(|| bad(format!("unknown architecture ({arch_name})")))?;
        }
        Ok(Loader {
            table,
            top,
            anchors,
            proctable,
            arch,
            rpt: RefCell::new(None),
            quarantined: RefCell::new(quarantined),
            pending: RefCell::new(Vec::new()),
        })
    }

    /// The quarantined modules, as (module, reason) pairs.
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.quarantined.borrow().iter().map(|q| (q.module.clone(), q.reason.clone())).collect()
    }

    /// If `name` looks like it belongs to a quarantined module, the
    /// quarantine notice to append to a resolution failure.
    pub fn quarantine_note(&self) -> Option<String> {
        let q = self.quarantined.borrow();
        if q.is_empty() {
            return None;
        }
        let rows: Vec<String> =
            q.iter().map(|e| format!("module {} quarantined: {}", e.module, e.reason)).collect();
        Some(rows.join("; "))
    }

    /// Retry every quarantined module under `budget`, merging the tables
    /// that now load cleanly: a module that compiled re-runs its compiled
    /// form, one that never compiled is compiled again first. Returns one
    /// `(module, outcome)` row per retried module; modules that fail again
    /// stay quarantined with the fresh error.
    pub fn reload_quarantined(
        &self,
        interp: &mut Interp,
        budget: Budget,
    ) -> Vec<(String, Result<(), String>)> {
        let retry = std::mem::take(&mut *self.quarantined.borrow_mut());
        let mut out = Vec::new();
        let mut keep = Vec::new();
        for mut q in retry {
            let compiled = match &q.compiled {
                Some(m) => Ok(Arc::clone(m)),
                None => compile_module(&q.module, &q.ps).map(Arc::new).map_err(|e| e.to_string()),
            };
            let ran = compiled.and_then(|m| {
                q.compiled = Some(Arc::clone(&m));
                run_module(interp, &q.module, &m, budget).and_then(|u| self.same_arch(u))
            });
            match ran {
                Ok(unit) => {
                    trace_module(interp, "module_reload", Severity::Info, &q.module, None);
                    merge_unit_into(&self.top, &unit);
                    out.push((q.module, Ok(())));
                }
                Err(reason) => {
                    out.push((q.module.clone(), Err(reason.clone())));
                    q.reason = reason;
                    quarantine(interp, &mut keep, q);
                }
            }
        }
        *self.quarantined.borrow_mut() = keep;
        out
    }

    /// The procedure containing `pc`: the proctable pair with the largest
    /// address not above `pc` (mapping program counters to procedure
    /// addresses, the first step of pc → symbol-table entry).
    pub fn proc_containing(&self, pc: u32) -> Option<(u32, &str)> {
        let idx = self.proctable.partition_point(|(a, _)| *a <= pc);
        if idx == 0 {
            return None;
        }
        let (a, n) = &self.proctable[idx - 1];
        Some((*a, n))
    }

    /// The address of a procedure by linker name.
    pub fn proc_addr(&self, link_name: &str) -> Option<u32> {
        self.proctable.iter().find(|(_, n)| n == link_name).map(|(a, _)| *a)
    }

    /// Frame metadata for the procedure containing `pc`.
    ///
    /// The machine-independent implementation reads `/framesize`,
    /// `/savemask`, `/saveoffset` from the procedure's symbol-table entry;
    /// the MIPS implementation reads the runtime procedure table from the
    /// target address space through `wire`.
    pub fn frame_meta(&self, pc: u32, wire: &MemRef) -> Option<FrameMeta> {
        if self.arch == Arch::Mips {
            return self.frame_meta_mips(pc, wire);
        }
        let (proc_addr, link_name) = self.proc_containing(pc)?;
        let entry = self.proc_entry_by_link_name(link_name)?;
        let d = entry.as_dict().ok()?;
        let d = d.borrow();
        let get = |k: &str| d.get_name(k).and_then(|o| o.as_int().ok());
        Some(FrameMeta {
            proc_addr,
            frame_size: get("framesize")? as u32,
            ra_offset: get("raoffset").map(|v| v as u32),
            save_mask: get("savemask").unwrap_or(0) as u32,
            save_offset: get("saveoffset").unwrap_or(0) as u32,
        })
    }

    /// The MIPS linker interface: lazily read the runtime procedure table
    /// from target memory (paper: "gets machine-dependent data from the
    /// runtime procedure table located in the target address space").
    fn frame_meta_mips(&self, pc: u32, wire: &MemRef) -> Option<FrameMeta> {
        if self.rpt.borrow().is_none() {
            let addr = *self.anchors.get("__rpt")?;
            let rpt = Rpt::read_from(
                &mut |a| {
                    wire.fetch('d', a as i64, 4)
                        .map(|v| v as u32)
                        .map_err(|_| ldb_machine::Fault::BadAddress { addr: a, write: false })
                },
                addr,
            )
            .ok()?;
            *self.rpt.borrow_mut() = Some(rpt);
        }
        let rpt = self.rpt.borrow();
        let e = rpt.as_ref()?.lookup(pc)?;
        Some(FrameMeta {
            proc_addr: e.proc_addr,
            frame_size: e.frame_size,
            ra_offset: (e.ra_save_offset != u32::MAX).then_some(e.ra_save_offset),
            save_mask: e.save_mask,
            save_offset: e.save_offset,
        })
    }

    /// A procedure's symbol-table entry, by linker name (`_fib`).
    pub fn proc_entry_by_link_name(&self, link_name: &str) -> Option<Object> {
        // Externs carry a leading underscore; unit-private (static)
        // functions are unit-qualified (`fib_c.helper`).
        let source = link_name
            .strip_prefix('_')
            .unwrap_or_else(|| link_name.rsplit('.').next().unwrap_or(link_name));
        self.proc_entry_by_name(source)
    }

    /// A procedure's symbol-table entry, by source name (`fib`): externs
    /// first, then unit statics.
    pub fn proc_entry_by_name(&self, name: &str) -> Option<Object> {
        let top = self.top.borrow();
        for dictname in ["externs", "statics"] {
            if let Some(d) = top.get_name(dictname) {
                if let Ok(d) = d.as_dict() {
                    if let Some(e) = d.borrow().get_name(name) {
                        return Some(e.clone());
                    }
                }
            }
        }
        None
    }

    /// Iterate the `/procs` array (symbol-table entries of procedures).
    pub fn procs(&self) -> Vec<Object> {
        let top = self.top.borrow();
        match top.get_name("procs").and_then(|o| o.as_array().ok()) {
            Some(a) => a.borrow().clone(),
            None => Vec::new(),
        }
    }

    /// Share the cached runtime procedure table (tests, figures).
    pub fn rpt_cache(&self) -> Option<Rpt> {
        self.rpt.borrow().clone()
    }
}

/// A sharable loader.
pub type LoaderRef = Rc<Loader>;

fn bad(msg: impl Into<String>) -> ldb_postscript::PsError {
    ldb_postscript::PsError::runtime(ldb_postscript::ErrorKind::HostError, msg)
}

/// Journal a module's quarantine and record it (with its table, so
/// `reload` can retry it).
fn quarantine(interp: &Interp, into: &mut Vec<Quarantined>, q: Quarantined) {
    trace_module(interp, "quarantine", Severity::Warn, &q.module, Some(&q.reason));
    into.push(q);
}

/// The load failure when no module survived.
fn all_quarantined(n: usize, quarantined: &[Quarantined]) -> ldb_postscript::PsError {
    let reasons: Vec<String> =
        quarantined.iter().map(|q| format!("{}: {}", q.module, q.reason)).collect();
    bad(format!("all {n} modules quarantined: {}", reasons.join("; ")))
}

/// Check a unit's architecture against the program's (`None` until the
/// first module is admitted); the admitted architecture, or why not.
fn check_arch(got: Option<Arch>, program: Option<Arch>) -> Result<Arch, String> {
    match (got, program) {
        (None, _) => Err("unknown architecture".to_string()),
        (Some(a), Some(prev)) if a != prev => {
            Err(format!("architecture mismatch ({a} table in a {prev} program)"))
        }
        (Some(a), _) => Ok(a),
    }
}

/// Admit a compiled module by its static `/architecture` header against
/// the program's architecture (`None` until the first module is
/// admitted); the admitted architecture, or why not.
fn admit(name: &str, module: &CompiledModule, program: Option<Arch>) -> Result<Arch, String> {
    match module.architecture() {
        None => Err(format!("module {name}: table has no /architecture")),
        Some(a) => match Arch::from_name(a) {
            None => Err(format!("module {name}: unknown architecture ({a})")),
            known => check_arch(known, program),
        },
    }
}

/// Run the trusted loader frame under `budget` and take the dictionary
/// it leaves.
fn run_frame(interp: &mut Interp, budget: Budget, frame: &CompiledModule) -> PsResult<DictRef> {
    let save = interp.push_budget(budget);
    let r = frame.run_with_provenance(interp, FRAME);
    interp.pop_budget(save);
    r?;
    interp.pop()?.as_dict()
}

/// Run one module's compiled symbol table under `budget`, fully
/// sandboxed: on any failure the operand and dictionary stacks are
/// restored, so a hostile table cannot leave junk behind or `end` the
/// host's dictionaries away. The table must leave exactly one dictionary
/// of the expected shape.
fn run_module(
    interp: &mut Interp,
    name: &str,
    m: &CompiledModule,
    budget: Budget,
) -> Result<DictRef, String> {
    let depth = interp.depth();
    let dicts = interp.dict_stack_snapshot();
    let save = interp.push_budget(budget);
    let ran = m.run_with_provenance(interp, name);
    interp.pop_budget(save);
    let r = ran.map_err(|e| e.to_string()).and_then(|()| {
        if interp.depth() != depth + 1 {
            return Err(format!(
                "module {name}: table left {} values on the stack (expected 1)",
                interp.depth() as i64 - depth as i64
            ));
        }
        let d = interp
            .pop()
            .and_then(|o| o.as_dict())
            .map_err(|e| format!("module {name}: {e}"))?;
        validate_unit_dict(name, &d)?;
        Ok(d)
    });
    if r.is_err() {
        while interp.depth() > depth {
            let _ = interp.pop();
        }
    }
    interp.restore_dict_stack(dicts);
    r
}

/// Shape-check a unit's top-level dictionary before trusting it.
fn validate_unit_dict(name: &str, d: &DictRef) -> Result<(), String> {
    let d = d.borrow();
    let arch_name = d
        .get_name("architecture")
        .ok_or_else(|| format!("module {name}: table has no /architecture"))?
        .as_string()
        .map_err(|_| format!("module {name}: /architecture is not a string"))?;
    Arch::from_name(&arch_name)
        .ok_or_else(|| format!("module {name}: unknown architecture ({arch_name})"))?;
    for (field, kind) in [("procs", "array"), ("externs", "dict"), ("statics", "dict")] {
        let o = d.get_name(field).ok_or_else(|| format!("module {name}: table has no /{field}"))?;
        let ok = match kind {
            "array" => o.as_array().is_ok(),
            _ => o.as_dict().is_ok(),
        };
        if !ok {
            return Err(format!("module {name}: /{field} is not a {kind}"));
        }
    }
    Ok(())
}

/// The architecture a validated unit dictionary names.
fn unit_arch(d: &DictRef) -> Option<Arch> {
    let d = d.borrow();
    let name = d.get_name("architecture")?.as_string().ok()?;
    Arch::from_name(&name)
}

/// Merge one healthy unit dictionary into the combined top-level symbol
/// dictionary: `procs`/`anchors` arrays concatenate, `externs`/`statics`/
/// `sourcemap` dictionaries union (later units win on collision, as in
/// the PostScript merge), `architecture` comes from the first unit.
fn merge_unit_into(top: &DictRef, unit: &DictRef) {
    let u = unit.borrow();
    let mut t = top.borrow_mut();
    for field in ["procs", "anchors"] {
        if let Some(src) = u.get_name(field).and_then(|o| o.as_array().ok()) {
            let dst = match t.get_name(field).and_then(|o| o.as_array().ok()) {
                Some(a) => a,
                None => {
                    let a = Rc::new(RefCell::new(Vec::new()));
                    t.put_name(field, Object::lit(Value::Array(Rc::clone(&a))));
                    a
                }
            };
            dst.borrow_mut().extend(src.borrow().iter().cloned());
        }
    }
    for field in ["externs", "statics", "sourcemap"] {
        if let Some(src) = u.get_name(field).and_then(|o| o.as_dict().ok()) {
            let dst = match t.get_name(field).and_then(|o| o.as_dict().ok()) {
                Some(d) => d,
                None => {
                    let d = Rc::new(RefCell::new(Dict::new(64)));
                    t.put_name(field, Object::lit(Value::Dict(Rc::clone(&d))));
                    d
                }
            };
            let mut dd = dst.borrow_mut();
            for (k, v) in src.borrow().iter() {
                dd.put(k.clone(), v.clone());
            }
        }
    }
    if t.get_name("architecture").is_none() {
        if let Some(a) = u.get_name("architecture") {
            let a = a.clone();
            t.put_name("architecture", a);
        }
    }
}
