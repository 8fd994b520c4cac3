//! Compiled symbol-table modules: scan once, run many times.
//!
//! Hanson's follow-up to the paper (*A Machine-Independent
//! Debugger—Revisited*, MSR-TR-99-4) abandoned re-reading symbol-table
//! PostScript on every connect because scanning dominated load time. This
//! module keeps the PostScript *source* format but compiles a scanned
//! module into a flat, interned bytecode ([`CompiledModule`]) that can be
//! executed repeatedly — and, because it is immutable and `Send + Sync`,
//! shared read-only between debugger sessions through a [`ModuleCache`].
//!
//! The executor ([`CompiledModule::run`]) charges exactly the fuel and
//! allocation the scanner-driven path ([`Interp::run_token`]) charges, so
//! the artifact sandbox's budgets and trace records are unchanged; it
//! additionally memoizes dictionary-stack lookups for names the module
//! provably cannot rebind (see [`compile_module`] for the soundness
//! analysis). Lookup caches live for one run only, so machine-dependent
//! names (`Regset0`, `&wordsize`, …) still rebind per architecture.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{ErrorKind, PsError, PsResult};
use crate::interp::Interp;
use crate::object::{Object, Value};
use crate::scanner::Scanner;

/// One compiled instruction. Strings, names, and procedure bodies are
/// indices into the owning [`CompiledModule`]'s interned tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push a literal integer.
    Int(i64),
    /// Push a literal real.
    Real(f64),
    /// Push the interned string (charged like a freshly scanned string).
    Str(u32),
    /// Push the interned name as a literal (`/name`).
    LitName(u32),
    /// Look up and execute the interned name.
    ExecName(u32),
    /// Build and push procedure body `procs[i]` (charged like a freshly
    /// scanned procedure token).
    Proc(u32),
}

#[derive(Debug)]
struct NameEntry {
    text: Arc<str>,
    /// May a per-run lookup cache serve this name? False for any name the
    /// module could rebind mid-run (see [`compile_module`]).
    cacheable: bool,
}

/// A module's symbol-table PostScript, compiled: the top-level token
/// stream as instructions plus interned string/name/procedure tables.
///
/// The value is immutable after compilation and holds only `Arc`-interned
/// data, so it is `Send + Sync`: a daemon's tenants attached to the same
/// binary share one compile through a [`ModuleCache`]. The original
/// source is retained for the quarantine record of a module that later
/// faults under its budget.
#[derive(Debug)]
pub struct CompiledModule {
    strings: Vec<Arc<str>>,
    names: Vec<NameEntry>,
    procs: Vec<Vec<Instr>>,
    top: Vec<Instr>,
    /// Byte offset just past each top-level instruction's source token
    /// (error provenance: "module X near byte N", matching the scanner).
    top_pos: Vec<u32>,
    source: Arc<str>,
    architecture: Option<String>,
}

impl CompiledModule {
    /// The original PostScript source (kept for quarantine records).
    pub fn source(&self) -> &Arc<str> {
        &self.source
    }

    /// The architecture the module's header names (`/architecture (…)`),
    /// extracted statically so a lazy loader can type-check modules at
    /// connect without executing them.
    pub fn architecture(&self) -> Option<&str> {
        self.architecture.as_deref()
    }

    /// Execute the compiled module.
    ///
    /// # Errors
    /// Exactly the errors the scanner-driven execution of the same source
    /// raises, including budget trips (fuel/alloc charges match
    /// [`Interp::run_token`]).
    pub fn run(&self, interp: &mut Interp) -> PsResult<()> {
        self.run_inner(interp).map_err(|(e, _)| e)
    }

    /// As [`CompiledModule::run`], wrapping errors with module-name and
    /// byte-offset provenance like the loader's scanner path does.
    ///
    /// # Errors
    /// As [`CompiledModule::run`].
    pub fn run_with_provenance(&self, interp: &mut Interp, name: &str) -> PsResult<()> {
        self.run_inner(interp)
            .map_err(|(e, pos)| e.with_context(name, Some(pos as u64)))
    }

    fn run_inner(&self, interp: &mut Interp) -> Result<(), (PsError, u32)> {
        let mut thaw = Thaw::new(self);
        for (i, instr) in self.top.iter().enumerate() {
            if let Err(e) = self.step(interp, *instr, &mut thaw) {
                return Err((e, self.top_pos[i]));
            }
        }
        Ok(())
    }

    /// Execute one top-level instruction with scanner-path charging:
    /// one step of fuel per token, plus `len+16` bytes for a string and
    /// `32·len+16` bytes for a procedure token (nested bodies uncharged,
    /// exactly as a scanned procedure token is accounted).
    fn step(&self, interp: &mut Interp, instr: Instr, thaw: &mut Thaw) -> PsResult<()> {
        interp.charge_step()?;
        match instr {
            Instr::Int(v) => {
                interp.push(Object::int(v));
                Ok(())
            }
            Instr::Real(v) => {
                interp.push(Object::real(v));
                Ok(())
            }
            Instr::Str(i) => {
                let s = thaw.string(self, i);
                interp.charge_alloc(s.len() as u64 + 16)?;
                interp.push(Object::lit(Value::String(s)));
                Ok(())
            }
            Instr::LitName(i) => {
                interp.push(Object::lit(Value::Name(thaw.name(self, i))));
                Ok(())
            }
            Instr::ExecName(i) => {
                let found = thaw.lookup(self, i, interp)?;
                interp.enter()?;
                let r = interp.exec_object(&found);
                interp.leave();
                r
            }
            Instr::Proc(i) => {
                let body_len = self.procs[i as usize].len() as u64;
                interp.charge_alloc(32 * body_len + 16)?;
                let proc = thaw.thaw_proc(self, i);
                interp.push(proc);
                Ok(())
            }
        }
    }
}

/// Per-run thaw state: `Rc` copies of interned strings/names (made at
/// most once per index per run) and the lookup memo for cacheable names.
/// Dropped at the end of the run, so nothing `Rc`-based outlives the
/// session that thawed it and every run re-resolves machine-dependent
/// names against the current dictionary stack.
struct Thaw {
    strings: Vec<Option<Rc<str>>>,
    names: Vec<Option<Rc<str>>>,
    looked: Vec<Option<Object>>,
}

impl Thaw {
    fn new(m: &CompiledModule) -> Thaw {
        Thaw {
            strings: vec![None; m.strings.len()],
            names: vec![None; m.names.len()],
            looked: vec![None; m.names.len()],
        }
    }

    fn string(&mut self, m: &CompiledModule, i: u32) -> Rc<str> {
        let slot = &mut self.strings[i as usize];
        match slot {
            Some(s) => Rc::clone(s),
            None => {
                let s: Rc<str> = Rc::from(&*m.strings[i as usize]);
                *slot = Some(Rc::clone(&s));
                s
            }
        }
    }

    fn name(&mut self, m: &CompiledModule, i: u32) -> Rc<str> {
        let slot = &mut self.names[i as usize];
        match slot {
            Some(s) => Rc::clone(s),
            None => {
                let s: Rc<str> = Rc::from(&*m.names[i as usize].text);
                *slot = Some(Rc::clone(&s));
                s
            }
        }
    }

    fn lookup(&mut self, m: &CompiledModule, i: u32, interp: &Interp) -> PsResult<Object> {
        let entry = &m.names[i as usize];
        if entry.cacheable {
            if let Some(o) = &self.looked[i as usize] {
                return Ok(o.clone());
            }
            let found = interp.lookup(&entry.text)?;
            self.looked[i as usize] = Some(found.clone());
            return Ok(found);
        }
        interp.lookup(&entry.text)
    }

    fn thaw_proc(&mut self, m: &CompiledModule, i: u32) -> Object {
        let body = &m.procs[i as usize];
        let mut out = Vec::with_capacity(body.len());
        for instr in body {
            out.push(match *instr {
                Instr::Int(v) => Object::int(v),
                Instr::Real(v) => Object::real(v),
                Instr::Str(j) => Object::lit(Value::String(self.string(m, j))),
                Instr::LitName(j) => Object::lit(Value::Name(self.name(m, j))),
                Instr::ExecName(j) => Object::ex(Value::Name(self.name(m, j))),
                Instr::Proc(j) => self.thaw_proc(m, j),
            });
        }
        Object::proc(out)
    }
}

/// Exec names whose presence anywhere in a module disables lookup
/// caching for the whole module: `begin`/`end` change the dictionary
/// stack mid-run, and `cvn` can mint names from computed strings.
const DYNAMIC_MARKERS: [&str; 3] = ["begin", "end", "cvn"];

struct Compiler {
    strings: Vec<Arc<str>>,
    string_index: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
    name_index: HashMap<Arc<str>, u32>,
    /// Per name: may the module rebind it? True for names it uses as
    /// literal names (`/x`, potential `def` targets) and — marked once
    /// the whole module is scanned ([`Compiler::mark_string_words`]) —
    /// names hidden as words in string literals, behind which deferred
    /// code (`(…) cvx`) and `cvn` arguments hide. Lookups of these
    /// names are never cached.
    rebindable: Vec<bool>,
    procs: Vec<Vec<Instr>>,
    /// Set when a [`DYNAMIC_MARKERS`] name appears: no caching at all.
    dynamic: bool,
}

impl Compiler {
    fn new() -> Compiler {
        Compiler {
            strings: Vec::new(),
            string_index: HashMap::new(),
            names: Vec::new(),
            name_index: HashMap::new(),
            rebindable: Vec::new(),
            procs: Vec::new(),
            dynamic: false,
        }
    }

    fn intern_string(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.string_index.get(s) {
            return i;
        }
        let a: Arc<str> = Arc::from(s);
        let i = self.strings.len() as u32;
        self.strings.push(Arc::clone(&a));
        self.string_index.insert(a, i);
        i
    }

    fn intern_name(&mut self, n: &str) -> u32 {
        if let Some(&i) = self.name_index.get(n) {
            return i;
        }
        let a: Arc<str> = Arc::from(n);
        let i = self.names.len() as u32;
        self.names.push(Arc::clone(&a));
        self.name_index.insert(a, i);
        self.rebindable.push(false);
        i
    }

    /// Mark every name that appears as a word in some string literal
    /// rebindable. Run once after the scan: a lookup per word of each
    /// distinct string, and no per-word allocation.
    fn mark_string_words(&mut self) {
        for s in &self.strings {
            for word in s.split(|c: char| !is_word_char(c)) {
                if let Some(&i) = self.name_index.get(word.trim_start_matches('/')) {
                    self.rebindable[i as usize] = true;
                }
            }
        }
    }

    fn compile_token(&mut self, tok: &Object) -> PsResult<Instr> {
        match (&tok.val, tok.exec) {
            (Value::Int(v), _) => Ok(Instr::Int(*v)),
            (Value::Real(v), _) => Ok(Instr::Real(*v)),
            (Value::String(s), false) => Ok(Instr::Str(self.intern_string(s))),
            (Value::Name(n), false) => {
                let i = self.intern_name(n);
                self.rebindable[i as usize] = true;
                Ok(Instr::LitName(i))
            }
            (Value::Name(n), true) => {
                if DYNAMIC_MARKERS.contains(&n.as_ref()) {
                    self.dynamic = true;
                }
                Ok(Instr::ExecName(self.intern_name(n)))
            }
            (Value::Array(a), true) => {
                let src = a.borrow();
                let mut body = Vec::with_capacity(src.len());
                for el in src.iter() {
                    body.push(self.compile_token(el)?);
                }
                let i = self.procs.len() as u32;
                self.procs.push(body);
                Ok(Instr::Proc(i))
            }
            _ => Err(PsError::runtime(
                ErrorKind::SyntaxError,
                format!("cannot compile token {:?}", tok.val),
            )),
        }
    }
}

/// Characters that can appear in a PostScript name; everything else
/// splits words when mining string literals for hidden name references.
fn is_word_char(c: char) -> bool {
    !c.is_whitespace() && !matches!(c, '(' | ')' | '<' | '>' | '[' | ']' | '{' | '}' | '%')
}

/// Compile one module's symbol-table PostScript: a single scanner pass
/// (bounded by the scanner's own token/nesting caps — no interpretation,
/// no fuel), producing an immutable, shareable [`CompiledModule`].
///
/// Lookup-cache soundness: a per-run memo may serve an executable name's
/// lookup only if the module cannot rebind that name mid-run. A module
/// can only rebind names it mentions as literal names (`/x … def`),
/// names hidden in string literals (deferred `(…) cvx` bodies, `cvn`
/// arguments), or — if it uses `begin`/`end` — anything, by shifting the
/// dictionary stack. So caching is disabled per-name for the first two
/// sets and module-wide for the third. Every other name (operators,
/// frame procedures like `Regset0`) resolves identically throughout one
/// run; across runs the memo is rebuilt, so per-architecture rebinding
/// still works.
///
/// # Errors
/// Scanner errors (syntax, token caps) from the single pass, carrying
/// `name` and the byte offset the scanner had reached ("module X near
/// byte N"), as run-time errors do.
pub fn compile_module(name: &str, source: &str) -> PsResult<CompiledModule> {
    let mut c = Compiler::new();
    let mut sc = Scanner::from_str(source);
    let mut top = Vec::new();
    let mut top_pos = Vec::new();
    let mut scan = || -> PsResult<()> {
        while let Some(tok) = sc.next_token()? {
            top.push(c.compile_token(&tok)?);
            top_pos.push(sc.position().min(u32::MAX as u64) as u32);
        }
        Ok(())
    };
    scan().map_err(|e| e.with_context(name, Some(sc.position())))?;
    // The unit header, statically: `/architecture (name)` adjacency in
    // the top-level stream.
    let mut architecture = None;
    for w in top.windows(2) {
        if let [Instr::LitName(n), Instr::Str(s)] = w {
            if &*c.names[*n as usize] == "architecture" {
                architecture = Some(c.strings[*s as usize].to_string());
                break;
            }
        }
    }
    c.mark_string_words();
    let names = c
        .names
        .iter()
        .zip(&c.rebindable)
        .map(|(text, &rebindable)| NameEntry {
            cacheable: !c.dynamic && !rebindable,
            text: Arc::clone(text),
        })
        .collect();
    Ok(CompiledModule {
        strings: c.strings,
        names,
        procs: c.procs,
        top,
        top_pos,
        source: Arc::from(source),
        architecture,
    })
}

/// Aggregate [`ModuleCache`] counters, for daemon-level health reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (a compile somebody else paid for).
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Distinct modules currently interned (a compile in flight included).
    pub entries: usize,
}

/// A shared, read-only cache of compiled modules, keyed by source
/// content (FNV-1a hash plus length, so a hash collision cannot alias
/// two modules of different sizes). Entries are immutable after their
/// budget-checked compile — that is the trust boundary that lets N
/// sessions share one entry: nothing a session does at run time can
/// write through the `Arc`.
///
/// The value is a handle: clones share one set of entries and counters.
#[derive(Debug, Default, Clone)]
pub struct ModuleCache {
    shared: Arc<Shared>,
}

/// One key's entry: empty until its single compile fills it.
type Slot = Arc<Mutex<Option<Arc<CompiledModule>>>>;

#[derive(Debug, Default)]
struct Shared {
    entries: Mutex<HashMap<(u64, usize), Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModuleCache {
    /// An empty cache.
    pub fn new() -> ModuleCache {
        ModuleCache::default()
    }

    /// The compiled form of `source`, compiling at most once per distinct
    /// content. Returns the module and whether it was served from cache.
    /// `name` labels compile errors only; it is not part of the key.
    ///
    /// Single-flight: concurrent callers for one key wait on that key's
    /// slot while the first of them compiles, then share its result (and
    /// count as hits). Callers for other keys are not held up — the map
    /// lock is only taken to find the slot.
    ///
    /// # Errors
    /// Compile (scanner) errors; failed compiles are not cached, so a
    /// transiently corrupt artifact does not poison the key.
    pub fn get_or_compile(&self, name: &str, source: &str) -> PsResult<(Arc<CompiledModule>, bool)> {
        let key = (ldb_trace::fnv1a(source.as_bytes()), source.len());
        let slot = Arc::clone(lock(&self.shared.entries).entry(key).or_default());
        let mut filled = lock(&slot);
        if let Some(m) = &*filled {
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(m), true));
        }
        match compile_module(name, source) {
            Ok(m) => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                let m = Arc::new(m);
                *filled = Some(Arc::clone(&m));
                Ok((m, false))
            }
            Err(e) => {
                drop(filled);
                // Drop the empty slot unless another caller still waits
                // on it (that caller compiles for itself, and the last
                // one out removes it). Only the map and this caller
                // holding the slot means it is still the key's entry.
                let mut entries = lock(&self.shared.entries);
                if Arc::strong_count(&slot) == 2 {
                    entries.remove(&key);
                }
                Err(e)
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            entries: lock(&self.shared.entries).len(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;

    fn send_sync<T: Send + Sync>() {}

    #[test]
    fn compiled_module_is_shareable() {
        send_sync::<CompiledModule>();
        send_sync::<ModuleCache>();
    }

    /// Compiled execution must be observably identical to scanning:
    /// same stack, same output, same fuel and allocation charges.
    fn assert_equivalent(src: &str) {
        let (mut eager, eager_out) = Interp::new_capturing();
        let save = eager.push_budget(Budget::LOAD);
        let mut sc = Scanner::from_str(src);
        while let Some(t) = sc.next_token().unwrap() {
            eager.run_token(&t).unwrap();
        }
        let eager_fuel = eager.fuel_used();
        let eager_alloc = eager.alloc_used();
        eager.pop_budget(save);

        let m = compile_module("t.c", src).unwrap();
        let (mut fast, fast_out) = Interp::new_capturing();
        let save = fast.push_budget(Budget::LOAD);
        m.run(&mut fast).unwrap();
        assert_eq!(fast.fuel_used(), eager_fuel, "fuel diverged on {src:?}");
        assert_eq!(fast.alloc_used(), eager_alloc, "alloc diverged on {src:?}");
        fast.pop_budget(save);

        assert_eq!(&*eager_out.borrow(), &*fast_out.borrow(), "output diverged on {src:?}");
        assert_eq!(eager.depth(), fast.depth(), "stack depth diverged on {src:?}");
        for i in 0..eager.depth() {
            let (a, b) = (eager.peek(i).unwrap(), fast.peek(i).unwrap());
            assert_eq!(a.to_syntactic(), b.to_syntactic(), "stack diverged on {src:?}");
        }
    }

    #[test]
    fn equivalence_on_core_programs() {
        assert_equivalent("1 2 add 3 mul");
        assert_equivalent("/x 42 def x x add");
        assert_equivalent("/double {2 mul} def 21 double");
        assert_equivalent("/f {true {1} {2} ifelse} def f");
        assert_equivalent("(3 4 add) cvx exec");
        assert_equivalent("<< /a 1 /b (two) >> /b get");
        assert_equivalent("[ 1 2 3 ] length");
        assert_equivalent("1.5 2 add ==");
        assert_equivalent("/S1 << /name (v) /printer {pop (v) Put} >> def S1 /name get ==");
    }

    #[test]
    fn equivalence_when_module_rebinds_names() {
        // `x` is rebound mid-stream: the literal-name analysis must keep
        // its lookups uncached so the second read sees 2.
        assert_equivalent("/x 1 def x /x 2 def x add");
        // `begin` shifts the dictionary stack: caching disabled wholesale.
        assert_equivalent(
            "/d 4 dict def d /v 7 put /v 1 def d begin v end v add",
        );
        // Deferred code hidden in a string redefines a name.
        assert_equivalent("/g 1 def (/g 2 def) cvx exec g");
    }

    #[test]
    fn errors_keep_provenance() {
        let m = compile_module("t.c", "1 2 add no_such_name").unwrap();
        let mut i = Interp::new();
        let e = m.run_with_provenance(&mut i, "t.c").unwrap_err();
        match e {
            PsError::Runtime(r) => {
                assert_eq!(r.kind, ErrorKind::Undefined);
                assert!(r.detail.starts_with("module t.c near byte "), "{}", r.detail);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn budget_trips_match_the_scanner_path() {
        let src = "/f {f} def 1 1 1000000 {pop} for";
        let m = compile_module("t.c", src).unwrap();
        let mut i = Interp::new();
        let b = Budget { max_fuel: 10_000, ..Budget::UNLIMITED };
        let e = i.with_budget(b, |i| m.run(i)).unwrap_err();
        assert!(matches!(&e, PsError::Runtime(r) if r.kind == ErrorKind::Timeout), "{e}");
    }

    #[test]
    fn header_is_extracted_statically() {
        let m = compile_module(
            "t.c",
            "<< /procs [ ] /externs 2 dict /statics 2 dict /architecture (mips) >>",
        )
        .unwrap();
        assert_eq!(m.architecture(), Some("mips"));
        let m = compile_module("t.c", "1 2 add").unwrap();
        assert_eq!(m.architecture(), None);
    }

    #[test]
    fn cache_compiles_once_per_content() {
        let cache = ModuleCache::new();
        let (a, hit_a) = cache.get_or_compile("t.c", "1 2 add").unwrap();
        let (b, hit_b) = cache.get_or_compile("t.c", "1 2 add").unwrap();
        let (_, hit_c) = cache.get_or_compile("t.c", "3 4 add").unwrap();
        assert!(!hit_a && hit_b && !hit_c);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
    }

    #[test]
    fn cache_does_not_retain_failed_compiles() {
        let cache = ModuleCache::new();
        assert!(cache.get_or_compile("t.c", "(unterminated").is_err());
        assert!(cache.get_or_compile("t.c", "(unterminated").is_err());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn compile_errors_keep_provenance() {
        let e = compile_module("t.c", "1 2 add (unterminated").unwrap_err();
        match e {
            PsError::Runtime(r) => {
                assert_eq!(r.kind, ErrorKind::SyntaxError);
                assert!(r.detail.starts_with("module t.c near byte "), "{}", r.detail);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_misses_on_one_key_compile_once() {
        const THREADS: usize = 8;
        let cache = ModuleCache::new();
        let barrier = std::sync::Barrier::new(THREADS);
        let src = "/S1 << /name (v) /printer {pop (v) Put} >> def ".repeat(200);
        let got: Vec<Arc<CompiledModule>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_compile("t.c", &src).unwrap().0
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, THREADS as u64 - 1, 1));
        assert!(got.iter().all(|m| Arc::ptr_eq(m, &got[0])));
    }

    #[test]
    fn thawed_procs_are_fresh_per_run() {
        // Two runs of the same compiled module must not share mutable
        // arrays: a printer proc captured by the first session's dicts
        // must not alias the second's.
        let m = compile_module("t.c", "/p {1 2 add} def").unwrap();
        let mut i1 = Interp::new();
        m.run(&mut i1).unwrap();
        let mut i2 = Interp::new();
        m.run(&mut i2).unwrap();
        let p1 = i1.lookup("p").unwrap().as_array().unwrap();
        let p2 = i2.lookup("p").unwrap().as_array().unwrap();
        assert!(!Rc::ptr_eq(&p1, &p2));
    }
}
