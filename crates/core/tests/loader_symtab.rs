//! Unit-level tests for the loader and symbol-table operations, using
//! hand-written loader tables (no compiler involved).

use std::cell::RefCell;
use std::rc::Rc;

use ldb_core::amemory::{AbstractMemory, FakeMemory};
use ldb_core::psops::{make_debug_dict, EvalCtx};
use ldb_core::{symtab, Loader, ModuleCache};
use ldb_postscript::{Budget, Interp};

const HAND_TABLE: &str = r#"
<< /symtab
   /S1 << /name (x) /type << /decl (int %s) /printer {INT} >> /sourcefile (t.c)
          /sourcey 1 /sourcex 5 /kind (variable)
          /where {(_stanchor_t) 2 LazyData} >> def
   /S2 << /name (f) /type << /decl (int %s()) >> /sourcefile (t.c) /sourcey 2 /sourcex 5
          /kind (procedure)
          /loci [ [2 7 {(_stanchor_t) 0 LazyAddr} S1] [3 1 {(_stanchor_t) 1 LazyAddr} S1] ] >> def
   << /procs [ S2 ] /externs << /f S2 /x S1 >> /statics << >>
      /sourcemap << (t.c) [ S2 ] >> /anchors [ /_stanchor_t ]
      /architecture (vax) >>
   /anchormap << /_stanchor_t 16#4000 >>
   /proctable [ 16#1000 (__start) 16#1040 (_f) ]
>>
"#;

/// Load a whole loader table: a frame with no separate modules.
fn load(interp: &mut Interp, table: &str) -> ldb_postscript::PsResult<Loader> {
    Loader::load_plan_compiled(interp, table, &[], &ModuleCache::new(), Budget::LOAD)
}

fn setup() -> (Interp, Loader, Rc<FakeMemory>) {
    let mut interp = Interp::new();
    let ctx = Rc::new(RefCell::new(EvalCtx::new()));
    let dict = make_debug_dict(&mut interp, ctx.clone());
    interp.push_dict(dict);
    let fake = Rc::new(FakeMemory::default());
    // Anchor table: slot 0 = stop0 addr, slot 1 = stop1 addr, slot 2 = &x.
    fake.store('d', 0x4000, 4, 0x1044).unwrap();
    fake.store('d', 0x4004, 4, 0x1052).unwrap();
    fake.store('d', 0x4008, 4, 0x5000).unwrap();
    fake.store('d', 0x5000, 4, 77).unwrap();
    ctx.borrow_mut().mem = Some(fake.clone());
    ctx.borrow_mut().anchors.insert("_stanchor_t".into(), 0x4000);
    let loader = load(&mut interp, HAND_TABLE).unwrap();
    (interp, loader, fake)
}

#[test]
fn loader_components() {
    let (_i, loader, _) = setup();
    assert_eq!(loader.arch, ldb_machine::Arch::Vax);
    assert_eq!(loader.anchors["_stanchor_t"], 0x4000);
    assert_eq!(loader.proc_addr("_f"), Some(0x1040));
    assert_eq!(loader.proc_containing(0x1045).map(|(a, n)| (a, n.to_string())),
               Some((0x1040, "_f".to_string())));
    assert_eq!(loader.proc_containing(0xfff), None);
    assert!(loader.proc_entry_by_name("f").is_some());
    assert!(loader.proc_entry_by_name("g").is_none());
    assert_eq!(loader.procs().len(), 1);
}

#[test]
fn stop_addresses_resolve_lazily_and_memoize() {
    let (mut i, loader, _) = setup();
    let f = loader.proc_entry_by_name("f").unwrap();
    assert_eq!(symtab::stop_addr(&mut i, &f, 0).unwrap(), 0x1044);
    assert_eq!(symtab::stop_addr(&mut i, &f, 1).unwrap(), 0x1052);
    // Memoized: the loci element now holds a literal integer.
    assert_eq!(symtab::stop_addr(&mut i, &f, 0).unwrap(), 0x1044);
    assert!(symtab::stop_addr(&mut i, &f, 9).is_err());
    // Reverse lookup.
    let (entry, idx) = symtab::stop_at_addr(&mut i, &loader, 0x1052).unwrap().unwrap();
    assert_eq!(idx, 1);
    assert_eq!(symtab::entry_name(&entry).unwrap(), "f");
    assert!(symtab::stop_at_addr(&mut i, &loader, 0x1046).unwrap().is_none());
}

#[test]
fn loci_and_line_lookup() {
    let (mut i, loader, _) = setup();
    let f = loader.proc_entry_by_name("f").unwrap();
    let loci = symtab::loci_of(&mut i, &f).unwrap();
    assert_eq!(loci.len(), 2);
    assert_eq!((loci[0].line, loci[0].col), (2, 7));
    let stops = symtab::stops_at_line(&mut i, &loader, 3).unwrap();
    assert_eq!(stops.len(), 1);
    assert_eq!(stops[0].1, 1);
    assert!(symtab::stops_at_line(&mut i, &loader, 99).unwrap().is_empty());
}

#[test]
fn name_resolution_walks_uplinks_then_statics_then_externs() {
    let (mut i, loader, _) = setup();
    let f = loader.proc_entry_by_name("f").unwrap();
    // x is the visible symbol at both stops.
    let e = symtab::resolve_name(&mut i, &loader, &f, 0, "x").unwrap().unwrap();
    assert_eq!(symtab::entry_name(&e).unwrap(), "x");
    // f resolves through externs.
    assert!(symtab::resolve_name(&mut i, &loader, &f, 0, "f").unwrap().is_some());
    assert!(symtab::resolve_name(&mut i, &loader, &f, 0, "nope").unwrap().is_none());
    let chain = symtab::visible_chain(&mut i, &f, 0).unwrap();
    assert_eq!(chain, vec!["x".to_string()]);
}

#[test]
fn where_resolution_through_the_anchor_table() {
    let (mut i, loader, fake) = setup();
    let x = loader.proc_entry_by_name("x").unwrap();
    i.push(x.clone());
    i.run_str("SymLoc").unwrap();
    let loc = i.pop().unwrap().as_location().unwrap();
    assert_eq!(loc, ldb_postscript::Location::Addr { space: 'd', offset: 0x5000 });
    // And the value there is fetchable.
    assert_eq!(fake.fetch('d', 0x5000, 4).unwrap(), 77);
}

#[test]
fn malformed_tables_are_rejected() {
    for bad in [
        "42",                                     // not a dict
        "<< /anchormap << >> /proctable [ ] >>",  // missing symtab
        "<< /symtab << >> /proctable [ ] >>",     // missing anchormap
        "<< /symtab << >> /anchormap << >> >>",   // missing proctable
        "<< /symtab << /architecture (pdp11) /procs [ ] >> /anchormap << >> /proctable [ ] >>",
    ] {
        let mut i = Interp::new();
        let ctx = Rc::new(RefCell::new(EvalCtx::new()));
        let d = make_debug_dict(&mut i, ctx);
        i.push_dict(d);
        assert!(load(&mut i, bad).is_err(), "{bad}");
    }
}
