//! The `nm` analog and loader-table generation (paper, Sec. 3).
//!
//! "After linking a program, the driver uses the UNIX program nm to
//! generate PostScript that, when interpreted, builds a loader table."
//! The loader table contains the program's top-level dictionary, a
//! dictionary mapping anchor-symbol names to addresses, and an array of
//! (address, name) pairs for each procedure. Using `nm` output keeps ldb
//! independent of object-file formats.

use std::fmt::Write as _;

use ldb_machine::Image;

/// Render the symbol table the way `nm` prints it: address, kind letter,
/// name — sorted by name, as `nm` sorts.
pub fn nm_text(image: &Image) -> String {
    let mut syms: Vec<_> = image.symbols.iter().collect();
    syms.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    for s in syms {
        let _ = writeln!(out, "{:08x} {} {}", s.addr, s.kind.nm_letter(), s.name);
    }
    out
}

/// Generate the loader-table PostScript from `nm`-style output plus the
/// unit's symbol-table PostScript. Interpreting the result leaves the
/// loader table (a dictionary) on the operand stack.
pub fn loader_table_ps(nm_output: &str, symtab_ps: &str) -> String {
    let mut anchors = String::new();
    let mut procs: Vec<(u32, String)> = Vec::new();
    for line in nm_output.lines() {
        let mut parts = line.split_whitespace();
        let (Some(addr), Some(kind), Some(name)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let Ok(addr) = u32::from_str_radix(addr, 16) else { continue };
        if name.starts_with("_stanchor") || name == "__rpt" {
            let _ = write!(anchors, " /{name} 16#{addr:08x}");
        } else if kind == "T" {
            procs.push((addr, name.to_string()));
        }
    }
    procs.sort();
    let mut proctable = String::new();
    for (addr, name) in &procs {
        let _ = write!(proctable, " 16#{addr:08x} ({name})");
    }
    format!(
        "<< /symtab\n{symtab_ps}\n/anchormap <<{anchors} >> /proctable [{proctable} ] >>\n"
    )
}

/// Convenience: loader table straight from an image (runs `nm` internally).
pub fn loader_table_for(image: &Image, symtab_ps: &str) -> String {
    loader_table_ps(&nm_text(image), symtab_ps)
}

/// A loader table for a multi-unit program: loads each unit's symbol
/// table, then merges their top-level dictionaries with PostScript code —
/// the combined dictionary the paper describes ("any combination of
/// compilation units, up to an entire program").
pub fn loader_table_for_units(image: &Image, unit_ps: &[String]) -> String {
    if unit_ps.len() == 1 {
        return loader_table_for(image, &unit_ps[0]);
    }
    let mut merged = String::new();
    let _ = writeln!(merged, "/__MrgPut {{ 2 index 3 1 roll put }} def");
    for (i, ps) in unit_ps.iter().enumerate() {
        let _ = writeln!(merged, "/__Unit{i}
{ps}
def");
    }
    let splat = |field: &str| {
        let mut s = String::from("[");
        for i in 0..unit_ps.len() {
            s.push_str(&format!(" __Unit{i} /{field} get aload pop"));
        }
        s.push_str(" ]");
        s
    };
    let merge_dicts = |field: &str| {
        let mut s = format!("{} dict", unit_ps.len() * 16);
        for i in 0..unit_ps.len() {
            s.push_str(&format!(" __Unit{i} /{field} get {{ __MrgPut }} forall"));
        }
        s
    };
    let _ = writeln!(
        merged,
        "<< /procs {} /externs {} /statics {} /sourcemap {} /anchors {}          /architecture __Unit0 /architecture get >>",
        splat("procs"),
        merge_dicts("externs"),
        merge_dicts("statics"),
        merge_dicts("sourcemap"),
        splat("anchors"),
    );
    loader_table_ps(&nm_text(image), &merged)
}

/// Parse one `nm` line (exposed for the baseline debugger and tests).
pub fn parse_nm_line(line: &str) -> Option<(u32, char, &str)> {
    let mut parts = line.split_whitespace();
    let addr = u32::from_str_radix(parts.next()?, 16).ok()?;
    let kind = parts.next()?.chars().next()?;
    let name = parts.next()?;
    Some((addr, kind, name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOpts};
    use crate::pssym::{emit, PsMode};
    use ldb_machine::Arch;

    const SRC: &str = "static int s; int g; int main(void) { s = 1; return g; }";

    #[test]
    fn nm_output_shape() {
        let c = compile("t.c", SRC, Arch::Sparc, CompileOpts::default()).unwrap();
        let text = nm_text(&c.linked.image);
        assert!(text.contains(" T _main"), "{text}");
        assert!(text.contains(" D _g"), "{text}");
        assert!(text.contains(" d t_c.s"), "{text}");
        assert!(text.contains("_stanchor__V"), "{text}");
        for line in text.lines() {
            assert!(parse_nm_line(line).is_some(), "{line}");
        }
    }

    #[test]
    fn loader_table_builds_in_the_interpreter() {
        let c = compile("t.c", SRC, Arch::Vax, CompileOpts::default()).unwrap();
        let symtab = emit(&c.unit, &c.funcs, Arch::Vax, PsMode::Eager);
        let loader = loader_table_for(&c.linked.image, &symtab);
        let mut interp = ldb_postscript::Interp::new();
        interp.run_str("/Regset0 {/r exch} def /Frameoff {/l exch} def").unwrap();
        interp.run_str(&loader).unwrap();
        let dict = interp.pop().unwrap().as_dict().unwrap();
        let dict = dict.borrow();
        // The three components of the paper's loader table.
        let symtab = dict.get_name("symtab").unwrap().as_dict().unwrap();
        assert!(symtab.borrow().get_name("procs").is_some());
        let am = dict.get_name("anchormap").unwrap().as_dict().unwrap();
        assert_eq!(am.borrow().len(), 1);
        let pt = dict.get_name("proctable").unwrap().as_array().unwrap();
        // (address, name) pairs: at least __start and _main.
        assert!(pt.borrow().len() >= 4);
        // Anchor address matches the linker's.
        let (k, v) = am.borrow().iter().next().map(|(k, v)| (k.to_string(), v.clone())).unwrap();
        assert!(k.starts_with("/_stanchor"));
        assert_eq!(v.as_int().unwrap() as u32, c.linked.anchor_addr);
    }

    #[test]
    fn proctable_is_sorted_by_address() {
        let src = "int a(void){return 1;} int b(void){return 2;} int main(void){return a()+b();}";
        let c = compile("t.c", src, Arch::Mips, CompileOpts::default()).unwrap();
        let loader = loader_table_for(&c.linked.image, "<< >>");
        let mut interp = ldb_postscript::Interp::new();
        interp.run_str(&loader).unwrap();
        interp.run_str("/proctable get").unwrap();
        let pt = interp.pop().unwrap().as_array().unwrap();
        let pt = pt.borrow();
        let addrs: Vec<i64> = pt
            .iter()
            .step_by(2)
            .map(|o| o.as_int().unwrap())
            .collect();
        let mut sorted = addrs.clone();
        sorted.sort();
        assert_eq!(addrs, sorted);
        assert_eq!(pt.len() % 2, 0);
    }
}
