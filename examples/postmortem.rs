//! Post-mortem debugging of a faulting process — and surviving a debugger
//! crash.
//!
//! "Since the nub is always loaded with the target program, it can catch
//! unexpected faults and wait for a connection from ldb; the target
//! program need not be a child of the debugger." And: "even by a debugger
//! crash, the nub preserves the state of the target program and waits for
//! a new connection from another instance of ldb."
//!
//! Run with: `cargo run --example postmortem`

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::{nm, pssym};
use ldb_core::{shared_module_cache, AttachOpts, Ldb, StopEvent};
use ldb_machine::Arch;
use ldb_nub::NubConfig;

const SRC: &str = r#"
int values[8];
int pick(int *table, int idx) { return table[idx]; }
int broken(int k) {
    int *p;
    p = 0;
    if (k > 3) p = values;
    return pick(p, k);
}
int main(void) {
    int i;
    for (i = 0; i < 8; i++) values[i] = i * i;
    return broken(2);
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = Arch::Sparc;
    let c = compile("broken.c", SRC, arch, CompileOpts::default())?;
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&c.linked.image, &symtab);

    // The program starts on its own — no debugger anywhere near it.
    let nub = ldb_nub::spawn(&c.linked.image, NubConfig::default());
    std::thread::sleep(std::time::Duration::from_millis(50));
    println!("program started without a debugger... and has now crashed.");

    // A debugger connects to the faulted process (the "network" path).
    let mut ldb = Ldb::new();
    let wire = nub.connect_channel().unwrap();
    ldb.attach(Box::new(wire), &loader, &[], shared_module_cache(), None, AttachOpts::default())?;
    let t = ldb.target(0);
    let stop = t.stop.expect("stopped at the fault");
    println!("attached: signal {:?}, faulting address {:#x}", stop.sig, stop.code);

    print!("backtrace:");
    for (lvl, name, pc, _) in ldb.backtrace().0 {
        print!("  #{lvl} {name} (pc={pc:#x})");
    }
    println!();
    println!("in pick: idx = {}", ldb.print_var("idx")?);
    println!("in pick: table = {}", ldb.print_var("table")?);
    ldb.select_frame(1)?;
    println!("in broken (frame 1): k = {}", ldb.print_var("k")?);

    // Simulate a debugger crash: drop the session without detaching.
    drop(ldb);
    std::thread::sleep(std::time::Duration::from_millis(30));
    println!("debugger crashed! the nub preserves the target's state...");

    // A second ldb picks the target up where the first left it.
    let mut ldb2 = Ldb::new();
    let wire = nub.connect_channel().unwrap();
    ldb2.attach(Box::new(wire), &loader, &[], shared_module_cache(), None, AttachOpts::default())?;
    println!("new debugger attached; k is still {}", {
        ldb2.select_frame(1)?;
        ldb2.print_var("k")?
    });

    // Repair the damage from the new debugger: steer the pointer to the
    // real table, rewind the pc to the statement's stopping point so the
    // faulting statement re-executes from scratch, and let the program
    // finish.
    ldb2.select_frame(0)?;
    println!("patching `table` to &values[0] and re-running the statement...");
    let values_addr = c.linked.data_addrs["_values"];
    ldb2.eval(&format!("table = (int *){values_addr}"))?;
    let retry = ldb2.stop_address("pick", 1)?; // the `return table[idx]`
    ldb2.set_pc(retry)?;
    match ldb2.cont()? {
        StopEvent::Exited(code) => println!("program resumed and exited with {code} (= 2*2)"),
        other => println!("unexpected: {other:?}"),
    }
    Ok(())
}
