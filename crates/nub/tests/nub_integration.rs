//! End-to-end nub tests: real compiled programs under a nub, driven
//! through the wire protocol exactly as the debugger drives them.

use ldb_cc::driver::{compile, CompileOpts};
use ldb_machine::{Arch, ByteOrder};
use ldb_nub::{spawn, NubClient, NubConfig, NubEvent, Sig, TcpWire};

const FIB: &str = r#"void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    { int i;
      for (i=2; i<n; i++)
          a[i] = a[i-1] + a[i-2];
    }
    { int j;
      for (j=0; j<n; j++)
          printf("%d ", a[j]);
    }
    printf("\n");
}
int main(void) { fib(10); return 0; }
"#;

fn compiled(arch: Arch) -> ldb_cc::driver::Compiled {
    compile("fib.c", FIB, arch, CompileOpts::default()).unwrap()
}

fn attach(c: &ldb_cc::driver::Compiled) -> (ldb_nub::NubHandle, NubClient) {
    let h = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = h.connect_channel().unwrap();
    let client = NubClient::new(Box::new(wire));
    (h, client)
}

#[test]
fn pause_breakpoint_continue_exit_on_all_targets() {
    for arch in Arch::ALL {
        let c = compiled(arch);
        let d = arch.data();
        let (h, mut client) = attach(&c);

        // 1. The startup pause.
        let ev = client.wait_event().unwrap();
        let NubEvent::Stopped { sig: Sig::Pause, context, .. } = ev else {
            panic!("{arch}: {ev:?}");
        };
        assert_eq!(context, c.linked.context_addr, "{arch}");

        // 2. Plant a breakpoint at fib's stopping point 3 (a[0]=a[1]=1)
        //    by overwriting its no-op with the break pattern.
        let stop3 = c.linked.stop_addrs[0][3];
        let orig = client.fetch('c', stop3, d.insn_unit).unwrap();
        assert_eq!(orig as u32, d.nop_pattern, "{arch}: stop holds a no-op");
        client.plant(stop3, d.insn_unit, d.break_pattern as u64).unwrap();

        // 3. Continue; we must stop at the trap with pc = stop3.
        let ev = client.continue_and_wait().unwrap();
        let NubEvent::Stopped { sig: Sig::Trap, context, .. } = ev else {
            panic!("{arch}: {ev:?}");
        };
        let pc = client.fetch('d', context + d.ctx.pc_offset, 4).unwrap() as u32;
        assert_eq!(pc, stop3, "{arch}: stopped at the planted no-op");

        // 4. Resume: restore the no-op, bump the saved pc past it (the
        //    "interpret the no-op out of line" resume), re-plant.
        client.store('c', stop3, d.insn_unit, d.nop_pattern as u64).unwrap();
        client
            .store('d', context + d.ctx.pc_offset, 4, (stop3 + d.pc_advance as u32) as u64)
            .unwrap();
        let ev = client.continue_and_wait().unwrap();
        assert_eq!(ev, NubEvent::Exited(0), "{arch}");

        let m = h.join.join().unwrap();
        assert_eq!(m.output, "1 1 2 3 5 8 13 21 34 55 \n", "{arch}");
    }
}

#[test]
fn fetch_and_store_data_with_correct_byte_order() {
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let c = compile(
            "fib.c",
            FIB,
            Arch::Mips,
            CompileOpts { order: Some(order), ..Default::default() },
        )
        .unwrap();
        let (h, mut client) = attach(&c);
        client.wait_event().unwrap();

        // The static array `a` lives at a known data address.
        let a_addr = *c
            .linked
            .data_addrs
            .iter()
            .find(|(k, _)| k.contains(".a."))
            .unwrap()
            .1;
        // Regardless of target byte order, values travel little-endian:
        // store 0x11223344 and read it back.
        client.store('d', a_addr, 4, 0x11223344).unwrap();
        assert_eq!(client.fetch('d', a_addr, 4).unwrap(), 0x11223344);
        // Sub-word fetches honour the target's byte order in memory.
        let b0 = client.fetch('d', a_addr, 1).unwrap() as u8;
        match order {
            ByteOrder::Big => assert_eq!(b0, 0x11),
            ByteOrder::Little => assert_eq!(b0, 0x44),
        }
        client.kill().unwrap();
        h.join.join().unwrap();
    }
}

#[test]
fn faulting_program_waits_for_a_debugger() {
    // A program that dereferences null: the nub catches the fault and
    // waits for a connection — the target was never a child of the
    // debugger.
    let src = "int main(void) { int *p; p = 0; return *p; }";
    let c = compile("crash.c", src, Arch::Sparc, CompileOpts::default()).unwrap();
    let h = spawn(&c.linked.image, NubConfig { wait_at_pause: false, ..Default::default() });
    // Give it time to fault with nobody attached.
    std::thread::sleep(std::time::Duration::from_millis(30));
    // Now a debugger connects — and learns about the segfault.
    let wire = h.connect_channel().unwrap();
    let mut client = NubClient::new(Box::new(wire));
    let ev = client.wait_event().unwrap();
    let NubEvent::Stopped { sig: Sig::Segv, code, .. } = ev else { panic!("{ev:?}") };
    assert_eq!(code, 0, "faulting address was null");
    client.kill().unwrap();
    h.join.join().unwrap();
}

#[test]
fn nub_survives_debugger_crash_and_reports_plants() {
    let c = compiled(Arch::Vax);
    let d = Arch::Vax.data();
    let h = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });

    // First debugger: attach, plant a breakpoint, then "crash" (drop).
    let stop5 = c.linked.stop_addrs[0][5];
    {
        let wire = h.connect_channel().unwrap();
        let mut client = NubClient::new(Box::new(wire));
        client.wait_event().unwrap();
        client.plant(stop5, d.insn_unit, d.break_pattern as u64).unwrap();
        // Drop without detach: the debugger crashed.
    }
    std::thread::sleep(std::time::Duration::from_millis(20));

    // Second debugger: reconnect. The nub re-announces the stop and can
    // report the planted instruction so we can recover it.
    let wire = h.connect_channel().unwrap();
    let mut client = NubClient::new(Box::new(wire));
    let ev = client.wait_event().unwrap();
    assert!(matches!(ev, NubEvent::Stopped { sig: Sig::Pause, .. }), "{ev:?}");
    let plants = client.query_plants().unwrap();
    assert_eq!(plants.len(), 1);
    let (addr, size, orig) = plants[0];
    assert_eq!(addr, stop5);
    assert_eq!(orig as u32, d.nop_pattern);
    // Recover: restore the original instruction and run to completion.
    client.store('c', addr, size, orig).unwrap();
    assert_eq!(client.query_plants().unwrap().len(), 0, "restore clears the record");
    let ev = client.continue_and_wait().unwrap();
    assert_eq!(ev, NubEvent::Exited(0));
    let m = h.join.join().unwrap();
    assert!(m.output.starts_with("1 1 2 3 5"));
}

#[test]
fn detach_preserves_state_for_reattach() {
    let c = compiled(Arch::M68k);
    let (h, mut client) = attach(&c);
    client.wait_event().unwrap();
    // Write a sentinel into the nub state area, detach, reattach, read it.
    let state_addr = c.linked.image.symbol("__nub_state").unwrap();
    client.store('d', state_addr, 4, 0xCAFE).unwrap();
    NubClient::detach(client).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let wire = h.connect_channel().unwrap();
    let mut client = NubClient::new(Box::new(wire));
    let ev = client.wait_event().unwrap();
    assert!(matches!(ev, NubEvent::Stopped { .. }), "{ev:?}");
    assert_eq!(client.fetch('d', state_addr, 4).unwrap(), 0xCAFE);
    client.kill().unwrap();
    h.join.join().unwrap();
}

#[test]
fn debugging_over_tcp() {
    // The same protocol over a real socket: debugging over the network.
    let c = compiled(Arch::Mips);
    let h = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // The "inetd" glue: accept a connection and hand it to the nub.
    let connect = h.connect.clone();
    let acceptor = std::thread::spawn(move || {
        let (s, _) = listener.accept().unwrap();
        connect.send(Box::new(TcpWire::new(s))).unwrap();
    });
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut client = NubClient::new(Box::new(TcpWire::new(stream)));
    acceptor.join().unwrap();
    let ev = client.wait_event().unwrap();
    assert!(matches!(ev, NubEvent::Stopped { sig: Sig::Pause, .. }));
    // Read the first word of fib's code over the network.
    let (_, fib_addr, _) = c.linked.func_addrs[0].clone();
    let _ = fib_addr;
    let ev = client.continue_and_wait().unwrap();
    assert_eq!(ev, NubEvent::Exited(0));
    let m = h.join.join().unwrap();
    assert_eq!(m.output, "1 1 2 3 5 8 13 21 34 55 \n");
}

#[test]
fn error_replies_for_bad_requests() {
    let c = compiled(Arch::Sparc);
    let (h, mut client) = attach(&c);
    client.wait_event().unwrap();
    // Bad space.
    assert!(client.fetch('r', 0x1000, 4).is_err());
    // Bad address.
    assert!(client.fetch('d', 0, 4).is_err());
    // Bad size.
    assert!(client.fetch('d', 0x1000, 3).is_err());
    // The connection is still healthy afterwards.
    assert!(client.fetch('c', 0x1000, 4).is_ok());
    client.kill().unwrap();
    h.join.join().unwrap();
}

#[test]
fn mips_bigendian_fp_context_quirk() {
    // The kernel stores saved FP registers word-swapped on the big-endian
    // MIPS; the nub's doubleword fetch must compensate, so the debugger
    // sees the true value.
    let src = r#"
        double g;
        int main(void) { g = 2.5; return 0; }
    "#;
    let c = compile("f.c", src, Arch::Mips, CompileOpts::default()).unwrap();
    let (h, mut client) = attach(&c);
    let NubEvent::Stopped { context, .. } = client.wait_event().unwrap() else { panic!() };
    let layout = Arch::Mips.data().ctx;
    // Saved f0 via the nub's 8-byte fetch: must decode as a sane double
    // (0.0 at startup).
    let raw = client.fetch('d', context + layout.freg(0), 8).unwrap();
    assert_eq!(f64::from_bits(raw), 0.0);
    // The words *in memory* are swapped relative to a normal double store:
    // write 2.5 through the nub (which swaps), then check raw words.
    client.store('d', context + layout.freg(0), 8, 2.5f64.to_bits()).unwrap();
    let msw_in_mem = client.fetch('d', context + layout.freg(0), 4).unwrap() as u32;
    // LSW first in memory: the first word is the low half of the double.
    assert_eq!(msw_in_mem, 2.5f64.to_bits() as u32);
    // And fetching it back through the 8-byte path round-trips.
    let back = client.fetch('d', context + layout.freg(0), 8).unwrap();
    assert_eq!(f64::from_bits(back), 2.5);
    client.kill().unwrap();
    h.join.join().unwrap();
}

#[test]
fn noise_before_the_first_envelope_is_never_executed() {
    use ldb_nub::{Envelope, Reply, Request, Wire};
    use std::time::Duration;

    fn next(w: &mut impl Wire) -> Vec<u8> {
        w.recv_timeout(Duration::from_secs(5)).unwrap().expect("the nub answers")
    }
    /// Read frames until the reply to `seq`, skipping re-sent stop events.
    fn reply_to(w: &mut impl Wire, seq: u32) -> Reply {
        loop {
            if let Some(Envelope::Reply { seq: s, reply }) = Envelope::decode(&next(w)) {
                if s == seq {
                    return reply;
                }
            }
        }
    }
    /// Open a connection, take its bare stop announcement, then send a
    /// seq-1 `Ping` envelope whose first byte reads as bare tag `tag`,
    /// followed by an intact seq-2 `Ping`: only the intact one may act.
    fn probe(h: &ldb_nub::NubHandle, tag: u8) -> impl Wire {
        let mut w = h.connect_channel().unwrap();
        let announce = next(&mut w);
        assert!(matches!(Reply::decode(&announce), Some(Reply::Signal { .. })), "{announce:?}");
        let mut noisy = Envelope::Req { seq: 1, req: Request::Ping }.encode();
        noisy[0] = tag;
        assert!(Request::decode(&noisy).is_some(), "tag {tag}: the noise reads as a bare request");
        w.send(&noisy).unwrap();
        w.send(&Envelope::Req { seq: 2, req: Request::Ping }.encode()).expect("nub still listening");
        let first = Envelope::decode(&next(&mut w));
        assert_eq!(first, Some(Envelope::Reply { seq: 2, reply: Reply::Ack }), "tag {tag}");
        assert!(!h.join.is_finished(), "tag {tag}: the target died");
        w
    }

    let c = compiled(Arch::Mips);
    // Fetch, QueryPlants, Continue, Kill, Detach, Step, DetachRun.
    for tag in [1, 4, 5, 6, 7, 8, 9] {
        let h = spawn(&c.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
        let mut w = probe(&h, tag);
        // The window reopens on every connection: probe again after an
        // enveloped detach.
        w.send(&Envelope::Req { seq: 3, req: Request::Detach }.encode()).unwrap();
        assert_eq!(reply_to(&mut w, 3), Reply::Ack);
        let mut w = probe(&h, tag);
        w.send(&Envelope::Req { seq: 3, req: Request::Kill }.encode()).unwrap();
        assert_eq!(reply_to(&mut w, 3), Reply::Ack);
        let m = h.join.join().unwrap();
        assert_eq!(m.output, "", "tag {tag}: the target never ran");
    }
}
