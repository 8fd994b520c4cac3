//! Criterion microbenchmarks for ldb's hot paths: PostScript scanning and
//! execution, abstract-memory fetches, the nub protocol, breakpoint
//! cycles, compilation, and LZW.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use ldb_bench::{synth_program, FIB_C};
use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::{nm, pssym};
use ldb_core::{AbstractMemory, Ldb};
use ldb_machine::Arch;

fn ps_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("postscript");
    g.sample_size(30);
    let big = {
        let cc = compile("synth.c", &synth_program(200), Arch::Mips, CompileOpts::default())
            .unwrap();
        pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred)
    };
    g.throughput(Throughput::Bytes(big.len() as u64));
    g.bench_function("scan_symbol_table", |b| {
        b.iter(|| {
            let mut sc = ldb_postscript::Scanner::from_str(big.as_str());
            let mut n = 0u64;
            while let Some(_t) = sc.next_token().unwrap() {
                n += 1;
            }
            n
        })
    });
    g.bench_function("exec_fib_20", |b| {
        let mut i = ldb_postscript::Interp::new();
        i.run_str("/fib {dup 2 lt {pop 1} {dup 1 sub fib exch 2 sub fib add} ifelse} def")
            .unwrap();
        b.iter(|| {
            i.run_str("15 fib pop").unwrap();
        })
    });
    g.bench_function("dict_literal", |b| {
        let mut i = ldb_postscript::Interp::new();
        b.iter(|| {
            i.run_str("<< /name (i) /type 4 /sourcey 6 /kind (variable) >> pop").unwrap();
        })
    });
    g.finish();
}

fn abstract_memory(c: &mut Criterion) {
    use ldb_core::amemory::{AliasMemory, AliasTarget, FakeMemory, JoinedMemory, RegisterMemory};
    use std::rc::Rc;
    let fake = Rc::new(FakeMemory::default());
    fake.store('d', 92, 4, 1234).unwrap();
    let alias = AliasMemory::new(fake.clone());
    alias.alias('r', 30, AliasTarget::Mem('d', 92));
    let alias = Rc::new(alias);
    let reg = Rc::new(RegisterMemory::new(alias.clone() as _, &[('r', 4)]));
    let joined = JoinedMemory::new().route('r', reg).fallback(fake);
    let mut g = c.benchmark_group("amemory");
    g.bench_function("register_fetch_through_dag", |b| {
        b.iter(|| joined.fetch('r', 30, 1).unwrap())
    });
    g.finish();
}

fn nub_protocol(c: &mut Criterion) {
    use ldb_nub::{Reply, Request};
    let mut g = c.benchmark_group("nub");
    g.bench_function("codec_roundtrip", |b| {
        b.iter(|| {
            let r = Request::Fetch { space: b'd', addr: 0x2000, size: 4 };
            let d = Request::decode(&r.encode()).unwrap();
            let rep = Reply::Fetched { value: 42 };
            let _ = Reply::decode(&rep.encode()).unwrap();
            d
        })
    });
    // A live fetch round trip through channel wires and the nub thread.
    let cc = compile("fib.c", FIB_C, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&cc.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.spawn_program(&cc.linked.image, &loader).unwrap();
    let client = ldb.target(0).client.clone();
    g.bench_function("live_fetch_roundtrip", |b| {
        b.iter(|| client.borrow_mut().fetch('d', cc.linked.context_addr, 4).unwrap())
    });
    g.finish();
}

fn breakpoints(c: &mut Criterion) {
    let mut g = c.benchmark_group("debugger");
    g.sample_size(20);
    let cc = compile("fib.c", FIB_C, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&cc.linked.image, &symtab);
    g.bench_function("breakpoint_hit_print_continue", |b| {
        b.iter(|| {
            let mut ldb = Ldb::new();
            ldb.spawn_program(&cc.linked.image, &loader).unwrap();
            ldb.break_at("fib", 7).unwrap();
            ldb.cont().unwrap();
            let v = ldb.print_var("i").unwrap();
            assert_eq!(v, "2");
            v
        })
    });
    g.finish();
}

fn checkpoint(c: &mut Criterion) {
    use ldb_core::StopEvent;
    let mut g = c.benchmark_group("checkpoint");
    g.sample_size(20);
    // A long, healthy run: a tight loop retiring ~10^5 instructions, no
    // breakpoints, no inspection — the path `--checkpoint-every` must
    // not tax when off and may tax <5% when on.
    let loop_c = r#"
int main(void) { int i; int s; s = 0;
    for (i = 0; i < 20000; i++) s += i;
    printf("%d\n", s); return 0; }
"#;
    let cc = compile("loop.c", loop_c, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&cc.linked.image, &symtab);
    // Paired A/B probe: identical sessions, checkpointing off vs on.
    for (label, every) in
        [("run_healthy_checkpoint_off", None), ("run_healthy_checkpoint_on_25k", Some(25_000))]
    {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut ldb = Ldb::new();
                ldb.spawn_program(&cc.linked.image, &loader).unwrap();
                ldb.set_checkpoint_every(every);
                match ldb.cont().unwrap() {
                    StopEvent::Exited(0) => {}
                    other => panic!("unexpected stop: {other:?}"),
                }
            })
        });
    }
    // The unit costs: one snapshot round trip over the wire (capture is
    // what every checkpoint pays; restore+replay is what reverse pays).
    let fib = compile("fib.c", FIB_C, Arch::Mips, CompileOpts::default()).unwrap();
    let fib_symtab = pssym::emit(&fib.unit, &fib.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let fib_loader = nm::loader_table_for(&fib.linked.image, &fib_symtab);
    let stopped = || {
        let mut ldb = Ldb::new();
        ldb.spawn_program(&fib.linked.image, &fib_loader).unwrap();
        ldb.break_at("fib", 7).unwrap();
        ldb.cont().unwrap();
        ldb
    };
    g.bench_function("snapshot_capture", |b| {
        let mut ldb = stopped();
        b.iter(|| ldb.snapshot_bytes().unwrap())
    });
    g.bench_function("checkpoint_compressed", |b| {
        let mut ldb = stopped();
        b.iter(|| ldb.checkpoint_now().unwrap())
    });
    g.bench_function("reverse_step_and_step_back", |b| {
        let mut ldb = stopped();
        ldb.checkpoint_now().unwrap();
        ldb.step_insn().unwrap();
        b.iter(|| {
            ldb.reverse_step_insn().unwrap();
            ldb.step_insn().unwrap();
        })
    });
    g.finish();
}

fn compiler(c: &mut Criterion) {
    let mut g = c.benchmark_group("cc");
    g.sample_size(20);
    for arch in Arch::ALL {
        g.bench_function(format!("compile_fib_{arch}"), |b| {
            b.iter(|| compile("fib.c", FIB_C, arch, CompileOpts::default()).unwrap())
        });
    }
    g.finish();
}

fn wire_cache(c: &mut Criterion) {
    use ldb_core::CachedMemory;
    use std::rc::Rc;
    let mut g = c.benchmark_group("wire_cache");
    let cc = compile("fib.c", FIB_C, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&cc.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.spawn_program(&cc.linked.image, &loader).unwrap();
    let client = ldb.target(0).client.clone();
    // A line-aligned kilobyte at the quiet bottom of the stack region,
    // above the saved context and far below the live frames.
    let base = (cc.linked.context_addr + 4096) & !63;
    g.bench_function("sweep_1k_uncached", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..256u32 {
                acc ^= client.borrow_mut().fetch('d', base + i * 4, 4).unwrap();
            }
            acc
        })
    });
    let cache = Rc::new(CachedMemory::new(client.clone()));
    g.bench_function("sweep_1k_cached_cold", |b| {
        b.iter(|| {
            cache.flush();
            let mut acc = 0u64;
            for i in 0..256u32 {
                acc ^= cache.fetch('d', i64::from(base + i * 4), 4).unwrap();
            }
            acc
        })
    });
    g.bench_function("sweep_1k_cached_warm", |b| {
        cache.flush();
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..256u32 {
                acc ^= cache.fetch('d', i64::from(base + i * 4), 4).unwrap();
            }
            acc
        })
    });
    g.finish();
}

fn sandbox(c: &mut Criterion) {
    use ldb_postscript::{Budget, Interp};
    let mut g = c.benchmark_group("sandbox");
    g.sample_size(30);
    let cc =
        compile("synth.c", &synth_program(200), Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let table = nm::loader_table_for(&cc.linked.image, &symtab);
    g.throughput(Throughput::Bytes(table.len() as u64));
    // Deferred tables execute machine-dependent names at load time; the
    // debugger binds the real ones from its per-architecture dictionary.
    const STUBS: &str = "/Regset0 {/r exch} def /Frameoff {/l exch} def";
    // The table-load hot path with the execution sandbox off vs on: the
    // fuel/allocation accounting must cost <5% (pinned in EXPERIMENTS.md).
    g.bench_function("table_load_unbudgeted", |b| {
        b.iter(|| {
            let mut i = Interp::new();
            i.run_str(STUBS).unwrap();
            i.run_str(&table).unwrap();
            i.pop().unwrap()
        })
    });
    g.bench_function("table_load_budgeted", |b| {
        b.iter(|| {
            let mut i = Interp::new();
            i.run_str(STUBS).unwrap();
            let save = i.push_budget(Budget::LOAD);
            i.run_str(&table).unwrap();
            i.pop_budget(save);
            i.pop().unwrap()
        })
    });
    g.finish();
}

fn trace_overhead(c: &mut Criterion) {
    use ldb_postscript::{Budget, Interp};
    use ldb_trace::{Layer, Severity, Trace};
    let mut g = c.benchmark_group("trace");
    g.sample_size(30);

    // The recorder itself, isolated: one wire-shaped record (four fields)
    // into a saturated ring, and the same call against the disabled
    // handle. These are the numbers the end-to-end pins below derive
    // from — the fetch round trip is scheduler-noisy at the ~100 ns
    // scale, so the per-record cost is what EXPERIMENTS.md cites.
    let ring = Trace::ring(4096);
    for i in 0..5000u64 {
        ring.emit(Layer::Wire, Severity::Debug, "send", &[("seq", i.into())]);
    }
    let mut seq = 0u64;
    g.bench_function("emit_record", |b| {
        b.iter(|| {
            seq += 1;
            ring.emit(
                Layer::Wire,
                Severity::Debug,
                "send",
                &[("seq", seq.into()), ("req", "Fetch".into()), ("attempt", 0u64.into()), ("len", 18u64.into())],
            );
        })
    });
    let off = Trace::off();
    g.bench_function("emit_record_disabled", |b| {
        b.iter(|| {
            seq += 1;
            off.emit(
                Layer::Wire,
                Severity::Debug,
                "send",
                &[("seq", seq.into()), ("req", "Fetch".into()), ("attempt", 0u64.into()), ("len", 18u64.into())],
            );
        })
    });

    // The wire hot path (same live fetch round trip as the `nub` group)
    // with the flight recorder disabled — the Trace::off() fast path must
    // cost nothing — and enabled with the in-memory ring, where the two
    // records per round trip (send + recv) are pinned at <3% overhead in
    // EXPERIMENTS.md.
    let cc = compile("fib.c", FIB_C, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = nm::loader_table_for(&cc.linked.image, &symtab);
    let mut ldb = Ldb::new();
    ldb.spawn_program(&cc.linked.image, &loader).unwrap();
    let client = ldb.target(0).client.clone();
    g.bench_function("live_fetch_recorder_off", |b| {
        b.iter(|| client.borrow_mut().fetch('d', cc.linked.context_addr, 4).unwrap())
    });
    ldb.set_trace(Trace::ring(4096));
    g.bench_function("live_fetch_recorder_on", |b| {
        b.iter(|| client.borrow_mut().fetch('d', cc.linked.context_addr, 4).unwrap())
    });

    // The table-load hot path (same budgeted load as the `sandbox` group)
    // with and without the recorder: the interpreter journals budget
    // consumption only at scope exit, so the load itself must not slow.
    let big =
        compile("synth.c", &synth_program(200), Arch::Mips, CompileOpts::default()).unwrap();
    let big_ps = pssym::emit(&big.unit, &big.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let table = nm::loader_table_for(&big.linked.image, &big_ps);
    const STUBS: &str = "/Regset0 {/r exch} def /Frameoff {/l exch} def";
    let load = |trace: &Trace| {
        let mut i = Interp::new();
        i.set_trace(trace.clone());
        i.run_str(STUBS).unwrap();
        let save = i.push_budget(Budget::LOAD);
        i.run_str(&table).unwrap();
        i.pop_budget(save);
        i.pop().unwrap()
    };
    g.throughput(Throughput::Bytes(table.len() as u64));
    let off = Trace::off();
    g.bench_function("table_load_recorder_off", |b| b.iter(|| load(&off)));
    let on = Trace::ring(4096);
    g.bench_function("table_load_recorder_on", |b| b.iter(|| load(&on)));
    g.finish();
}

fn symtab_compile(c: &mut Criterion) {
    use ldb_cc::driver::{compile_many, program_load_plan};
    use ldb_core::{ModuleCache, ModuleTable};
    use ldb_postscript::compile_module;

    let mut g = c.benchmark_group("symtab_compile");
    g.sample_size(20);
    let src = synth_program(200);
    let p = compile_many(&[("synth.c", src.as_str())], Arch::Mips, CompileOpts::default())
        .unwrap();
    let (frame_ps, modules) = program_load_plan(&p, pssym::PsMode::Deferred);
    let module_ps = modules[0].1.as_str();
    g.throughput(Throughput::Bytes(module_ps.len() as u64));

    // The one-time cost a process's (or daemon's) first attach pays into
    // the cache: scan + compile a 200-function module table to bytecode.
    g.bench_function("compile_module_200fn", |b| {
        b.iter(|| compile_module("synth.c", module_ps).unwrap())
    });
    // The steady-state cost every later attach of the same binary pays:
    // a hash of the source and an `Arc` clone out of the cache.
    g.bench_function("cache_hit_200fn", |b| {
        let cache = ModuleCache::new();
        cache.get_or_compile("synth.c", module_ps).unwrap();
        b.iter(|| cache.get_or_compile("synth.c", module_ps).unwrap())
    });

    // The whole connect, cold cache (compile every table) vs warm cache
    // (hits only): both load lazily, so neither runs the module table.
    let tables: Vec<ModuleTable> =
        modules.into_iter().map(|(name, ps)| ModuleTable { name, ps }).collect();
    let spawn_wire = || {
        let handle = ldb_nub::spawn(
            &p.linked.image,
            ldb_nub::NubConfig { wait_at_pause: true, ..Default::default() },
        );
        let wire = handle.connect_channel().unwrap();
        (Box::new(wire) as Box<dyn ldb_nub::Wire>, handle)
    };
    // Both connects poll at the daemon's 1 ms so the numbers measure
    // table loading, not the default config's 10 ms first event poll.
    let tight = || ldb_core::AttachOpts {
        client: ldb_nub::ClientConfig {
            event_poll: std::time::Duration::from_millis(1),
            ..Default::default()
        },
        fault: None,
    };
    let connect = |cache: &ModuleCache| {
        let mut ldb = Ldb::new();
        let (wire, handle) = spawn_wire();
        ldb.attach(wire, &frame_ps, &tables, cache, Some(handle), tight()).unwrap()
    };
    g.bench_function("connect_cold_cache_200fn", |b| b.iter(|| connect(&ModuleCache::new())));
    let warm = ModuleCache::new();
    connect(&warm);
    g.bench_function("connect_warm_cache_200fn", |b| b.iter(|| connect(&warm)));
    g.finish();
}

fn lzw(c: &mut Criterion) {
    let data = synth_program(100).into_bytes();
    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("lzw_compress", |b| b.iter(|| ldb_compress::compress(&data)));
    let packed = ldb_compress::compress(&data);
    g.bench_function("lzw_decompress", |b| b.iter(|| ldb_compress::decompress(&packed).unwrap()));
    g.finish();
}

criterion_group!(benches, ps_interpreter, abstract_memory, nub_protocol, breakpoints, checkpoint, compiler, wire_cache, sandbox, trace_overhead, symtab_compile, lzw);
criterion_main!(benches);
