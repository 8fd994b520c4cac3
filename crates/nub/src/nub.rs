//! The debug nub proper (paper, Sec. 4.2).
//!
//! The nub executes "in user space" of the target: here, on the thread
//! that owns the target [`Machine`]. At startup the program's modified
//! startup code executes the pause call; when the target faults or hits a
//! breakpoint trap, the nub gets control, saves a *context*, notifies the
//! debugger over its wire, and services fetch and store requests until
//! told to continue, terminate, or break the connection.
//!
//! "Normally, when a connection is broken, even by a debugger crash, the
//! nub preserves the state of the target program and waits for a new
//! connection from another instance of ldb." The target need not be a
//! child of the debugger: connections arrive over a channel that anyone
//! can hand a [`Wire`] to (the network case), and a faulting program with
//! no debugger simply waits for one.
//!
//! The nub speaks one dialect: [`Envelope`] frames (checksummed,
//! sequence-numbered), all taken in through one intake whether the target
//! is stopped or running. Each sequence number is executed at most once —
//! a retransmitted request gets the cached reply frame, not a second
//! execution — resume-class requests are acknowledged with [`Reply::Ack`],
//! stop notifications go out as generation-numbered events, and while the
//! target is running the nub polls its wire each slice so a
//! [`Request::Ping`] is answered with [`Reply::Running`] instead of
//! silence. That at-most-once discipline is what makes blind
//! retransmission over a lossy wire safe. A frame that is not a
//! well-formed enveloped request is dropped. The one bare frame the nub
//! still sends is the stop announcement to a peer that has not spoken yet.

use std::io;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use crate::arch::{nub_arch, NubArch};
use crate::proto::{Envelope, Reply, Request, Sig};
use crate::transport::Wire;
use ldb_machine::{ByteOrder, Fault, Image, Machine, Memory, RunEvent, Snapshot};

/// How long the run loop listens on the wire between slices of an
/// open-ended run. The wait is the responsiveness contract: a client can
/// always raise a busy target within half a millisecond.
const RUN_POLL: Duration = Duration::from_micros(500);

/// The wire wait between slices of a *budgeted* run (`StepN`). A budgeted
/// leg stops and services the wire within the budget anyway, so the run
/// loop only drains frames already queued instead of lingering — this is
/// what keeps periodic checkpointing off the target's critical path.
const BUDGET_POLL: Duration = Duration::from_micros(1);

/// Upper bound on a staged snapshot upload: far above any real machine
/// image, small enough that a hostile client cannot balloon the nub.
const MAX_SNAPSHOT: usize = 32 << 20;

/// Nub configuration.
#[derive(Debug, Clone)]
pub struct NubConfig {
    /// Block at the startup pause until a debugger connects (set when the
    /// program is started *by* a debugger); otherwise the pause is a
    /// no-op when nobody is attached.
    pub wait_at_pause: bool,
    /// Instructions per run slice (between connection polls).
    pub slice: u64,
    /// Where to write a core file when the target faults with no
    /// debugger attached (UNIX `core` semantics). `None` keeps the
    /// default behavior: preserve state in the stopped nub and wait.
    pub core_path: Option<std::path::PathBuf>,
}

impl Default for NubConfig {
    fn default() -> Self {
        NubConfig { wait_at_pause: false, slice: 50_000, core_path: None }
    }
}

/// A handle to a spawned nub thread.
pub struct NubHandle {
    /// Hand a wire here to connect a debugger (the "network" listener).
    pub connect: Sender<Box<dyn Wire>>,
    /// Joins to the final machine state (for inspecting program output).
    pub join: JoinHandle<Machine>,
}

impl NubHandle {
    /// Connect a debugger end, returning the debugger's wire.
    ///
    /// # Errors
    /// The nub thread has already exited (the target finished or was
    /// killed), so nobody will ever service the connection.
    pub fn connect_channel(&self) -> io::Result<crate::transport::ChannelWire> {
        let (dbg, nub) = crate::transport::channel_pair();
        self.connect
            .send(Box::new(nub))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "nub thread exited"))?;
        Ok(dbg)
    }
}

/// Load `image` and run it under a nub on a new thread.
pub fn spawn(image: &Image, cfg: NubConfig) -> NubHandle {
    let machine = Machine::load(image);
    let context = image.symbol("__nub_context").unwrap_or_else(|| {
        // Images without a reserved area get a context at the stack base.
        image.stack_top - image.arch.data().ctx.size - 64
    });
    spawn_machine(machine, context, cfg)
}

/// Run an existing machine under a nub.
pub fn spawn_machine(machine: Machine, context: u32, cfg: NubConfig) -> NubHandle {
    let (tx, rx) = unbounded();
    let arch = machine.arch();
    let nub = Nub {
        machine,
        context,
        hooks: nub_arch(arch),
        wire: None,
        connect_rx: rx,
        plants: Vec::new(),
        cfg,
        last_signal: None,
        reached_pause: false,
        enveloped: false,
        last_seq: None,
        reply_cache: None,
        event_gen: 0,
        run_budget: None,
        snap_out: Vec::new(),
        snap_in: Vec::new(),
    };
    let join = std::thread::spawn(move || nub.serve());
    NubHandle { connect: tx, join }
}

struct Nub {
    machine: Machine,
    context: u32,
    hooks: &'static dyn NubArch,
    wire: Option<Box<dyn Wire>>,
    connect_rx: Receiver<Box<dyn Wire>>,
    plants: Vec<Plant>,
    cfg: NubConfig,
    last_signal: Option<(u8, u32)>,
    /// Set once the startup pause has been reached (before that, a
    /// debugger-spawned target holds incoming connections for the pause
    /// handshake instead of announcing an attach).
    reached_pause: bool,
    /// The connected peer has sent at least one [`Envelope`] frame; only
    /// [`Nub::emit_event`] reads it. Reset per connection.
    enveloped: bool,
    /// Sequence number of the last executed enveloped request, with its
    /// encoded reply frame: a retransmission of `last_seq` resends the
    /// cached frame instead of executing twice. Reset per connection.
    last_seq: Option<u32>,
    reply_cache: Option<Vec<u8>>,
    /// Generation number of the newest stop/exit notification; clients
    /// deduplicate re-sent notifications by it. Monotonic for the nub's
    /// whole lifetime.
    event_gen: u32,
    /// Remaining instruction budget of an in-flight [`Request::StepN`]:
    /// the run loop stops with [`Sig::Step`] when it reaches zero.
    /// `None` is an unbudgeted [`Request::Continue`].
    run_budget: Option<u64>,
    /// Staged serialized snapshot, paged out via [`Request::ReadSnapshot`].
    snap_out: Vec<u8>,
    /// Inbound snapshot chunks, assembled by [`Request::LoadSnapshot`].
    snap_in: Vec<u8>,
}

/// A breakpoint the nub planted: the original instruction, so a new
/// debugger can recover it, and the trap, so a snapshot restore can
/// re-plant on top of the pristine image.
struct Plant {
    addr: u32,
    size: u8,
    orig: u64,
    trap: u64,
}

enum State {
    Run,
    Stopped,
}

impl Nub {
    fn serve(mut self) -> Machine {
        let mut state = State::Run;
        loop {
            match state {
                State::Run => {
                    // Accept a (new) debugger mid-run: stop and announce —
                    // unless we were started *by* a debugger and have not
                    // reached the startup pause yet, in which case the
                    // connection waits for the pause handshake.
                    let hold_for_pause = self.cfg.wait_at_pause && !self.reached_pause;
                    if !hold_for_pause {
                        match self.connect_rx.try_recv() {
                            Ok(w) => {
                                self.accept(w);
                                self.stop_with(Sig::Attach.number(), 0);
                                state = State::Stopped;
                                continue;
                            }
                            // No debugger attached and every connect
                            // handle is gone: nobody can ever reach this
                            // target again, so a non-terminating program
                            // would pin this thread forever. The host
                            // reclaims the machine instead (a daemon
                            // tearing down a detached-but-running tenant
                            // relies on this).
                            Err(TryRecvError::Disconnected) if self.wire.is_none() => {
                                return self.machine;
                            }
                            Err(_) => {}
                        }
                    }
                    // Service the wire between slices so a client can tell
                    // a busy target from a dead connection. Budgeted legs
                    // stop on their own in at most one slice, so they skip
                    // the lingering wait.
                    let poll = match self.run_budget {
                        Some(_) => BUDGET_POLL,
                        None => RUN_POLL,
                    };
                    if let Some(status) = self.poll_running(poll) {
                        self.announce_exit(status);
                        return self.machine;
                    }
                    // A StepN budget bounds the slice; unbudgeted runs use
                    // the configured slice unchanged.
                    let slice = match self.run_budget {
                        Some(b) => b.min(self.cfg.slice),
                        None => self.cfg.slice,
                    };
                    let before = self.machine.cpu.steps;
                    let ev = self.machine.run(slice);
                    if let Some(b) = self.run_budget.as_mut() {
                        *b = b.saturating_sub(self.machine.cpu.steps - before);
                    }
                    match ev {
                        RunEvent::StepLimit => {
                            if self.run_budget == Some(0) {
                                // The StepN budget is spent: stop exactly
                                // here, like the single-step extension.
                                self.stop_with(Sig::Step.number(), 0);
                                state = State::Stopped;
                            }
                        }
                        RunEvent::Breakpoint { pc, .. } => {
                            self.stop_with(Sig::Trap.number(), pc);
                            state = State::Stopped;
                        }
                        RunEvent::Fault(f) => {
                            let (sig, code) = classify_fault(f);
                            // An undebugged fault with a core path
                            // configured dies dumping core, like a UNIX
                            // process without a debugger.
                            if self.wire.is_none() {
                                if let Some(path) = &self.cfg.core_path {
                                    let img = ldb_machine::core::write_core(
                                        &self.machine,
                                        sig.number(),
                                        code,
                                        self.context,
                                    );
                                    let _ = std::fs::write(path, img);
                                    return self.machine;
                                }
                            }
                            self.stop_with(sig.number(), code);
                            state = State::Stopped;
                        }
                        RunEvent::Paused { .. } => {
                            self.reached_pause = true;
                            if let Ok(w) = self.connect_rx.try_recv() {
                                self.accept(w);
                            }
                            if self.wire.is_some() {
                                self.stop_with(Sig::Pause.number(), 0);
                                state = State::Stopped;
                            } else if self.cfg.wait_at_pause {
                                match self.connect_rx.recv() {
                                    Ok(w) => {
                                        self.accept(w);
                                        self.stop_with(Sig::Pause.number(), 0);
                                        state = State::Stopped;
                                    }
                                    Err(_) => return self.machine, // nobody will ever connect
                                }
                            }
                            // Otherwise: an undebugged run; keep going.
                        }
                        RunEvent::Exited(status) => {
                            self.announce_exit(status);
                            return self.machine;
                        }
                    }
                }
                State::Stopped => {
                    let Some(w) = self.wire.as_mut() else {
                        // Preserve state and wait for a new debugger
                        // (survives debugger crashes).
                        match self.connect_rx.recv() {
                            Ok(w) => {
                                self.accept(w);
                                if let Some((sig, code)) = self.last_signal {
                                    // Re-announce the current stop to the
                                    // fresh peer (bare: it has not sent an
                                    // envelope yet; see `emit_event`).
                                    self.emit_event(&Reply::Signal {
                                        sig,
                                        code,
                                        context: self.context,
                                    });
                                }
                            }
                            Err(_) => return self.machine,
                        }
                        continue;
                    };
                    let frame = match w.recv() {
                        Ok(f) => f,
                        Err(_) => {
                            // The debugger crashed: drop the wire, keep
                            // the target's state.
                            self.wire = None;
                            continue;
                        }
                    };
                    let Some((seq, req)) = self.intake(&frame) else { continue };
                    match req {
                        Request::Ping => {
                            self.reply(seq, &Reply::Ack);
                            // The probe usually means the client lost
                            // our stop notification: re-send it (same
                            // generation, so a client that did get it
                            // drops the duplicate).
                            if let Some((sig, code)) = self.last_signal {
                                self.emit_event(&Reply::Signal {
                                    sig,
                                    code,
                                    context: self.context,
                                });
                            }
                        }
                        Request::Continue => {
                            self.reply(seq, &Reply::Ack);
                            self.hooks.restore_context(&mut self.machine, self.context);
                            self.run_budget = None;
                            state = State::Run;
                        }
                        Request::StepN { n } => {
                            // The budgeted resume: run at most n
                            // instructions through the sliced run loop
                            // (so pings are still answered), stopping
                            // early at traps/faults like Continue.
                            self.reply(seq, &Reply::Ack);
                            self.hooks.restore_context(&mut self.machine, self.context);
                            self.run_budget = Some(n);
                            state = State::Run;
                        }
                        Request::Step => {
                            self.reply(seq, &Reply::Ack);
                            self.hooks.restore_context(&mut self.machine, self.context);
                            match self.machine.run(1) {
                                RunEvent::StepLimit | RunEvent::Paused { .. } => {
                                    self.stop_with(Sig::Step.number(), 0);
                                }
                                RunEvent::Breakpoint { pc, .. } => {
                                    self.stop_with(Sig::Trap.number(), pc);
                                }
                                RunEvent::Fault(f) => {
                                    let (sig, code) = classify_fault(f);
                                    self.stop_with(sig.number(), code);
                                }
                                RunEvent::Exited(status) => {
                                    self.announce_exit(status);
                                    return self.machine;
                                }
                            }
                        }
                        Request::Kill => {
                            self.reply(seq, &Reply::Ack);
                            self.announce_exit(-9);
                            return self.machine;
                        }
                        Request::Detach => {
                            self.reply(seq, &Reply::Ack);
                            self.wire = None;
                            // Stay stopped, preserving state.
                        }
                        Request::DetachRun => {
                            self.reply(seq, &Reply::Ack);
                            self.wire = None;
                            self.last_signal = None;
                            self.hooks.restore_context(&mut self.machine, self.context);
                            self.run_budget = None;
                            state = State::Run;
                        }
                        req => {
                            let r = self.service(&req).unwrap_or_else(|code| Reply::Error { code });
                            self.reply(seq, &r);
                        }
                    }
                }
            }
        }
    }

    /// Adopt a fresh connection, resetting per-connection session state.
    fn accept(&mut self, w: Box<dyn Wire>) {
        self.wire = Some(w);
        self.enveloped = false;
        self.last_seq = None;
        self.reply_cache = None;
    }

    /// Service the wire while the target runs. Returns `Some(status)` when
    /// a kill arrived and the nub should exit with that status.
    fn poll_running(&mut self, timeout: Duration) -> Option<i32> {
        loop {
            let w = self.wire.as_mut()?;
            let frame = match w.recv_timeout(timeout) {
                Ok(Some(f)) => f,
                Ok(None) => return None,
                Err(_) => {
                    self.wire = None;
                    return None;
                }
            };
            let Some((seq, req)) = self.intake(&frame) else { continue };
            match req {
                Request::Ping => self.reply(seq, &Reply::Running),
                Request::Kill => {
                    self.reply(seq, &Reply::Ack);
                    return Some(-9);
                }
                Request::Detach => {
                    self.reply(seq, &Reply::Ack);
                    self.wire = None;
                }
                Request::DetachRun => {
                    self.reply(seq, &Reply::Ack);
                    self.last_signal = None;
                    self.wire = None;
                }
                // Everything else needs a stopped target.
                _ => self.reply(seq, &Reply::Error { code: 4 }),
            }
        }
    }

    /// The one request intake, stopped or running: decode `frame` as an
    /// enveloped request and hand back what to execute. Anything else —
    /// corruption, a stray reply, a bare frame — is dropped and the client
    /// retransmits, so line noise can never execute as a detach, kill, or
    /// store. A retransmission of the last executed sequence number means
    /// the reply was lost, not the request: resend it, never re-execute.
    fn intake(&mut self, frame: &[u8]) -> Option<(u32, Request)> {
        let Some(Envelope::Req { seq, req }) = Envelope::decode(frame) else { return None };
        self.enveloped = true;
        if self.last_seq == Some(seq) {
            if let Some(cached) = self.reply_cache.clone() {
                self.send_frame(&cached);
            }
            return None;
        }
        Some((seq, req))
    }

    fn stop_with(&mut self, sig: u8, code: u32) {
        self.run_budget = None;
        self.hooks.write_context(&mut self.machine, self.context);
        self.last_signal = Some((sig, code));
        self.announce(&Reply::Signal { sig, code, context: self.context });
    }

    fn announce_exit(&mut self, status: i32) {
        self.announce(&Reply::Exited { status });
    }

    /// Send a *new* stop/exit notification (advances the generation).
    fn announce(&mut self, reply: &Reply) {
        self.event_gen += 1;
        self.emit_event(reply);
    }

    /// (Re-)send a notification under the current generation. Until the
    /// peer's first envelope it goes out bare: that is the connect
    /// announcement, which the client reads as one junk frame before its
    /// quiet poll and ping. Enveloping it would drop three frames from
    /// every connect, which the replay goldens and the benchmark smoke
    /// test (`wire.quiet_polls.connect >= 5`) pin — see ROADMAP item 2.
    fn emit_event(&mut self, reply: &Reply) {
        let frame = if self.enveloped {
            Envelope::Event { generation: self.event_gen, reply: reply.clone() }.encode()
        } else {
            reply.encode()
        };
        self.send_frame(&frame);
    }

    /// Send a sequenced reply and cache it for duplicate suppression.
    fn reply(&mut self, seq: u32, reply: &Reply) {
        let frame = Envelope::Reply { seq, reply: reply.clone() }.encode();
        self.last_seq = Some(seq);
        self.reply_cache = Some(frame.clone());
        self.send_frame(&frame);
    }

    fn send_frame(&mut self, frame: &[u8]) {
        if let Some(w) = self.wire.as_mut() {
            if w.send(frame).is_err() {
                self.wire = None;
            }
        }
    }

    /// Execute a request that needs a stopped target; errors are the
    /// nub's codes (1 bad address, 2 bad space, 3 bad size or length,
    /// 4 not stopped, 5 corrupt snapshot).
    fn service(&mut self, req: &Request) -> Result<Reply, u8> {
        match *req {
            Request::Fetch { space, addr, size } => {
                check_space(space)?;
                let m = &self.machine;
                let mut value = read_sized(&m.cpu.mem, addr, size)?;
                if size == 8 {
                    value = self.hooks.fetch_fixup8(m, self.context, addr, value);
                }
                Ok(Reply::Fetched { value })
            }
            Request::Store { space, addr, size, value } => {
                check_space(space)?;
                // A store that undoes a recorded plant removes the record.
                if let Some(i) = self
                    .plants
                    .iter()
                    .position(|p| p.addr == addr && p.size == size && p.orig == value)
                {
                    self.plants.remove(i);
                }
                let fixed = if size == 8 {
                    self.hooks.store_fixup8(&self.machine, self.context, addr, value)
                } else {
                    value
                };
                write_sized(&mut self.machine.cpu.mem, addr, size, fixed)?;
                Ok(Reply::Stored)
            }
            Request::Plant { addr, size, value } => {
                if size == 8 {
                    return Err(3);
                }
                let mem = &mut self.machine.cpu.mem;
                let orig = read_sized(mem, addr, size)?;
                write_sized(mem, addr, size, value)?;
                if !self.plants.iter().any(|p| p.addr == addr) {
                    self.plants.push(Plant { addr, size, orig, trap: value });
                }
                Ok(Reply::Stored)
            }
            Request::FetchBlock { space, addr, len } => {
                check_space(space)?;
                if len == 0 || len > crate::proto::MAX_BLOCK {
                    return Err(3);
                }
                // All-or-nothing: a block fetch never returns a short read,
                // so a client can cache the whole line or fall back to word
                // fetches at the edge.
                let bytes = self.machine.cpu.mem.read_bytes(addr, len).map_err(|_| 1)?.to_vec();
                Ok(Reply::Block { order: self.wire_order(), bytes })
            }
            Request::QueryPlants => {
                Ok(Reply::Plants(self.plants.iter().map(|p| (p.addr, p.size, p.orig)).collect()))
            }
            Request::TakeSnapshot => {
                // Sync the CPU from the context block so register stores the
                // debugger made while stopped are part of the image.
                self.hooks.restore_context(&mut self.machine, self.context);
                // Capture a *pristine* image: lift every planted trap, so a
                // restored snapshot carries original text and the client can
                // re-plant (or not) without byte-diff noise at plant sites.
                let mem = &mut self.machine.cpu.mem;
                let mut traps = Vec::with_capacity(self.plants.len());
                for p in &self.plants {
                    traps.push(read_sized(mem, p.addr, p.size)?);
                    write_sized(mem, p.addr, p.size, p.orig)?;
                }
                let snap = Snapshot::capture(&self.machine);
                // Re-arm the traps we lifted.
                for (p, trap) in self.plants.iter_mut().zip(traps) {
                    p.trap = trap;
                    let _ = write_sized(&mut self.machine.cpu.mem, p.addr, p.size, trap);
                }
                self.snap_out = snap.to_bytes();
                Ok(Reply::Fetched { value: self.snap_out.len() as u64 })
            }
            Request::ReadSnapshot { off, len } => {
                if len == 0 || len > crate::proto::MAX_BLOCK {
                    return Err(3);
                }
                let (off, len) = (off as usize, len as usize);
                let end = off.checked_add(len).ok_or(1)?;
                if end > self.snap_out.len() {
                    return Err(1);
                }
                let bytes = self.snap_out[off..end].to_vec();
                Ok(Reply::Block { order: self.wire_order(), bytes })
            }
            Request::LoadSnapshot { off, ref bytes } => {
                // Chunks arrive strictly in order; off 0 starts a fresh image.
                if off == 0 {
                    self.snap_in.clear();
                }
                if off as usize != self.snap_in.len() {
                    return Err(3);
                }
                if self.snap_in.len() + bytes.len() > MAX_SNAPSHOT {
                    self.snap_in.clear();
                    return Err(3);
                }
                self.snap_in.extend_from_slice(bytes);
                Ok(Reply::Stored)
            }
            Request::CommitSnapshot { len } => {
                let staged = std::mem::take(&mut self.snap_in);
                if len as usize != staged.len() {
                    return Err(3);
                }
                let snap = Snapshot::from_bytes(&staged).map_err(|_| 5)?;
                snap.restore(&mut self.machine).map_err(|_| 5)?;
                // The image is pristine; re-arm every live plant so forward
                // replay takes exactly the traps the original run took.
                for p in &self.plants {
                    write_sized(&mut self.machine.cpu.mem, p.addr, p.size, p.trap)?;
                }
                self.hooks.write_context(&mut self.machine, self.context);
                Ok(Reply::Stored)
            }
            Request::QuerySteps => Ok(Reply::Fetched { value: self.machine.cpu.steps }),
            // State-machine requests reaching here means the peer sent
            // them at the wrong time; say "not stopped" rather than panic.
            Request::Ping
            | Request::Continue
            | Request::Kill
            | Request::Detach
            | Request::Step
            | Request::StepN { .. }
            | Request::DetachRun => Err(4),
        }
    }

    /// The target's byte order as a block reply reports it.
    fn wire_order(&self) -> u8 {
        match self.machine.cpu.mem.order() {
            ByteOrder::Little => 0,
            ByteOrder::Big => 1,
        }
    }
}

/// The nub serves only the code and data spaces.
fn check_space(space: u8) -> Result<(), u8> {
    if space == b'c' || space == b'd' {
        Ok(())
    } else {
        Err(2)
    }
}

/// Read a 1-, 2-, 4- or 8-byte value in the target byte order.
fn read_sized(mem: &Memory, addr: u32, size: u8) -> Result<u64, u8> {
    let v = match size {
        1 => mem.read_u8(addr).map(u64::from),
        2 => mem.read_u16(addr).map(u64::from),
        4 => mem.read_u32(addr).map(u64::from),
        8 => mem.read_f64(addr).map(f64::to_bits),
        _ => return Err(3),
    };
    v.map_err(|_| 1)
}

/// Write a 1-, 2-, 4- or 8-byte value in the target byte order.
fn write_sized(mem: &mut Memory, addr: u32, size: u8, v: u64) -> Result<(), u8> {
    let r = match size {
        1 => mem.write_u8(addr, v as u8),
        2 => mem.write_u16(addr, v as u16),
        4 => mem.write_u32(addr, v as u32),
        8 => mem.write_f64(addr, f64::from_bits(v)),
        _ => return Err(3),
    };
    r.map_err(|_| 1)
}

fn classify_fault(f: Fault) -> (Sig, u32) {
    match f {
        Fault::BadAddress { addr, .. } => (Sig::Segv, addr),
        Fault::DivideByZero => (Sig::Fpe, 0),
        Fault::IllegalInstruction { pc } => (Sig::Ill, pc),
        Fault::LoadDelayHazard { pc, .. } => (Sig::Ill, pc),
    }
}
