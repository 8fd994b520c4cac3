//! Wire wrappers for traced runs: they sit on the debugger end and on
//! the nub end of a channel wire and record, from outside the program,
//! how long each side waited and how much it sent.

use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ldb_suite::nub::{Envelope, Request, Wire};

/// What both ends of one wire observed.
#[derive(Default)]
pub struct WireLog {
    /// Debugger end: intervals spent blocked in `recv`/`recv_timeout`.
    pub waits: Vec<(Instant, Instant)>,
    /// Debugger end: timed receives that returned nothing.
    pub quiet_polls: u64,
    /// Debugger end: keepalive pings sent (one per quiet poll).
    pub pings: u64,
    /// Frame bytes both ways, keepalive pings and their replies excluded.
    pub bytes: u64,
    ping_seqs: Vec<u32>,
    /// Nub end: timed receives that returned nothing while the target ran.
    pub nub_idle_polls: u64,
    pub nub_idle: Duration,
    /// Nub end: time from a request's arrival to the next frame sent.
    pub nub_serve: Duration,
    pub nub_served: u64,
    nub_arrival: Option<Instant>,
}

pub type Log = Arc<Mutex<WireLog>>;

pub fn lock(log: &Log) -> MutexGuard<'_, WireLog> {
    log.lock()
        .expect("wire log poisoned by a panicking wire thread")
}

impl WireLog {
    fn note_in(&mut self, frame: &[u8]) {
        if let Some(Envelope::Reply { seq, .. }) = Envelope::decode(frame) {
            if let Some(i) = self.ping_seqs.iter().position(|s| *s == seq) {
                self.ping_seqs.swap_remove(i);
                return;
            }
        }
        self.bytes += frame.len() as u64;
    }
}

/// The debugger's end of the wire.
pub struct DebuggerEnd<W> {
    inner: W,
    log: Log,
}

impl<W> DebuggerEnd<W> {
    pub fn new(inner: W, log: Log) -> Self {
        DebuggerEnd { inner, log }
    }
}

impl<W: Wire> Wire for DebuggerEnd<W> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        {
            let mut l = lock(&self.log);
            match Envelope::decode(frame) {
                Some(Envelope::Req {
                    seq,
                    req: Request::Ping,
                }) => {
                    l.pings += 1;
                    l.ping_seqs.push(seq);
                }
                _ => l.bytes += frame.len() as u64,
            }
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let t0 = Instant::now();
        let r = self.inner.recv();
        let mut l = lock(&self.log);
        l.waits.push((t0, Instant::now()));
        if let Ok(f) = &r {
            l.note_in(f);
        }
        r
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let r = self.inner.recv_timeout(timeout);
        let mut l = lock(&self.log);
        l.waits.push((t0, Instant::now()));
        match &r {
            Ok(Some(f)) => l.note_in(f),
            Ok(None) => l.quiet_polls += 1,
            Err(_) => {}
        }
        r
    }
}

/// The nub's end of the wire, handed to the nub through
/// `NubHandle::connect`.
pub struct NubEnd<W> {
    inner: W,
    log: Log,
}

impl<W> NubEnd<W> {
    pub fn new(inner: W, log: Log) -> Self {
        NubEnd { inner, log }
    }
}

impl<W: Wire> Wire for NubEnd<W> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        {
            let mut l = lock(&self.log);
            if let Some(t) = l.nub_arrival.take() {
                l.nub_serve += t.elapsed();
                l.nub_served += 1;
            }
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let r = self.inner.recv();
        if r.is_ok() {
            lock(&self.log).nub_arrival = Some(Instant::now());
        }
        r
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let t0 = Instant::now();
        let r = self.inner.recv_timeout(timeout);
        let mut l = lock(&self.log);
        match &r {
            Ok(Some(_)) => l.nub_arrival = Some(Instant::now()),
            Ok(None) => {
                l.nub_idle_polls += 1;
                l.nub_idle += t0.elapsed();
            }
            Err(_) => {}
        }
        r
    }
}
