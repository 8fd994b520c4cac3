//! Deterministic fault injection for nub wires.
//!
//! [`FaultyWire`] wraps any [`Wire`] and injects the failures a remote
//! debugging session actually meets: dropped frames, flipped bytes,
//! truncation, duplicated frames, artificial latency, and a hard
//! disconnect after a set number of frames. Every decision comes from the
//! one seeded generator, [`ldb_trace::seeded::Rng`] — the same seed
//! always yields the same fault schedule, so a stress run that fails once
//! fails the same way forever. There is no wall-clock or OS entropy
//! anywhere in the schedule.
//!
//! The wrapper lives on the debugger's side of the connection. A hard
//! disconnect *drops the inner wire*, which the nub's end observes as a
//! vanished peer — exactly what a debugger crash looks like from the
//! target, so the nub's state-preservation path (Sec. 4.2: "If the
//! debugger crashes, the nub preserves the target's state and waits for a
//! new connection") is exercised for real.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ldb_trace::seeded::{parse_spec, Rng};
use ldb_trace::{Layer, Severity, Trace};

use crate::transport::Wire;

/// What to inject, and how often. All probabilities are per frame, in
/// `[0, 1]`. The default injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// PRNG seed; the whole fault schedule is a pure function of it.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability one byte of a frame is flipped.
    pub corrupt: f64,
    /// Probability a frame loses its tail.
    pub truncate: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Maximum artificial latency per frame, in milliseconds (actual
    /// delay is drawn uniformly from `0..=delay_ms`).
    pub delay_ms: u64,
    /// Hard-disconnect after this many frames have crossed the wire.
    pub disconnect_after: Option<u64>,
}

impl FaultConfig {
    /// Parse a `--fault` spec: an optional leading bare seed, then
    /// `key=value` items, e.g.
    /// `seed=42,drop=0.1,corrupt=0.05,dup=0.02,truncate=0.01,delay=2,disconnect=400`
    /// or `42,drop=0.1`.
    ///
    /// # Errors
    /// Unknown keys, malformed numbers, or probabilities outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        cfg.seed = parse_spec("fault", spec, |item| {
            match item.key {
                "drop" => cfg.drop = item.prob()?,
                "corrupt" => cfg.corrupt = item.prob()?,
                "truncate" => cfg.truncate = item.prob()?,
                "dup" | "duplicate" => cfg.duplicate = item.prob()?,
                "delay" | "delay_ms" => cfg.delay_ms = item.num()?,
                "disconnect" | "disconnect_after" => cfg.disconnect_after = Some(item.num()?),
                _ => return Err(item.unknown()),
            }
            Ok(())
        })?;
        Ok(cfg)
    }
}

/// Running tally of injected faults (useful for logs and assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames that crossed the wire (both directions), pre-fault.
    pub frames: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames with a flipped byte.
    pub corrupted: u64,
    /// Frames truncated.
    pub truncated: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Whether the hard disconnect has fired.
    pub disconnected: bool,
}

/// A [`Wire`] that injects deterministic faults around an inner wire.
pub struct FaultyWire {
    inner: Option<Box<dyn Wire>>,
    cfg: FaultConfig,
    rng: Rng,
    /// Shared so callers can keep reading the tally after the wire is
    /// boxed into a client (see [`FaultyWire::stats_handle`]).
    stats: Arc<Mutex<FaultStats>>,
    /// A duplicated inbound frame waiting to be delivered again.
    pending_dup: Option<Vec<u8>>,
    /// Flight-recorder handle; every injected fault becomes a
    /// [`Layer::Wire`] `fault` record.
    trace: Trace,
}

impl FaultyWire {
    /// Wrap `inner` with the fault schedule seeded by `cfg`.
    pub fn new(inner: Box<dyn Wire>, cfg: FaultConfig) -> FaultyWire {
        FaultyWire {
            inner: Some(inner),
            rng: Rng::new(cfg.seed),
            cfg,
            stats: Arc::new(Mutex::new(FaultStats::default())),
            pending_dup: None,
            trace: Trace::off(),
        }
    }

    /// Convenience wrapper for a concrete wire.
    pub fn wrap<W: Wire + 'static>(inner: W, cfg: FaultConfig) -> FaultyWire {
        FaultyWire::new(Box::new(inner), cfg)
    }

    /// Attach (or detach, with [`Trace::off`]) the flight recorder.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Fault counters so far.
    ///
    /// # Panics
    /// If a previous holder of the stats lock panicked.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock().unwrap()
    }

    /// A handle onto the live fault counters, usable after the wire has
    /// been boxed into a [`crate::NubClient`] (the trace-vs-ground-truth
    /// cross-checks in the fault-injection tests read it).
    pub fn stats_handle(&self) -> Arc<Mutex<FaultStats>> {
        Arc::clone(&self.stats)
    }

    fn severed() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "fault injection: hard disconnect")
    }

    /// Record one injected fault in the journal.
    fn emit_fault(&self, op: &'static str, dir: &'static str) {
        if self.trace.is_on() {
            let frame = self.stats.lock().unwrap().frames;
            self.trace.emit(
                Layer::Wire,
                Severity::Warn,
                "fault",
                &[("op", op.into()), ("dir", dir.into()), ("frame", frame.into())],
            );
        }
    }

    /// Count a frame; sever the wire if the disconnect budget is spent.
    fn tick(&mut self) -> io::Result<&mut Box<dyn Wire>> {
        let mut stats = self.stats.lock().unwrap();
        if let Some(limit) = self.cfg.disconnect_after {
            if stats.frames >= limit && self.inner.is_some() {
                // Dropping the inner wire is the crash: the peer's next
                // operation sees a vanished endpoint.
                self.inner = None;
                stats.disconnected = true;
                let frame = stats.frames;
                self.trace.emit(
                    Layer::Wire,
                    Severity::Warn,
                    "fault",
                    &[("op", "disconnect".into()), ("frame", frame.into())],
                );
            }
        }
        stats.frames += 1;
        drop(stats);
        self.inner.as_mut().ok_or_else(Self::severed)
    }

    fn delay(&mut self) {
        if self.cfg.delay_ms > 0 {
            let ms = self.rng.below(self.cfg.delay_ms + 1);
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }

    /// Apply payload faults; `None` means the frame was dropped.
    fn mangle(&mut self, frame: &[u8], dir: &'static str) -> Option<Vec<u8>> {
        if self.rng.hit(self.cfg.drop) {
            self.stats.lock().unwrap().dropped += 1;
            self.emit_fault("drop", dir);
            return None;
        }
        let mut out = frame.to_vec();
        if self.rng.hit(self.cfg.corrupt) && !out.is_empty() {
            let i = self.rng.below(out.len() as u64) as usize;
            let flip = (self.rng.below(255) + 1) as u8;
            out[i] ^= flip;
            self.stats.lock().unwrap().corrupted += 1;
            self.emit_fault("corrupt", dir);
        }
        if self.rng.hit(self.cfg.truncate) && !out.is_empty() {
            let keep = self.rng.below(out.len() as u64) as usize;
            out.truncate(keep);
            self.stats.lock().unwrap().truncated += 1;
            self.emit_fault("truncate", dir);
        }
        Some(out)
    }
}

impl Wire for FaultyWire {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.delay();
        let dup = self.rng.hit(self.cfg.duplicate);
        let mangled = self.mangle(frame, "tx");
        let wire = self.tick()?;
        match mangled {
            None => Ok(()), // dropped: swallowed without a trace
            Some(out) => {
                wire.send(&out)?;
                if dup {
                    self.stats.lock().unwrap().duplicated += 1;
                    self.emit_fault("dup", "tx");
                    let wire = self.inner.as_mut().ok_or_else(Self::severed)?;
                    wire.send(&out)?;
                }
                Ok(())
            }
        }
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(f) = self.pending_dup.take() {
                return Ok(f);
            }
            self.delay();
            let frame = {
                let wire = self.tick()?;
                wire.recv()?
            };
            if self.rng.hit(self.cfg.duplicate) {
                self.stats.lock().unwrap().duplicated += 1;
                self.emit_fault("dup", "rx");
                self.pending_dup = Some(frame.clone());
            }
            match self.mangle(&frame, "rx") {
                Some(out) => return Ok(out),
                None => continue, // dropped: keep waiting, as a real loss would look
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(f) = self.pending_dup.take() {
                return Ok(Some(f));
            }
            self.delay();
            let left = deadline.saturating_duration_since(Instant::now());
            let frame = {
                let wire = self.tick()?;
                match wire.recv_timeout(left)? {
                    Some(f) => f,
                    None => return Ok(None),
                }
            };
            if self.rng.hit(self.cfg.duplicate) {
                self.stats.lock().unwrap().duplicated += 1;
                self.emit_fault("dup", "rx");
                self.pending_dup = Some(frame.clone());
            }
            match self.mangle(&frame, "rx") {
                Some(out) => return Ok(Some(out)),
                None => continue,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::channel_pair;

    fn lossy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop: 0.3,
            corrupt: 0.2,
            truncate: 0.1,
            duplicate: 0.2,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn parse_full_spec() {
        let cfg = FaultConfig::parse(
            "seed=42, drop=0.1, corrupt=0.05, truncate=0.01, dup=0.02, delay=3, disconnect=400",
        )
        .unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.drop, 0.1);
        assert_eq!(cfg.corrupt, 0.05);
        assert_eq!(cfg.truncate, 0.01);
        assert_eq!(cfg.duplicate, 0.02);
        assert_eq!(cfg.delay_ms, 3);
        assert_eq!(cfg.disconnect_after, Some(400));
        // A leading bare seed, as `--chaos` takes.
        let cfg = FaultConfig::parse("7,drop=0.5").unwrap();
        assert_eq!((cfg.seed, cfg.drop), (7, 0.5));
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(FaultConfig::parse("drop").is_err());
        assert!(FaultConfig::parse("drop=2.0").is_err());
        assert!(FaultConfig::parse("bogus=1").is_err());
        assert!(FaultConfig::parse("seed=abc").is_err());
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
    }

    #[test]
    fn benign_config_is_transparent() {
        let (a, mut b) = channel_pair();
        let mut f = FaultyWire::wrap(a, FaultConfig::default());
        for i in 0..50u8 {
            f.send(&[i; 8]).unwrap();
            assert_eq!(b.recv().unwrap(), [i; 8]);
        }
        assert_eq!(f.stats().dropped + f.stats().corrupted, 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        // Two runs with one seed inject identical faults; a different
        // seed gives a different schedule.
        let run = |seed| {
            let (a, mut b) = channel_pair();
            let mut f = FaultyWire::wrap(a, lossy(seed));
            let mut delivered = Vec::new();
            for i in 0..100u8 {
                f.send(&[i, i, i]).unwrap();
                while let Ok(Some(frame)) =
                    b.recv_timeout(Duration::from_millis(1))
                {
                    delivered.push(frame);
                }
            }
            (delivered, f.stats())
        };
        let (d1, s1) = run(7);
        let (d2, s2) = run(7);
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
        assert!(s1.dropped > 0 && s1.corrupted > 0, "{s1:?}");
        let (d3, _) = run(8);
        assert_ne!(d1, d3);
    }

    #[test]
    fn disconnect_after_severs_both_ends() {
        let (a, mut b) = channel_pair();
        let cfg = FaultConfig { disconnect_after: Some(3), ..FaultConfig::default() };
        let mut f = FaultyWire::wrap(a, cfg);
        f.send(b"1").unwrap();
        f.send(b"2").unwrap();
        f.send(b"3").unwrap();
        assert_eq!(f.send(b"4").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert!(f.stats().disconnected);
        // The peer drains what was sent, then sees the dead wire.
        assert_eq!(b.recv().unwrap(), b"1");
        assert_eq!(b.recv().unwrap(), b"2");
        assert_eq!(b.recv().unwrap(), b"3");
        assert!(b.recv().is_err());
    }

    #[test]
    fn recv_applies_inbound_faults() {
        let (a, mut b) = channel_pair();
        let cfg = FaultConfig { seed: 3, duplicate: 1.0, ..FaultConfig::default() };
        let mut f = FaultyWire::wrap(a, cfg);
        b.send(b"once").unwrap();
        assert_eq!(f.recv().unwrap(), b"once");
        assert_eq!(f.recv().unwrap(), b"once", "duplicate delivered on next recv");
    }
}
