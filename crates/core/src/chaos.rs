//! Deterministic target-memory corruption — the hostile-target layer.
//!
//! [`ChaosMemory`] wraps the abstract memory a target's frame walkers and
//! printers read through and corrupts what comes back: saved frame
//! pointers, return addresses, saved-register areas, and pointed-to data
//! are all just `d`-space fetches, so a single corrupting layer above the
//! wire (and its cache) makes the *whole* inspection path hostile. Run
//! control is untouched — the nub client talks to the wire directly, so
//! breakpoints, stepping, and continues stay reliable while everything
//! the debugger believes about the stopped target may be a lie. That is
//! exactly the trust boundary of a corrupted target: the process still
//! runs, its memory is garbage.
//!
//! Like the nub's `FaultyWire`, every decision comes from the one seeded
//! generator, [`ldb_trace::seeded::Rng`]: the same seed yields the same
//! corruption schedule forever, so a chaos run that breaks the debugger
//! once breaks it the same way under `--chaos SEED` until the bug is
//! fixed. No wall clock, no OS entropy.

use std::cell::RefCell;

use ldb_trace::seeded::{parse_spec, Rng};
use ldb_trace::{Layer, Severity, Trace};

use crate::amemory::{AbstractMemory, MemRef, MemResult};

/// How to corrupt, and how often.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// PRNG seed; the whole corruption schedule is a pure function of it.
    pub seed: u64,
    /// Probability any one `d`-space fetch result is corrupted.
    pub rate: f64,
    /// Restrict *applied* corruptions to schedule indices `[lo, hi)`:
    /// corruption events outside the window are suppressed — the fetch
    /// returns the true value, the PRNG is still drawn identically, and
    /// the event is counted in [`ChaosStats::suppressed`]. This is the
    /// seed minimizer's knob: a failing seed's schedule is bisected down
    /// to the narrowest window that still reproduces its crash bucket.
    /// `None` applies the whole schedule.
    pub window: Option<(u64, u64)>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 0, rate: 0.05, window: None }
    }
}

impl ChaosConfig {
    /// Parse a `--chaos` spec: a bare seed (`--chaos 42`), a `key=value,…`
    /// list (`--chaos seed=42,rate=0.1`), or a bare seed followed by
    /// `key=value` items (`--chaos 42,rate=0.1`).
    ///
    /// # Errors
    /// Unknown keys, malformed numbers, or a rate outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<ChaosConfig, String> {
        let mut cfg = ChaosConfig::default();
        cfg.seed = parse_spec("chaos", spec, |item| {
            match item.key {
                "rate" => cfg.rate = item.prob()?,
                // The minimizer's window, spelled `window=lo..hi` (half
                // open, in corruption-schedule indices).
                "window" => {
                    let bad =
                        || format!("chaos window `{}` is not lo..hi with lo < hi", item.value);
                    let (lo, hi) = item.value.split_once("..").ok_or_else(bad)?;
                    let (lo, hi): (u64, u64) =
                        (lo.parse().map_err(|_| bad())?, hi.parse().map_err(|_| bad())?);
                    if lo >= hi {
                        return Err(bad());
                    }
                    cfg.window = Some((lo, hi));
                }
                _ => return Err(item.unknown()),
            }
            Ok(())
        })?;
        Ok(cfg)
    }
}

/// What the chaos layer did so far (`info health` sums this across
/// targets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Fetch results corrupted.
    pub corruptions: u64,
    /// Fetches inspected (corrupted or not).
    pub fetches: u64,
    /// Scheduled corruptions suppressed by [`ChaosConfig::window`] (0
    /// without a window).
    pub suppressed: u64,
}

/// The corruption modes, weighted equally. Self-pointing is listed first
/// because it is the nastiest: a saved frame pointer that points at its
/// own slot is an instant frame-chain cycle, and a `next` field that
/// points at its own node is an instant list cycle.
const MODES: [&str; 4] = ["selfpoint", "bitflip", "zero", "garbage"];

struct ChaosState {
    rng: Rng,
    stats: ChaosStats,
}

/// An [`AbstractMemory`] layer that corrupts `d`-space fetch results.
/// Stores and code fetches pass through untouched — the debugger's own
/// mutations (plants, patches) must land, and the corruption target is
/// the *data* a walker or printer trusts.
pub struct ChaosMemory {
    inner: MemRef,
    cfg: ChaosConfig,
    state: RefCell<ChaosState>,
    trace: Trace,
}

impl ChaosMemory {
    /// Wrap `inner` with the given corruption policy, journaling every
    /// corruption as a [`Layer::Dbg`] `chaos` record.
    pub fn new(inner: MemRef, cfg: ChaosConfig, trace: Trace) -> ChaosMemory {
        let state =
            RefCell::new(ChaosState { rng: Rng::new(cfg.seed), stats: ChaosStats::default() });
        ChaosMemory { inner, cfg, state, trace }
    }

    /// The corruption counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.state.borrow().stats
    }
}

impl AbstractMemory for ChaosMemory {
    fn fetch(&self, space: char, offset: i64, size: u8) -> MemResult<u64> {
        let v = self.inner.fetch(space, offset, size)?;
        if space != 'd' {
            return Ok(v);
        }
        let mut st = self.state.borrow_mut();
        st.stats.fetches += 1;
        if !st.rng.hit(self.cfg.rate) {
            return Ok(v);
        }
        let bits = u64::from(size.min(8)) * 8;
        let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let mode = st.rng.below(MODES.len() as u64) as usize;
        let corrupted = match mode {
            0 => offset as u64,                        // self-point
            1 => v ^ (1u64 << st.rng.below(bits.max(1))), // bitflip
            2 => 0,                                    // zero
            _ => st.rng.next_u64(),                    // garbage
        } & mask;
        // The schedule index of this corruption event; a window outside
        // it suppresses the corruption *after* the PRNG draws, so the
        // surviving events' values are unchanged by the narrowing.
        let event = st.stats.corruptions + st.stats.suppressed;
        if let Some((lo, hi)) = self.cfg.window {
            if event < lo || event >= hi {
                st.stats.suppressed += 1;
                return Ok(v);
            }
        }
        st.stats.corruptions += 1;
        drop(st);
        self.trace.emit(
            Layer::Dbg,
            Severity::Debug,
            "chaos",
            &[
                ("addr", offset.into()),
                ("size", i64::from(size).into()),
                ("mode", MODES[mode].into()),
                ("was", (v as i64).into()),
                ("now", (corrupted as i64).into()),
            ],
        );
        Ok(corrupted)
    }

    fn store(&self, space: char, offset: i64, size: u8, value: u64) -> MemResult<()> {
        self.inner.store(space, offset, size, value)
    }

    fn name(&self) -> &'static str {
        "chaos"
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;
    use crate::amemory::FakeMemory;

    fn filled_fake() -> Rc<FakeMemory> {
        let fake = FakeMemory::default();
        for a in 0..64i64 {
            fake.store('d', a, 1, 0xAB).unwrap();
            fake.store('c', a, 1, 0xCD).unwrap();
        }
        Rc::new(fake)
    }

    #[test]
    fn same_seed_same_schedule() {
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let chaos = ChaosMemory::new(
                    filled_fake(),
                    ChaosConfig { seed: 7, rate: 0.5, window: None },
                    Trace::off(),
                );
                (0..32).map(|a| chaos.fetch('d', a, 1).unwrap()).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        // And the schedule really corrupts something at rate 0.5.
        assert!(runs[0].iter().any(|&v| v != 0xAB));
    }

    #[test]
    fn different_seeds_differ() {
        let read = |seed| -> Vec<u64> {
            let chaos = ChaosMemory::new(
                filled_fake(),
                ChaosConfig { seed, rate: 0.5, window: None },
                Trace::off(),
            );
            (0..32).map(|a| chaos.fetch('d', a, 1).unwrap()).collect()
        };
        assert_ne!(read(1), read(2));
    }

    #[test]
    fn code_space_and_stores_pass_through() {
        let fake = filled_fake();
        let chaos =
            ChaosMemory::new(fake.clone(), ChaosConfig { seed: 3, rate: 1.0, window: None }, Trace::off());
        for a in 0..32 {
            assert_eq!(chaos.fetch('c', a, 1).unwrap(), 0xCD);
        }
        chaos.store('d', 5, 1, 0x11).unwrap();
        assert_eq!(fake.fetch('d', 5, 1).unwrap(), 0x11);
        // Every d fetch at rate 1.0 is corrupted and counted.
        let _ = chaos.fetch('d', 5, 1).unwrap();
        assert_eq!(chaos.stats().corruptions, 1);
    }

    #[test]
    fn rate_zero_is_a_no_op() {
        let chaos =
            ChaosMemory::new(filled_fake(), ChaosConfig { seed: 9, rate: 0.0, window: None }, Trace::off());
        for a in 0..32 {
            assert_eq!(chaos.fetch('d', a, 1).unwrap(), 0xAB);
        }
        assert_eq!(chaos.stats().corruptions, 0);
        assert_eq!(chaos.stats().fetches, 32);
    }

    #[test]
    fn window_suppresses_outside_events_without_shifting_survivors() {
        let read = |window| -> (Vec<u64>, ChaosStats) {
            let chaos = ChaosMemory::new(
                filled_fake(),
                ChaosConfig { seed: 11, rate: 1.0, window },
                Trace::off(),
            );
            let vals = (0..16).map(|a| chaos.fetch('d', a, 1).unwrap()).collect();
            (vals, chaos.stats())
        };
        let (full, full_stats) = read(None);
        assert_eq!(full_stats.corruptions, 16);
        assert_eq!(full_stats.suppressed, 0);
        let (windowed, stats) = read(Some((4, 8)));
        assert_eq!(stats.corruptions, 4);
        assert_eq!(stats.suppressed, 12);
        for (i, (w, f)) in windowed.iter().zip(full.iter()).enumerate() {
            if (4..8).contains(&i) {
                // Events inside the window corrupt to the same values as
                // the full schedule (the PRNG draws are unchanged).
                assert_eq!(w, f, "event {i} diverged inside the window");
            } else {
                assert_eq!(*w, 0xAB, "event {i} not suppressed outside the window");
            }
        }
    }

    #[test]
    fn parse_accepts_bare_seed_and_key_values() {
        assert_eq!(ChaosConfig::parse("42").unwrap().seed, 42);
        let cfg = ChaosConfig::parse("seed=7,rate=0.25").unwrap();
        assert_eq!(cfg.seed, 7);
        assert!((cfg.rate - 0.25).abs() < 1e-12);
        // The documented short form: bare seed, then key=value items.
        let cfg = ChaosConfig::parse("9,rate=0.5").unwrap();
        assert_eq!(cfg.seed, 9);
        assert!((cfg.rate - 0.5).abs() < 1e-12);
        assert!(ChaosConfig::parse("rate=2").is_err());
        assert!(ChaosConfig::parse("bogus=1").is_err());
        assert!(ChaosConfig::parse("0.5").is_err(), "a bare non-integer is not a seed");
        assert_eq!(ChaosConfig::parse("7,window=2..9").unwrap().window, Some((2, 9)));
        assert!(ChaosConfig::parse("window=5..5").is_err(), "empty window");
        assert!(ChaosConfig::parse("window=5").is_err(), "window needs lo..hi");
    }
}
