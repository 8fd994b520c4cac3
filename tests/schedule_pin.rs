//! Schedule pin: the seeded fault and chaos injectors turn a seed into
//! the same faults forever.
//!
//! The `same_seed_same_schedule` unit tests compare two runs of the same
//! code, so they cannot notice a generator that was reshuffled, reseeded
//! or re-derived: both runs move together. This test records one FNV-1a
//! digest per schedule instead — the frames a lossy [`FaultyWire`]
//! delivers in both directions with its [`FaultStats`], and the values a
//! [`ChaosMemory`] returns with its [`ChaosStats`], with and without a
//! minimizer window — so any change to which generator, seeding or draw
//! order turns a seed into faults fails here.
//!
//! The digests are computed by a local FNV-1a, independent of the code
//! under test.

use std::rc::Rc;
use std::time::Duration;

use ldb_suite::core::amemory::FakeMemory;
use ldb_suite::core::{AbstractMemory, ChaosConfig, ChaosMemory, ChaosStats};
use ldb_suite::nub::{channel_pair, FaultConfig, FaultStats, FaultyWire, Wire};
use ldb_suite::trace::Trace;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent fields cannot trade bytes.
    fn field(&mut self, b: &[u8]) {
        self.bytes(&(b.len() as u64).to_le_bytes());
        self.bytes(b);
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn fault_stats(&mut self, s: FaultStats) {
        for w in [s.frames, s.dropped, s.corrupted, s.truncated, s.duplicated, u64::from(s.disconnected)] {
            self.word(w);
        }
    }

    fn chaos_stats(&mut self, s: ChaosStats) {
        for w in [s.corruptions, s.fetches, s.suppressed] {
            self.word(w);
        }
    }
}

fn lossy(seed: u64) -> FaultConfig {
    FaultConfig { seed, drop: 0.3, corrupt: 0.2, truncate: 0.1, duplicate: 0.2, ..FaultConfig::default() }
}

/// 100 frames out through a lossy wire, then 100 frames in: every frame
/// delivered on either side and the final tally, for each seed.
fn fault_digest(seeds: std::ops::RangeInclusive<u64>) -> u64 {
    let mut h = Fnv::new();
    for seed in seeds {
        h.word(seed);
        let (a, mut b) = channel_pair();
        let mut f = FaultyWire::wrap(a, lossy(seed));
        for i in 0..100u8 {
            f.send(&[i, i.wrapping_mul(7), i ^ 0x5a, 0xff]).unwrap();
            while let Ok(Some(frame)) = b.recv_timeout(Duration::from_millis(1)) {
                h.field(&frame);
            }
        }
        h.word(u64::MAX);
        for i in 0..100u8 {
            b.send(&[0xee, i, i.wrapping_mul(13)]).unwrap();
        }
        while let Some(frame) = f.recv_timeout(Duration::from_millis(1)).unwrap() {
            h.field(&frame);
        }
        let stats = f.stats();
        assert!(stats.dropped * stats.corrupted * stats.truncated * stats.duplicated > 0, "{stats:?}");
        h.fault_stats(stats);
    }
    h.0
}

/// 64 mixed-width `d`-space fetches through a rate-0.5 chaos layer (plus
/// a code fetch every eighth address, which must not draw), for each
/// seed.
fn chaos_digest(seeds: std::ops::RangeInclusive<u64>, window: Option<(u64, u64)>) -> u64 {
    let mut h = Fnv::new();
    for seed in seeds {
        h.word(seed);
        let fake = FakeMemory::default();
        for a in 0..600i64 {
            fake.store('d', a, 1, (a as u64).wrapping_mul(0x9d) & 0xff).unwrap();
            fake.store('c', a, 1, 0xcd).unwrap();
        }
        let chaos = ChaosMemory::new(Rc::new(fake), ChaosConfig { seed, rate: 0.5, window }, Trace::off());
        for i in 0..64i64 {
            let size = [1u8, 2, 4, 8][(i % 4) as usize];
            h.word(chaos.fetch('d', i * 8, size).unwrap());
            if i % 8 == 0 {
                h.word(chaos.fetch('c', i, 4).unwrap());
            }
        }
        let stats = chaos.stats();
        assert!(stats.corruptions > 0 && (window.is_none() || stats.suppressed > 0), "{stats:?}");
        h.chaos_stats(stats);
    }
    h.0
}

#[test]
fn fault_schedule_is_pinned() {
    assert_eq!(fault_digest(1..=8), 0x3f61_db11_dfc1_9157, "FaultyWire schedule changed");
}

#[test]
fn chaos_schedule_is_pinned() {
    assert_eq!(chaos_digest(1..=8, None), 0xfdc9_3508_612c_aa3b, "ChaosMemory schedule changed");
}

#[test]
fn windowed_chaos_schedule_is_pinned() {
    let window = ChaosConfig::parse("window=4..12").unwrap().window;
    assert_eq!(window, Some((4, 12)));
    assert_eq!(chaos_digest(1..=8, window), 0xf2e7_0806_5505_429b, "windowed ChaosMemory schedule changed");
}

#[test]
fn bucket_id_is_fnv1a_of_the_key() {
    for key in ["", "wire-lost", "script-error|error: no symbol `#`|health=chaos_corruptions"] {
        let mut h = Fnv::new();
        h.bytes(key.as_bytes());
        assert_eq!(ldb_suite::fleet::bucket::bucket_id(key), format!("{:016x}", h.0), "{key}");
    }
}
