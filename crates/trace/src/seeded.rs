//! Seeded schedules: the one generator, the one spec grammar and the one
//! content hash. `FaultyWire`, `ChaosMemory` and the nub client's backoff
//! jitter draw from [`Rng`]/[`splitmix64`]; `--fault` and `--chaos` specs
//! are read by [`parse_spec`]; the module-cache key and the fleet bucket
//! id are [`fnv1a`]. No wall clock, no OS entropy: a seed yields the same
//! schedule forever, so a run that fails once fails the same way.

use std::str::FromStr;

/// splitmix64's increment (the 64-bit golden ratio).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step from a raw `state`; [`Rng`] whitens its seed first.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64 seeded from a schedule seed: small, seedable, and plenty
/// random for fault and corruption schedules.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    #[inline]
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed ^ GAMMA }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// True with probability `p`. Draws nothing when `p` is 0, so a zero
    /// rate leaves the rest of the schedule where it was.
    #[inline]
    pub fn hit(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A uniform draw from `0..n`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a, 64-bit: stable across platforms and runs, which is what a
/// cache key and a report id need (DoS resistance is not a requirement).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One `key=value` item of a spec; its readers' errors name the spec
/// kind (`fault`, `chaos`).
#[derive(Debug, Clone, Copy)]
pub struct SpecItem<'a> {
    what: &'a str,
    pub key: &'a str,
    pub value: &'a str,
}

impl SpecItem<'_> {
    /// # Errors
    /// A value that does not parse as `T`.
    pub fn num<T: FromStr>(&self) -> Result<T, String> {
        self.value.parse().map_err(|_| format!("bad {} {} `{}`", self.what, self.key, self.value))
    }

    /// # Errors
    /// A malformed number, or one outside `[0, 1]`.
    pub fn prob(&self) -> Result<f64, String> {
        let p: f64 = self.num()?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("{} {}={} outside [0, 1]", self.what, self.key, self.value));
        }
        Ok(p)
    }

    /// The error for a key this spec kind does not know.
    pub fn unknown(&self) -> String {
        format!("unknown {} key `{}`", self.what, self.key)
    }
}

/// Read a `what` spec: an optional leading bare seed, then comma-separated
/// `key=value` items (`42`, `seed=42,rate=0.1`, `42,drop=0.1`). `seed=` is
/// handled here; every other item goes to `item`, in order. Returns the
/// seed, 0 when the spec names none.
///
/// # Errors
/// An item that is not `key=value`, a bad seed, or what `item` rejects.
pub fn parse_spec<'a>(
    what: &'a str,
    spec: &'a str,
    mut item: impl FnMut(SpecItem<'a>) -> Result<(), String>,
) -> Result<u64, String> {
    let mut seed = 0;
    for (i, part) in spec.split(',').map(str::trim).filter(|p| !p.is_empty()).enumerate() {
        if let (0, Ok(s)) = (i, part.parse()) {
            seed = s;
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{what} spec item `{part}` is not key=value"))?;
        let it = SpecItem { what, key, value };
        if key == "seed" {
            seed = it.num()?;
        } else {
            item(it)?;
        }
    }
    Ok(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        // The first outputs of splitmix64 from state 0 (Vigna's
        // reference implementation).
        let mut s = 0;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        // A seeded generator starts from the whitened seed.
        let mut state = 5 ^ GAMMA;
        assert_eq!(Rng::new(5).next_u64(), splitmix64(&mut state));
    }

    #[test]
    fn hit_and_below_stay_in_range() {
        let mut rng = Rng::new(1);
        assert!(!rng.hit(0.0));
        assert!(rng.hit(1.0));
        assert!((0..1000).all(|_| rng.below(7) < 7));
        // A zero rate draws nothing: the schedule after it is unmoved.
        let (mut a, mut b) = (Rng::new(9), Rng::new(9));
        assert!(!a.hit(0.0));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn spec_reads_seed_forms_and_hands_on_the_rest() {
        let read = |spec| {
            let mut items = Vec::new();
            parse_spec("test", spec, |it| {
                items.push(format!("{}={}", it.key, it.value));
                Ok(())
            })
            .map(|seed| (seed, items))
        };
        assert_eq!(read(""), Ok((0, vec![])));
        assert_eq!(read("42"), Ok((42, vec![])));
        assert_eq!(read(" 9 , rate=0.5"), Ok((9, vec!["rate=0.5".to_string()])));
        assert_eq!(read("rate=0.5,seed=7"), Ok((7, vec!["rate=0.5".to_string()])));
        assert!(read("rate=0.5,7").is_err(), "a bare seed only leads");
        assert!(read("0.5").is_err(), "a bare non-integer is not a seed");
        assert!(read("seed=abc").is_err());
    }

    #[test]
    fn spec_item_readers_check_their_values() {
        let item = |key, value| SpecItem { what: "test", key, value };
        assert_eq!(item("p", "0.25").prob(), Ok(0.25));
        assert!(item("p", "1.5").prob().is_err());
        assert!(item("p", "-0.1").prob().is_err());
        assert!(item("p", "x").prob().is_err());
        assert_eq!(item("n", "12").num::<u64>(), Ok(12));
        assert_eq!(item("bogus", "1").unknown(), "unknown test key `bogus`");
    }
}
