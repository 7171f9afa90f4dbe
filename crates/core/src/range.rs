//! Value-range (interval) abstract domain and unspeculatable address
//! ranges.
//!
//! The static dataflow analyzer in `crates/verify` interprets guest
//! programs over an **interval lattice**: every integer register is
//! abstracted to a closed interval `[lo, hi]` of the concrete `i64`
//! values it can hold. The lattice is the standard one:
//!
//! * ⊥ (bottom) — no value, represented as `lo > hi`;
//! * exact singletons `[v, v]`;
//! * finite intervals `[lo, hi]` with `lo <= hi`;
//! * ⊤ (top) — `[i64::MIN, i64::MAX]`.
//!
//! Soundness contract: for every transfer function here, if the concrete
//! inputs are contained in the abstract inputs, the concrete result (with
//! the guest's *wrapping* semantics — see `smarq_guest::AluOp::apply`) is
//! contained in the abstract result. Arithmetic is evaluated in `i128`;
//! any corner that leaves the `i64` range means the concrete operation
//! may wrap, and the result is widened to ⊤ rather than modelling the
//! wrap-around precisely.
//!
//! [`NospecRanges`] is the *unspeculatable address range* configuration
//! (ROADMAP item 5): a set of guest address ranges (e.g. memory-mapped
//! device registers) across which the optimizer must never speculate.
//! A memory operation whose derived address interval can touch such a
//! range is *tainted*: it is never reordered, never eliminated, and never
//! carries P/C bits.

use std::fmt;

/// A closed interval `[lo, hi]` of `i64` values; `lo > hi` is ⊥ (empty).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The empty interval ⊥ (canonically `[MAX, MIN]`).
    pub const BOTTOM: Interval = Interval {
        lo: i64::MAX,
        hi: i64::MIN,
    };

    /// The full interval ⊤ = `[i64::MIN, i64::MAX]`.
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The singleton `[v, v]`.
    pub fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; returns ⊥ when `lo > hi`.
    pub fn of(lo: i64, hi: i64) -> Interval {
        if lo > hi {
            Interval::BOTTOM
        } else {
            Interval { lo, hi }
        }
    }

    /// `true` for the empty interval.
    pub fn is_bottom(self) -> bool {
        self.lo > self.hi
    }

    /// `true` for `[i64::MIN, i64::MAX]`.
    pub fn is_top(self) -> bool {
        self.lo == i64::MIN && self.hi == i64::MAX
    }

    /// The singleton value, if the interval is exact.
    pub fn as_exact(self) -> Option<i64> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// `true` when `v` is inside the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `true` when two word accesses whose start addresses lie in `self`
    /// and `other` provably never touch the same word: both intervals are
    /// bounded (neither ⊥ nor ⊤) and their byte footprints
    /// `[lo, hi + ACCESS_BYTES - 1]` are disjoint. The optimizer's alias
    /// relation and the verifier both decide range disjointness here.
    pub fn access_disjoint(self, other: Interval) -> bool {
        if self.is_bottom() || other.is_bottom() || self.is_top() || other.is_top() {
            return false;
        }
        let reach = ACCESS_BYTES - 1;
        self.hi.saturating_add(reach) < other.lo || other.hi.saturating_add(reach) < self.lo
    }

    /// Partial order: `self` ⊑ `other` (every value of `self` is a value
    /// of `other`). ⊥ is below everything.
    pub fn le(self, other: Interval) -> bool {
        self.is_bottom() || (other.lo <= self.lo && self.hi <= other.hi)
    }

    /// Least upper bound (interval hull).
    pub fn join(self, other: Interval) -> Interval {
        if self.is_bottom() {
            return other;
        }
        if other.is_bottom() {
            return self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Standard interval widening: any bound that grew jumps straight to
    /// the corresponding infinity. Guarantees termination of fixpoint
    /// iteration — a chain `a, a ∇ b₁, (a ∇ b₁) ∇ b₂, …` stabilizes after
    /// at most two widenings per bound.
    pub fn widen(self, other: Interval) -> Interval {
        if self.is_bottom() {
            return other;
        }
        if other.is_bottom() {
            return self;
        }
        Interval {
            lo: if other.lo < self.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if other.hi > self.hi {
                i64::MAX
            } else {
                self.hi
            },
        }
    }

    fn combine_corners(self, other: Interval, f: impl Fn(i128, i128) -> i128) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        let corners = [
            f(self.lo as i128, other.lo as i128),
            f(self.lo as i128, other.hi as i128),
            f(self.hi as i128, other.lo as i128),
            f(self.hi as i128, other.hi as i128),
        ];
        let lo = corners.iter().copied().min().unwrap();
        let hi = corners.iter().copied().max().unwrap();
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            // The concrete op may wrap; modelling modular intervals is not
            // worth the complexity here.
            Interval::TOP
        } else {
            Interval {
                lo: lo as i64,
                hi: hi as i64,
            }
        }
    }
}

/// Abstract addition (sound w.r.t. wrapping concrete addition: any
/// corner outside `i64` ⇒ ⊤).
impl std::ops::Add for Interval {
    type Output = Interval;
    fn add(self, other: Interval) -> Interval {
        self.combine_corners(other, |a, b| a + b)
    }
}

/// Abstract subtraction.
impl std::ops::Sub for Interval {
    type Output = Interval;
    fn sub(self, other: Interval) -> Interval {
        self.combine_corners(other, |a, b| a - b)
    }
}

/// Abstract multiplication (corner products in `i128`).
impl std::ops::Mul for Interval {
    type Output = Interval;
    fn mul(self, other: Interval) -> Interval {
        self.combine_corners(other, |a, b| a * b)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            f.write_str("bot")
        } else if self.is_top() {
            f.write_str("top")
        } else if self.lo == self.hi {
            write!(f, "[{}]", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Abstract register state: one interval per target register (guest
/// architectural state lives in registers `0..32`; `32..` are translator
/// temporaries).
pub type RegState = [Interval; 64];

/// The state at interpreter start: every register is exactly zero.
pub fn zeroed_state() -> RegState {
    [Interval::exact(0); 64]
}

/// The unconstrained state: every register is ⊤.
pub fn top_state() -> RegState {
    [Interval::TOP; 64]
}

/// Joins `b` into `a` register-wise; returns `true` if `a` changed.
pub fn join_state(a: &mut RegState, b: &RegState) -> bool {
    let mut changed = false;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        let j = x.join(*y);
        if j != *x {
            *x = j;
            changed = true;
        }
    }
    changed
}

/// Widens `a` by `b` register-wise; returns `true` if `a` changed.
pub fn widen_state(a: &mut RegState, b: &RegState) -> bool {
    let mut changed = false;
    for (x, y) in a.iter_mut().zip(b.iter()) {
        let w = x.widen(x.join(*y));
        if w != *x {
            *x = w;
            changed = true;
        }
    }
    changed
}

/// Byte width of every guest memory access (the ISA is word-only).
pub const ACCESS_BYTES: i64 = 8;

/// A set of *unspeculatable* guest address ranges (inclusive byte
/// ranges). Parsed from `--nospec lo..hi[,lo..hi…]` (half-open bounds,
/// decimal or `0x` hex).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NospecRanges {
    ranges: Vec<(i64, i64)>,
}

impl NospecRanges {
    /// The empty set (speculation unrestricted).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds from inclusive `(lo, hi)` byte ranges; empty ranges are
    /// dropped.
    pub fn from_ranges(ranges: impl IntoIterator<Item = (i64, i64)>) -> Self {
        let mut r: Vec<(i64, i64)> = ranges.into_iter().filter(|&(lo, hi)| lo <= hi).collect();
        r.sort_unstable();
        r.dedup();
        NospecRanges { ranges: r }
    }

    /// Parses `lo..hi[,lo..hi…]` with **half-open** bounds (`0x100..0x200`
    /// covers bytes `0x100..=0x1ff`). Numbers are decimal or `0x` hex,
    /// optionally negative. The empty string parses as the empty set.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Self::none());
        }
        let mut ranges = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let (lo_s, hi_s) = part
                .split_once("..")
                .ok_or_else(|| format!("bad range '{part}': expected LO..HI"))?;
            let lo = parse_int(lo_s.trim())?;
            let hi_excl = parse_int(hi_s.trim())?;
            if hi_excl <= lo {
                return Err(format!("bad range '{part}': end must exceed start"));
            }
            ranges.push((lo, hi_excl - 1));
        }
        Ok(Self::from_ranges(ranges))
    }

    /// `true` when no ranges are configured.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The inclusive `(lo, hi)` ranges, sorted.
    pub fn ranges(&self) -> &[(i64, i64)] {
        &self.ranges
    }

    /// `true` when byte address `addr` is inside a range.
    pub fn contains(&self, addr: i64) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= addr && addr <= hi)
    }

    /// `true` when a word access whose **start address** lies anywhere in
    /// `addr` can touch a byte of some range (the access footprint is
    /// `[a, a + ACCESS_BYTES - 1]`). ⊤ start addresses intersect every
    /// non-empty set; ⊥ intersects nothing.
    pub fn intersects_access(&self, addr: Interval) -> bool {
        if addr.is_bottom() {
            return false;
        }
        let foot_hi = addr.hi.saturating_add(ACCESS_BYTES - 1);
        self.ranges
            .iter()
            .any(|&(lo, hi)| addr.lo <= hi && lo <= foot_hi)
    }
}

impl fmt::Display for NospecRanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            // Render back in the half-open input form.
            write!(f, "{:#x}..{:#x}", lo, hi + 1)?;
        }
        Ok(())
    }
}

fn parse_int(s: &str) -> Result<i64, String> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|e| format!("bad number '{s}': {e}"))?;
    Ok(if neg { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_basics() {
        let b = Interval::BOTTOM;
        let t = Interval::TOP;
        let x = Interval::of(3, 7);
        assert!(b.is_bottom() && !x.is_bottom() && !t.is_bottom());
        assert!(t.is_top() && !x.is_top());
        assert!(b.le(x) && x.le(t) && !t.le(x));
        assert_eq!(x.join(b), x);
        assert_eq!(b.join(x), x);
        assert_eq!(x.join(Interval::of(5, 10)), Interval::of(3, 10));
        assert_eq!(Interval::exact(4).as_exact(), Some(4));
        assert_eq!(x.as_exact(), None);
        assert!(x.contains(3) && x.contains(7) && !x.contains(8));
    }

    #[test]
    fn widen_jumps_to_infinity_per_bound() {
        let a = Interval::of(0, 10);
        assert_eq!(a.widen(Interval::of(0, 11)).hi, i64::MAX);
        assert_eq!(a.widen(Interval::of(0, 11)).lo, 0);
        assert_eq!(a.widen(Interval::of(-1, 5)).lo, i64::MIN);
        assert_eq!(a.widen(a), a);
    }

    #[test]
    fn arithmetic_is_sound_at_corners() {
        let a = Interval::of(-2, 3);
        let b = Interval::of(10, 20);
        assert_eq!(a + b, Interval::of(8, 23));
        assert_eq!(a - b, Interval::of(-22, -7));
        assert_eq!(a * b, Interval::of(-40, 60));
        // Overflowing corners widen to ⊤.
        assert!((Interval::exact(i64::MAX) + Interval::exact(1)).is_top());
        assert!((Interval::exact(i64::MIN) - Interval::exact(1)).is_top());
        assert!((Interval::TOP + Interval::exact(0)).is_top());
        assert!((Interval::exact(5) + Interval::BOTTOM).is_bottom());
    }

    #[test]
    fn state_join_and_widen_report_change() {
        let mut a = zeroed_state();
        let b = zeroed_state();
        assert!(!join_state(&mut a, &b));
        let mut c = zeroed_state();
        let mut d = zeroed_state();
        d[3] = Interval::of(0, 5);
        assert!(join_state(&mut c, &d));
        assert_eq!(c[3], Interval::of(0, 5));
        assert!(widen_state(&mut c, &{
            let mut e = zeroed_state();
            e[3] = Interval::of(0, 6);
            e
        }));
        assert_eq!(c[3].hi, i64::MAX);
        assert_eq!(c[3].lo, 0);
    }

    #[test]
    fn nospec_parse_roundtrip() {
        let r = NospecRanges::parse("0x100..0x200, 4096..8192").unwrap();
        assert_eq!(r.ranges(), &[(0x100, 0x1ff), (4096, 8191)]);
        assert!(r.contains(0x100) && r.contains(0x1ff) && !r.contains(0x200));
        assert!(NospecRanges::parse("").unwrap().is_empty());
        assert!(NospecRanges::parse("5..5").is_err());
        assert!(NospecRanges::parse("nonsense").is_err());
        assert!(NospecRanges::parse("-16..0").unwrap().contains(-1));
        assert_eq!(r.to_string(), "0x100..0x200,0x1000..0x2000");
    }

    #[test]
    fn nospec_access_footprint_is_word_wide() {
        let r = NospecRanges::parse("0x100..0x108").unwrap(); // bytes 0x100..=0x107
                                                              // A word starting 7 bytes below still touches the range.
        assert!(r.intersects_access(Interval::exact(0xf9)));
        assert!(!r.intersects_access(Interval::exact(0xf8)));
        assert!(r.intersects_access(Interval::exact(0x107)));
        assert!(!r.intersects_access(Interval::exact(0x108)));
        assert!(r.intersects_access(Interval::TOP));
        assert!(!r.intersects_access(Interval::BOTTOM));
        assert!(r.intersects_access(Interval::of(0, 0x10000)));
        assert!(!NospecRanges::none().intersects_access(Interval::TOP));
    }
}
