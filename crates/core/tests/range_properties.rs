//! Property-based tests for the interval lattice in `smarq::range`: join
//! monotonicity and lattice laws, widening termination, and soundness of
//! the interval arithmetic against concrete (wrapping) machine integers.
//!
//! Like `tests/properties.rs`, scenarios come from the in-repo seeded
//! [`Prng`] — the workspace builds offline, without proptest — and every
//! case is reproducible from its printed seed.

use smarq::prng::Prng;
use smarq::range::{join_state, widen_state, zeroed_state, Interval};

const CASES: u64 = 4096;

/// A random interval, biased across the shapes that matter: ⊥, ⊤, exact
/// points, small ranges, and ranges hugging the i64 corners.
fn interval(rng: &mut Prng) -> Interval {
    match rng.bounded(8) {
        0 => Interval::BOTTOM,
        1 => Interval::TOP,
        2 => Interval::exact(rng.range_i64(-1000, 1000)),
        3 => Interval::exact(rng.next_u64() as i64),
        4..=5 => {
            let a = rng.range_i64(-10_000, 10_000);
            let b = rng.range_i64(-10_000, 10_000);
            Interval::of(a.min(b), a.max(b))
        }
        _ => {
            let a = rng.next_u64() as i64;
            let b = rng.next_u64() as i64;
            Interval::of(a.min(b), a.max(b))
        }
    }
}

/// A concrete point inside `iv` (None for ⊥).
fn point_in(rng: &mut Prng, iv: Interval) -> Option<i64> {
    if iv.is_bottom() {
        return None;
    }
    // range_i64 is inclusive on both ends but cannot span the full
    // domain; clamp the sampling window around zero when it would.
    let (lo, hi) = (iv.lo, iv.hi);
    if lo == i64::MIN && hi == i64::MAX {
        return Some(rng.next_u64() as i64);
    }
    let span = hi.wrapping_sub(lo) as u64;
    Some(lo.wrapping_add(rng.bounded(span.saturating_add(1).max(1)) as i64))
}

#[test]
fn join_is_an_upper_bound_and_monotone() {
    let mut rng = Prng::new(0x1a77);
    for case in 0..CASES {
        let a = interval(&mut rng);
        let b = interval(&mut rng);
        let c = interval(&mut rng);
        let j = a.join(b);
        // Upper bound of both operands, commutative, idempotent.
        assert!(a.le(j) && b.le(j), "case {case}: {a} ⊔ {b} = {j}");
        assert_eq!(j, b.join(a), "case {case}: join not commutative");
        assert_eq!(a.join(a), a, "case {case}: join not idempotent");
        // Associative.
        assert_eq!(a.join(b).join(c), a.join(b.join(c)), "case {case}");
        // Monotone in each argument: a ⊑ a⊔b ⇒ a⊔c ⊑ (a⊔b)⊔c.
        assert!(a.join(c).le(j.join(c)), "case {case}: join not monotone");
        // Least-ness against a random third upper bound.
        if a.le(c) && b.le(c) {
            assert!(j.le(c), "case {case}: {j} not least below {c}");
        }
    }
}

#[test]
fn widening_terminates_every_ascending_chain() {
    let mut rng = Prng::new(0x51de ^ 0x5eed);
    for case in 0..CASES {
        // Arbitrary (not even ascending) inputs: x := x.widen(x.join(y))
        // must reach a fixpoint within 2 steps per bound — each bound
        // either holds or jumps straight to ±∞, and ±∞ is terminal.
        let mut x = interval(&mut rng);
        let mut stable = 0;
        for step in 0..8 {
            let y = interval(&mut rng);
            let next = x.widen(x.join(y));
            assert!(
                x.le(next),
                "case {case} step {step}: widen shrank {x} to {next}"
            );
            if next == x {
                stable += 1;
            } else {
                stable = 0;
                // Any growth is either the one legal ⊥-escape or a jump
                // straight to an infinite bound — never a creeping step.
                assert!(
                    x.is_bottom()
                        || ((next.lo == x.lo || next.lo == i64::MIN)
                            && (next.hi == x.hi || next.hi == i64::MAX)),
                    "case {case} step {step}: non-jump growth {x} -> {next}"
                );
            }
            x = next;
        }
        // After at most two genuine growth steps (lo jump + hi jump) the
        // chain is frozen; 8 rounds leave at least 6 stable tail steps
        // unless inputs kept arriving below the fixpoint — which still
        // cannot grow x. Verify the terminal state is genuinely fixed.
        let probe = x.widen(x.join(interval(&mut rng)));
        assert!(x.le(probe) && (probe == x || probe.lo == i64::MIN || probe.hi == i64::MAX));
        let _ = stable;
    }
}

#[test]
fn state_widening_terminates() {
    let mut rng = Prng::new(0xabcd);
    for _ in 0..64 {
        let mut st = zeroed_state();
        let mut steps = 0;
        loop {
            let mut next = zeroed_state();
            for iv in next.iter_mut() {
                *iv = interval(&mut rng);
            }
            let mut joined = st;
            join_state(&mut joined, &next);
            if !widen_state(&mut st, &joined) {
                break;
            }
            steps += 1;
            assert!(
                steps <= 2 * 64,
                "state widening failed to terminate within 2 jumps per register"
            );
        }
    }
}

#[test]
fn interval_arithmetic_contains_wrapping_results() {
    let mut rng = Prng::new(0x50_0d);
    for case in 0..CASES {
        let a = interval(&mut rng);
        let b = interval(&mut rng);
        let (Some(x), Some(y)) = (point_in(&mut rng, a), point_in(&mut rng, b)) else {
            // ⊥ operand: the result must be ⊥ as well.
            assert!((a + b).is_bottom() || (!a.is_bottom() && !b.is_bottom()));
            continue;
        };
        assert!(a.contains(x) && b.contains(y), "case {case}: bad sample");
        // Guest ALUs wrap; the abstract ops return ⊤ whenever a corner
        // leaves i64, so containment of the wrapped result must hold
        // unconditionally.
        assert!(
            (a + b).contains(x.wrapping_add(y)),
            "case {case}: {a} + {b} ∌ {x} + {y}"
        );
        assert!(
            (a - b).contains(x.wrapping_sub(y)),
            "case {case}: {a} - {b} ∌ {x} - {y}"
        );
        assert!(
            (a * b).contains(x.wrapping_mul(y)),
            "case {case}: {a} * {b} ∌ {x} * {y}"
        );
    }
}

/// `Interval::access_disjoint` is sound and symmetric: start addresses
/// drawn from two disjoint intervals never name the same guest word
/// (`addr as u64 >> 3`, as every executor computes it). Half the cases
/// start the second interval just past the first one's footprint, where an
/// off-by-one would show.
#[test]
fn disjoint_accesses_never_share_a_word() {
    let mut rng = Prng::new(0xd157_0000);
    let mut disjoint = 0;
    for case in 0..CASES {
        let a = interval(&mut rng);
        let b = if rng.bounded(2) == 0 && !a.is_bottom() {
            let lo = a.hi.saturating_add(rng.range_i64(0, 16));
            Interval::of(lo, lo.saturating_add(rng.range_i64(0, 64)))
        } else {
            interval(&mut rng)
        };
        assert_eq!(
            a.access_disjoint(b),
            b.access_disjoint(a),
            "case {case}: {a} vs {b}"
        );
        if !a.access_disjoint(b) {
            continue;
        }
        disjoint += 1;
        let word = |v: i64| (v as u64) >> 3;
        for (x, y) in [(a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi)] {
            assert_ne!(word(x), word(y), "case {case}: {a} vs {b} at {x}, {y}");
        }
        for _ in 0..16 {
            let (x, y) = (
                point_in(&mut rng, a).unwrap(),
                point_in(&mut rng, b).unwrap(),
            );
            assert_ne!(word(x), word(y), "case {case}: {a} vs {b} at {x}, {y}");
        }
    }
    assert!(disjoint > CASES / 8, "only {disjoint} disjoint cases");
    // Seven bytes apart the footprints still overlap; eight apart they do not.
    assert!(!Interval::exact(0).access_disjoint(Interval::exact(7)));
    assert!(Interval::exact(0).access_disjoint(Interval::exact(8)));
    assert!(!Interval::TOP.access_disjoint(Interval::exact(8)));
    assert!(!Interval::BOTTOM.access_disjoint(Interval::exact(8)));
}
