//! Allocation validator: replays the hardware semantics over allocated code
//! and proves soundness (every required alias detection is performed) and
//! precision (no prohibited detection — i.e. no possible false positive).
//!
//! The validator tracks *which operation's access range* occupies each alias
//! register (contents follow `AMOV`s) and, for every executed `C`-bit
//! instruction, records the set of register contents the hardware scan
//! examines. It then asserts:
//!
//! 1. **Soundness** — for every check-constraint `X →check Y` derived by
//!    the batch rules of [`crate::constraints`], `Y`'s range is among the
//!    contents examined by `X` (possibly relocated by an `AMOV`), and the
//!    load/load filter does not suppress it.
//! 2. **Precision** — an examined content can raise an exception only when
//!    it *should*: if `X` examines `Z`'s range, `X` and `Z` may alias, and
//!    they are not both loads, then `X →check Z` must be a required check.
//!    Otherwise a genuine runtime alias would roll back the region for
//!    nothing — exactly the false positive SMARQ's anti-constraints and
//!    `AMOV`s exist to prevent.
//! 3. **Mechanics** — all offsets are within the register file, `order =
//!    base + offset` holds at every instruction, and an `AMOV` always finds
//!    its source range still live.

use crate::alloc::{AliasCode, Allocation};
use crate::constraints::ConstraintGraph;
use crate::deps::DepGraph;
use crate::error::ValidationError;
use crate::hash::FastSet;
use crate::ids::MemOpId;
use crate::queue::AliasQueue;
use crate::region::RegionSpec;

/// Validates `alloc` against the region, its dependences and the schedule.
///
/// # Errors
/// The first violated property, as a [`ValidationError`]. See the
/// [module docs](self) for the properties verified.
pub fn validate_allocation(
    region: &RegionSpec,
    deps: &DepGraph,
    schedule: &[MemOpId],
    alloc: &Allocation,
) -> Result<(), ValidationError> {
    // Seal once: the replay below probes may_alias for every (checker,
    // examined entry) pair — a bit-matrix lookup instead of a HashMap probe.
    let sealed = region.sealed();
    let graph = ConstraintGraph::derive(region, deps, schedule);
    let required: FastSet<(MemOpId, MemOpId)> = graph.checks().map(|c| (c.src, c.dst)).collect();
    let mut performed: FastSet<(MemOpId, MemOpId)> = FastSet::default();

    // Determine the register count to model: the max offset referenced + 1
    // (callers that care about a specific file size compare working_set
    // themselves; symbolic replay only needs enough slots).
    let num_regs = alloc.working_set().max(1);

    let mut queue: AliasQueue<MemOpId> = AliasQueue::new(num_regs);
    let mut base = 0u64;

    let oob = |op: MemOpId, offset: u32| ValidationError::OffsetOutOfRange {
        op,
        offset,
        num_regs,
    };

    for code in alloc.code() {
        match *code {
            AliasCode::Op {
                id,
                p_bit,
                c_bit,
                offset,
            } => {
                if !(p_bit || c_bit) {
                    continue;
                }
                let offset = offset.ok_or(ValidationError::OrderInvariantBroken { op: id })?;
                let a = alloc
                    .op(id)
                    .ok_or(ValidationError::OrderInvariantBroken { op: id })?;
                if a.base.value() != base
                    || a.order.value() != base + offset.value() as u64
                    || a.offset != offset
                {
                    return Err(ValidationError::OrderInvariantBroken { op: id });
                }
                let is_load = region.op(id).kind.is_load();
                if c_bit {
                    // The hardware examines every valid entry at >= offset.
                    let hits = queue
                        .check(offset.value(), is_load, |_| true)
                        .map_err(|e| oob(id, e.offset))?;
                    for h in hits {
                        let z = queue
                            .get(h)
                            .expect("hit offset in range")
                            .expect("hit slot valid")
                            .payload;
                        performed.insert((id, z));
                        // Precision: a genuine alias here must be required.
                        if sealed.may_alias(id, z)
                            && !(is_load && region.op(z).kind.is_load())
                            && !required.contains(&(id, z))
                        {
                            return Err(ValidationError::FalsePositive {
                                producer: z,
                                checker: id,
                            });
                        }
                    }
                }
                if p_bit {
                    queue
                        .set(offset.value(), id, is_load)
                        .map_err(|e| oob(id, e.offset))?;
                }
            }
            AliasCode::Amov(amov) => {
                // The source register must still hold the moved range.
                let src = amov.src_offset.value();
                let entry = queue
                    .get(src)
                    .map_err(|e| oob(amov.moved_op, e.offset))?
                    .copied();
                match entry {
                    Some(e) if e.payload == amov.moved_op => {}
                    _ => return Err(ValidationError::PrematureRelease { op: amov.moved_op }),
                }
                queue
                    .amov(src, amov.dst_offset.value())
                    .map_err(|e| oob(amov.moved_op, e.offset))?;
            }
            AliasCode::Rotate(r) => {
                queue
                    .rotate(r.amount)
                    .map_err(|e| oob(MemOpId::new(0), e.offset))?;
                base += r.amount as u64;
            }
        }
    }

    // Soundness: every required check was performed on the live contents.
    for &(checker, checkee) in &required {
        if !performed.contains(&(checker, checkee)) {
            return Err(ValidationError::MissingCheck { checker, checkee });
        }
    }

    // REGISTER-ALLOCATION-RULE on the final orders, for the constraints
    // whose endpoints were not relocated by AMOVs (relocated ones are
    // covered by the replay above).
    let moved: FastSet<MemOpId> = alloc
        .code()
        .iter()
        .filter_map(|c| match c {
            AliasCode::Amov(a) => Some(a.moved_op),
            _ => None,
        })
        .collect();
    for c in graph.iter() {
        if moved.contains(&c.src) || moved.contains(&c.dst) {
            continue;
        }
        let (sa, da) = match (alloc.op(c.src), alloc.op(c.dst)) {
            (Some(s), Some(d)) => (s, d),
            _ => continue,
        };
        let ok = match c.kind {
            crate::constraints::ConstraintKind::Check => sa.order <= da.order,
            crate::constraints::ConstraintKind::Anti => sa.order < da.order,
        };
        if !ok {
            return Err(ValidationError::OrderRuleViolated {
                src: c.src,
                dst: c.dst,
                anti: c.kind == crate::constraints::ConstraintKind::Anti,
            });
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate;
    use crate::region::MemKind;

    #[test]
    fn figure2_allocation_validates() {
        let mut r = RegionSpec::new();
        let m0 = r.push(MemKind::Store, 0);
        let m1 = r.push(MemKind::Load, 1);
        let m2 = r.push(MemKind::Store, 2);
        let m3 = r.push(MemKind::Load, 3);
        r.set_may_alias(m1, m2, true);
        r.set_may_alias(m3, m0, true);
        r.set_may_alias(m3, m2, true);
        let deps = DepGraph::compute(&r);
        let sched = vec![m3, m1, m2, m0];
        let alloc = allocate(&r, &deps, &sched, 64).unwrap();
        validate_allocation(&r, &deps, &sched, &alloc).unwrap();
    }

    #[test]
    fn missing_check_detected_on_tampered_code() {
        // Allocate correctly, then strip the C bit from a checker: the
        // validator must flag the missing required check.
        let mut r = RegionSpec::new();
        let st = r.push(MemKind::Store, 0);
        let ld = r.push(MemKind::Load, 0);
        let deps = DepGraph::compute(&r);
        let sched = vec![ld, st];
        let alloc = allocate(&r, &deps, &sched, 64).unwrap();

        // Tamper: rebuild an Allocation whose code drops the check.
        let code: Vec<AliasCode> = alloc
            .code()
            .iter()
            .map(|c| match *c {
                AliasCode::Op {
                    id, p_bit, offset, ..
                } if id == st => AliasCode::Op {
                    id,
                    p_bit,
                    c_bit: false,
                    offset,
                },
                other => other,
            })
            .collect();
        let per_op: Vec<_> = (0..r.len())
            .map(|i| alloc.op(MemOpId::new(i)).copied())
            .collect();
        let tampered = Allocation::from_parts(
            per_op,
            code,
            alloc.working_set(),
            alloc.stats(),
            alloc.final_checks().to_vec(),
        );
        let err = validate_allocation(&r, &deps, &sched, &tampered).unwrap_err();
        assert!(matches!(err, ValidationError::MissingCheck { .. }));
    }

    #[test]
    fn false_positive_detected_on_bad_order() {
        // Hand-build a bad allocation for the anti-constraint scenario:
        // l hoisted above s0 (required check), s1 must NOT examine l.
        let mut r = RegionSpec::new();
        let s0 = r.push(MemKind::Store, 9);
        let l = r.push(MemKind::Load, 1);
        let s1 = r.push(MemKind::Store, 2);
        let l2 = r.push(MemKind::Load, 3);
        r.set_may_alias(s0, l, true);
        r.set_may_alias(s1, l2, true);
        r.set_may_alias(l, s1, true);
        let deps = DepGraph::compute(&r);
        let sched = vec![l, l2, s0, s1];

        // Correct allocation first: validates.
        let good = allocate(&r, &deps, &sched, 64).unwrap();
        validate_allocation(&r, &deps, &sched, &good).unwrap();

        // Bad allocation: give l the *later* order so s1's scan reaches it.
        use crate::alloc::{AllocStats, OpAlias};
        use crate::ids::{Offset, Order};
        let mk = |p, c, ord: u64, off: u32| {
            Some(OpAlias {
                p_bit: p,
                c_bit: c,
                order: Order(ord),
                base: Order(0),
                offset: Offset(off),
            })
        };
        let per_op = vec![
            mk(false, true, 0, 0), // s0 checks from 0
            mk(true, false, 1, 1), // l sets order 1  (too late!)
            mk(false, true, 0, 0), // s1 checks from 0 -> examines l. BAD.
            mk(true, false, 0, 0), // l2 sets order 0
        ];
        let code = vec![
            AliasCode::Op {
                id: l,
                p_bit: true,
                c_bit: false,
                offset: Some(Offset(1)),
            },
            AliasCode::Op {
                id: l2,
                p_bit: true,
                c_bit: false,
                offset: Some(Offset(0)),
            },
            AliasCode::Op {
                id: s0,
                p_bit: false,
                c_bit: true,
                offset: Some(Offset(0)),
            },
            AliasCode::Op {
                id: s1,
                p_bit: false,
                c_bit: true,
                offset: Some(Offset(0)),
            },
        ];
        let bad = Allocation::from_parts(per_op, code, 2, AllocStats::default(), vec![]);
        let err = validate_allocation(&r, &deps, &sched, &bad).unwrap_err();
        assert!(
            matches!(err, ValidationError::FalsePositive { producer, checker }
                if producer == l && checker == s1),
            "expected false positive for (l, s1), got {err:?}"
        );
    }

    #[test]
    fn benign_examination_is_allowed() {
        // Two loads hoisted; the later store examines both but only may-
        // alias one: examining the other is benign (compiler proved
        // no-alias, hardware comparison can never fire).
        let mut r = RegionSpec::new();
        let s = r.push(MemKind::Store, 0);
        let la = r.push(MemKind::Load, 1);
        let lb = r.push(MemKind::Load, 2);
        r.set_may_alias(s, la, true);
        // s and lb never alias: no dep, no check — but the scan will pass
        // over lb's register. Must validate fine.
        let deps = DepGraph::compute(&r);
        let sched = vec![la, lb, s];
        let alloc = allocate(&r, &deps, &sched, 64).unwrap();
        validate_allocation(&r, &deps, &sched, &alloc).unwrap();
    }
}
