//! Symbolic dataflow over the scheduled region's alias-register queue
//! state — the proving half of the static translation validator.
//!
//! The replay walks the emitted alias-annotation stream
//! ([`smarq::AliasCode`]) and tracks, per *absolute register order*, which
//! operation's access range a register holds. It is an independent model of
//! the hardware (not a reuse of [`smarq::queue::AliasQueue`]): live entries
//! are keyed by their absolute order `base + offset` in a [`BTreeMap`],
//! which is exact because every live entry's order lies in
//! `[base, base + num_regs)` — entries below `base` are cleared by the very
//! rotation that moved `base` past them, and `set` can never reach
//! `base + num_regs` — so distinct live orders always occupy distinct
//! physical registers.
//!
//! Against that state the replay proves, for the facts independently
//! derived by [`crate::facts`]:
//!
//! * **soundness** — every required `X →check Y` is actually performed on
//!   `Y`'s live register (following `AMOV` relocations), and the
//!   load-skips-load-set hardware filter never suppresses it;
//! * **precision** — no scan examines a may-aliasing range it is not
//!   required to: such an examination is a latent false-positive alias
//!   exception, the exact hazard anti-constraints exist to prevent;
//! * **mechanics** — offsets stay inside the modeled file, the
//!   `order = base + offset` invariant holds at every instruction, `AMOV`
//!   sources are still live, and rotations never exceed the file size.
//!
//! Every violation becomes a structured [`Diagnostic`]; the replay collects
//! all of them instead of stopping at the first.

use crate::facts::RegionFacts;
use smarq::hash::FastSet;
use smarq::{AliasCode, Allocation, Diagnostic, MemOpId, RegionSpec, Severity};
use std::collections::BTreeMap;

/// One live alias register in the symbolic state.
#[derive(Clone, Copy, Debug)]
struct SymEntry {
    /// The operation whose access range the register holds. Follows the
    /// range through `AMOV` relocations, so checks performed on a moved
    /// register still resolve to the original producer.
    op: MemOpId,
    /// Set by a load (later loads skip it).
    set_by_load: bool,
}

/// Replays `alloc`'s alias code symbolically and proves it implements
/// `facts`. Returns every violation found (empty = proven).
pub fn replay(
    region_id: usize,
    spec: &RegionSpec,
    alloc: &Allocation,
    facts: &RegionFacts,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Model exactly the registers the allocation uses; whether that fits
    // the *hardware* file is the overflow-risk lint's question.
    let num_regs = alloc.working_set().max(1) as u64;
    let mut base = 0u64;
    let mut entries: BTreeMap<u64, SymEntry> = BTreeMap::new();
    let mut performed: FastSet<(MemOpId, MemOpId)> = FastSet::default();
    // Code position of each op, for diagnostic spans.
    let mut op_span: Vec<Option<usize>> = vec![None; spec.len()];

    let err = |code, message: String| Diagnostic::new(Severity::Error, region_id, code, message);

    for (pc, code) in alloc.code().iter().enumerate() {
        match *code {
            AliasCode::Op {
                id,
                p_bit,
                c_bit,
                offset,
            } => {
                op_span[id.index()] = Some(pc);
                if !(p_bit || c_bit) {
                    continue;
                }
                let Some(offset) = offset else {
                    out.push(
                        err(
                            "order-invariant",
                            format!("{id} carries P/C bits but encodes no register offset"),
                        )
                        .with_op(id)
                        .with_span(pc, pc + 1),
                    );
                    continue;
                };
                let off = offset.value() as u64;
                if off >= num_regs {
                    out.push(
                        err(
                            "offset-out-of-range",
                            format!(
                                "{id} references offset {off} but the allocation's \
                                 working set is {num_regs}"
                            ),
                        )
                        .with_op(id)
                        .with_span(pc, pc + 1),
                    );
                    continue;
                }
                // order = base + offset must agree with the allocation's
                // own metadata at this execution point.
                match alloc.op(id) {
                    Some(a)
                        if a.base.value() == base
                            && a.offset == offset
                            && a.order.value() == base + off => {}
                    _ => {
                        out.push(
                            err(
                                "order-invariant",
                                format!(
                                    "{id}: order = base + offset does not hold at its \
                                     execution point (base {base}, offset {off})"
                                ),
                            )
                            .with_op(id)
                            .with_span(pc, pc + 1),
                        );
                    }
                }
                let is_load = spec.op(id).kind.is_load();
                if c_bit {
                    // Hardware scan: every valid register at order >= own.
                    for (&order, e) in entries.range(base + off..) {
                        debug_assert!(order < base + num_regs);
                        if is_load && e.set_by_load {
                            continue; // loads never check load-set entries
                        }
                        performed.insert((id, e.op));
                        // Precision: a genuine alias must be a required
                        // check, else the hardware could raise a false
                        // positive exception here.
                        if spec.may_alias(id, e.op)
                            && !(is_load && spec.op(e.op).kind.is_load())
                            && !facts.is_required_check(id, e.op)
                        {
                            out.push(
                                err(
                                    "false-positive",
                                    format!(
                                        "{id}'s scan reaches {}'s live range: a runtime \
                                         alias would roll the region back for nothing",
                                        e.op
                                    ),
                                )
                                .with_op(id)
                                .with_span(pc, pc + 1)
                                .with_witness(format!("{} ->anti {id} unenforced", e.op)),
                            );
                        }
                    }
                }
                if p_bit {
                    entries.insert(
                        base + off,
                        SymEntry {
                            op: id,
                            set_by_load: is_load,
                        },
                    );
                }
            }
            AliasCode::Amov(amov) => {
                let (src, dst) = (
                    amov.src_offset.value() as u64,
                    amov.dst_offset.value() as u64,
                );
                if src >= num_regs || dst >= num_regs {
                    out.push(
                        err(
                            "offset-out-of-range",
                            format!("AMOV {src},{dst} outside the {num_regs}-register window"),
                        )
                        .with_op(amov.moved_op)
                        .with_span(pc, pc + 1),
                    );
                    continue;
                }
                let moved = entries.remove(&(base + src));
                match moved {
                    Some(e) if e.op == amov.moved_op => {
                        if dst != src {
                            entries.insert(base + dst, e);
                        }
                    }
                    other => {
                        out.push(
                            err(
                                "premature-release",
                                format!(
                                    "AMOV expects {}'s range at offset {src} but the \
                                     register holds {}",
                                    amov.moved_op,
                                    other.map_or("nothing".to_string(), |e| e.op.to_string()),
                                ),
                            )
                            .with_op(amov.moved_op)
                            .with_span(pc, pc + 1),
                        );
                        // Apply the hardware effect anyway: moving an
                        // empty register clears the destination.
                        if dst != src {
                            match other {
                                Some(e) => {
                                    entries.insert(base + dst, e);
                                }
                                None => {
                                    entries.remove(&(base + dst));
                                }
                            }
                        }
                    }
                }
            }
            AliasCode::Rotate(r) => {
                let amount = r.amount as u64;
                if amount > num_regs {
                    out.push(
                        err(
                            "rotate-overflow",
                            format!("rotate {amount} exceeds the {num_regs}-register file"),
                        )
                        .with_span(pc, pc + 1),
                    );
                    continue;
                }
                base += amount;
                // Registers that rotated out are released (cleared).
                entries = entries.split_off(&base);
            }
        }
    }

    // Soundness: every required check was actually performed.
    for (checker, checkee) in facts.required_checks() {
        if !performed.contains(&(checker, checkee)) {
            let mut d = err(
                "missing-check",
                format!(
                    "speculation unprotected: {checker} never examines {checkee}'s \
                     alias register"
                ),
            )
            .with_op(checker)
            .with_witness(format!("{checker} ->check {checkee}"));
            if let Some(p) = op_span[checker.index()] {
                d = d.with_span(p, p + 1);
            }
            out.push(d);
        }
    }

    // REGISTER-ALLOCATION-RULE on the final orders, for constraint
    // endpoints never relocated by an AMOV (relocated ones are covered by
    // the replay itself).
    let moved: FastSet<MemOpId> = alloc
        .code()
        .iter()
        .filter_map(|c| match c {
            AliasCode::Amov(a) => Some(a.moved_op),
            _ => None,
        })
        .collect();
    let check_rule = facts.required_checks().map(|(x, y)| (x, y, false));
    let anti_rule = facts.anti_constraints().map(|(x, y)| (x, y, true));
    for (x, y, anti) in check_rule.chain(anti_rule) {
        if moved.contains(&x) || moved.contains(&y) {
            continue;
        }
        let (Some(xa), Some(ya)) = (alloc.op(x), alloc.op(y)) else {
            continue;
        };
        let ok = if anti {
            xa.order < ya.order
        } else {
            xa.order <= ya.order
        };
        if !ok {
            let rel = if anti { "<" } else { "<=" };
            let kind = if anti { "anti" } else { "check" };
            out.push(
                err(
                    "order-rule",
                    format!(
                        "REGISTER-ALLOCATION-RULE violated: order({x}) {rel} order({y}) \
                         required but the final orders are {} and {}",
                        xa.order.value(),
                        ya.order.value()
                    ),
                )
                .with_op(x)
                .with_witness(format!("{x} ->{kind} {y}")),
            );
        }
    }

    out
}
