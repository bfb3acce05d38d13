//! Unsigned interval analysis — the cheap pre-check layer of the solver.
//!
//! For each term we compute a conservative unsigned range `[lo, hi]`.
//! A width-1 constraint whose interval is `[1,1]` is valid, `[0,0]` is
//! unsatisfiable, and `[0,1]` is unknown (fall through to bit-blasting).
//! On dataplane path constraints (mostly comparisons of packet bytes
//! against constants) this discharges the majority of queries without
//! touching the SAT solver — measured by the `ablation_solver` bench.

use crate::idhash::IdMap;
use crate::term::{fold, mask, BinOp, Fold, Term, TermId, TermPool, UnOp};

/// An inclusive unsigned range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible unsigned value.
    pub lo: u64,
    /// Largest possible unsigned value.
    pub hi: u64,
}

impl Interval {
    /// The full range of a `w`-bit value.
    pub fn full(w: u32) -> Self {
        Interval {
            lo: 0,
            hi: mask(w, u64::MAX),
        }
    }

    /// A single point.
    pub fn point(v: u64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Whether the range is a single value.
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }
}

/// Computes a conservative unsigned interval for `t`, walking all of
/// it: the standalone entry point, and the oracle a
/// [`crate::SolveSession`]'s scoped interval memo is held to.
pub fn interval_of(pool: &TermPool, t: TermId) -> Interval {
    IntervalMemo::default().interval(pool, t)
}

/// Interval results that outlive one query, with the scope discipline
/// of the blaster's term memo: `log` holds the keys in insertion
/// order, so [`IntervalMemo::truncate`] back to an earlier
/// [`IntervalMemo::len`] forgets exactly what was added since. An
/// interval is a pure function of its term, so an entry is right for
/// as long as it stays; the scopes bound memory, not validity. Only
/// looked up, never iterated.
#[derive(Debug, Default)]
pub(crate) struct IntervalMemo {
    memo: IdMap<TermId, Interval>,
    log: Vec<TermId>,
}

impl IntervalMemo {
    /// Entries held — a mark for [`IntervalMemo::truncate`].
    pub(crate) fn len(&self) -> usize {
        self.log.len()
    }

    /// Forgets every entry added since [`IntervalMemo::len`] read `mark`.
    pub(crate) fn truncate(&mut self, mark: usize) {
        for t in self.log.drain(mark..) {
            self.memo.remove(&t);
        }
    }

    /// The interval of `t`, visiting only the nodes not yet held.
    ///
    /// A [`fold`]: each node's interval is a pure function of its
    /// children's, so evaluating all children before combining yields
    /// exactly the recursive result (including for `Ite` with a decided
    /// condition, where the combine simply selects the taken branch's
    /// interval) while staying safe on arbitrarily deep term DAGs.
    pub(crate) fn interval(&mut self, pool: &TermPool, t: TermId) -> Interval {
        fold(&mut Intervals { memo: self, pool }, t);
        self.memo[&t]
    }
}

/// The [`Fold`] behind [`IntervalMemo::interval`].
struct Intervals<'a> {
    memo: &'a mut IntervalMemo,
    pool: &'a TermPool,
}

impl Fold for Intervals<'_> {
    fn pool(&self) -> &TermPool {
        self.pool
    }

    fn done(&self, x: TermId) -> bool {
        self.memo.memo.contains_key(&x)
    }

    fn build(&mut self, x: TermId, node: Term) {
        let (pool, IntervalMemo { memo, log }) = (self.pool, &mut *self.memo);
        let w = pool.width(x);
        let full = Interval::full(w);
        let r = match node {
            Term::Const { value, .. } => Interval::point(value),
            Term::Var { width, .. } => Interval::full(width),
            Term::Unary(op, c) => {
                let ia = memo[&c];
                match op {
                    // ¬[lo,hi] = [¬hi, ¬lo] within the width.
                    UnOp::Not => Interval {
                        lo: mask(w, !ia.hi),
                        hi: mask(w, !ia.lo),
                    },
                    UnOp::Neg => {
                        if ia.is_point() {
                            Interval::point(mask(w, ia.lo.wrapping_neg()))
                        } else {
                            full
                        }
                    }
                }
            }
            Term::Binary(op, c, d) => binop_interval(op, pool.width(c), memo[&c], memo[&d]),
            Term::Ite(c, d, e) => {
                let (ic, ia, ib) = (memo[&c], memo[&d], memo[&e]);
                if ic == Interval::point(1) {
                    ia
                } else if ic == Interval::point(0) {
                    ib
                } else {
                    Interval {
                        lo: ia.lo.min(ib.lo),
                        hi: ia.hi.max(ib.hi),
                    }
                }
            }
            Term::ZExt(c, _) => memo[&c],
            Term::SExt(c, wid) => {
                let aw = pool.width(c);
                let ia = memo[&c];
                // Values with the sign bit clear stay small; otherwise
                // the extension fills high bits — approximate by width
                // split.
                let sign_bit = 1u64 << (aw - 1);
                if ia.hi < sign_bit {
                    ia
                } else {
                    Interval::full(wid)
                }
            }
            Term::Extract { hi, lo, arg } => {
                let ia = memo[&arg];
                if lo == 0 && ia.hi <= mask(hi + 1, u64::MAX) {
                    // Low slice of a small value keeps its range.
                    ia
                } else {
                    full
                }
            }
            Term::Concat(c, d) => {
                let lw = pool.width(d);
                let (ia, ib) = (memo[&c], memo[&d]);
                Interval {
                    lo: (ia.lo << lw) | ib.lo,
                    hi: (ia.hi << lw) | ib.hi,
                }
            }
        };
        memo.insert(x, r);
        log.push(x);
    }
}

fn binop_interval(op: BinOp, w: u32, a: Interval, b: Interval) -> Interval {
    let full = Interval::full(w);
    let maxw = mask(w, u64::MAX);
    match op {
        BinOp::Add => {
            // Precise when no wraparound is possible.
            let lo = a.lo.checked_add(b.lo);
            let hi = a.hi.checked_add(b.hi);
            match (lo, hi) {
                (Some(l), Some(h)) if h <= maxw => Interval { lo: l, hi: h },
                _ => full,
            }
        }
        BinOp::Sub => {
            if a.lo >= b.hi {
                Interval {
                    lo: a.lo - b.hi,
                    hi: a.hi - b.lo,
                }
            } else {
                full
            }
        }
        BinOp::Mul => {
            let hi = a.hi.checked_mul(b.hi);
            match hi {
                Some(h) if h <= maxw => Interval {
                    lo: a.lo.saturating_mul(b.lo),
                    hi: h,
                },
                _ => full,
            }
        }
        BinOp::UDiv => {
            // `b.hi == 0` implies `b.lo == 0`: division by zero yields
            // all-ones, so the interval collapses to `full`.
            match (a.lo.checked_div(b.hi), a.hi.checked_div(b.lo)) {
                (Some(lo), Some(hi)) => Interval { lo, hi },
                _ => full,
            }
        }
        BinOp::URem => {
            if b.lo > 0 {
                Interval {
                    lo: 0,
                    hi: a.hi.min(b.hi - 1),
                }
            } else {
                full
            }
        }
        BinOp::And => Interval {
            lo: 0,
            hi: a.hi.min(b.hi),
        },
        BinOp::Or => Interval {
            lo: a.lo.max(b.lo),
            hi: maxw.min(next_pow2_mask(a.hi.max(b.hi))),
        },
        BinOp::Xor => Interval {
            lo: 0,
            hi: maxw.min(next_pow2_mask(a.hi.max(b.hi))),
        },
        BinOp::Shl => {
            if b.is_point() && b.lo < w as u64 {
                let s = b.lo;
                let hi = a.hi.checked_shl(s as u32);
                match hi {
                    Some(h) if h <= maxw => Interval {
                        lo: a.lo << s,
                        hi: h,
                    },
                    _ => full,
                }
            } else {
                full
            }
        }
        BinOp::Lshr => {
            if b.is_point() && b.lo < w as u64 {
                Interval {
                    lo: a.lo >> b.lo,
                    hi: a.hi >> b.lo,
                }
            } else {
                Interval { lo: 0, hi: a.hi }
            }
        }
        BinOp::Eq => {
            if a.is_point() && b.is_point() {
                Interval::point((a.lo == b.lo) as u64)
            } else if a.hi < b.lo || b.hi < a.lo {
                Interval::point(0) // disjoint ranges can never be equal
            } else {
                Interval { lo: 0, hi: 1 }
            }
        }
        BinOp::Ult => {
            if a.hi < b.lo {
                Interval::point(1)
            } else if a.lo >= b.hi {
                Interval::point(0)
            } else {
                Interval { lo: 0, hi: 1 }
            }
        }
        BinOp::Ule => {
            if a.hi <= b.lo {
                Interval::point(1)
            } else if a.lo > b.hi {
                Interval::point(0)
            } else {
                Interval { lo: 0, hi: 1 }
            }
        }
        BinOp::Slt | BinOp::Sle => Interval { lo: 0, hi: 1 },
    }
}

/// Smallest all-ones mask covering `v` (e.g. 5 → 7, 9 → 15).
fn next_pow2_mask(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    u64::MAX >> v.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_point() {
        let mut p = TermPool::new();
        let c = p.mk_const(8, 42);
        assert_eq!(interval_of(&p, c), Interval::point(42));
    }

    #[test]
    fn var_full_range() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        assert_eq!(interval_of(&p, x), Interval { lo: 0, hi: 255 });
    }

    #[test]
    fn disjoint_comparison_decided() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c10 = p.mk_const(8, 10);
        let masked = p.mk_and(x, c10); // range [0, 10]
        let c100 = p.mk_const(8, 100);
        let lt = p.mk_ult(masked, c100);
        assert_eq!(interval_of(&p, lt), Interval::point(1));
    }

    #[test]
    fn equality_of_disjoint_is_false() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c3 = p.mk_const(8, 3);
        let small = p.mk_and(x, c3); // [0,3]
        let c9 = p.mk_const(8, 9);
        let eq = p.mk_eq(small, c9);
        assert_eq!(interval_of(&p, eq), Interval::point(0));
    }

    #[test]
    fn add_no_overflow_precise() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c3 = p.mk_const(8, 3);
        let small = p.mk_and(x, c3); // [0,3]
        let c10 = p.mk_const(8, 10);
        let s = p.mk_add(small, c10); // [10,13]
        assert_eq!(interval_of(&p, s), Interval { lo: 10, hi: 13 });
    }

    #[test]
    fn next_pow2_mask_values() {
        assert_eq!(next_pow2_mask(0), 0);
        assert_eq!(next_pow2_mask(1), 1);
        assert_eq!(next_pow2_mask(5), 7);
        assert_eq!(next_pow2_mask(8), 15);
        assert_eq!(next_pow2_mask(255), 255);
    }
}
