//! Concrete evaluation and substitution of terms.
//!
//! `eval` is the reference semantics: the bit-blaster and the interval
//! analysis are both differential-tested against it. A [`Substitution`]
//! does verification step 2's composing — an element's summary composed
//! with its upstream neighbor's output is exactly a substitution of
//! symbolic input variables by output terms.

use crate::idhash::IdMap;
use crate::term::{fold, mask, sext64, BinOp, Fold, Term, TermId, TermPool, UnOp};

/// An assignment of concrete values to symbolic variables (by var id).
/// Only ever looked up by id, never iterated.
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    values: IdMap<u32, u64>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of variable `id` (masked to its width on read).
    pub fn set(&mut self, id: u32, value: u64) {
        self.values.insert(id, value);
    }

    /// Reads the value of variable `id`, defaulting to 0.
    pub fn get(&self, id: u32) -> u64 {
        self.values.get(&id).copied().unwrap_or(0)
    }
}

/// Evaluates `t` under `a`. Unassigned variables read as 0.
///
/// Iterative, over the crate's one post-order term walk: safe on
/// arbitrarily deep term DAGs (deep generic-mode constraints reach
/// depths far beyond the default thread stack).
pub fn eval(pool: &TermPool, t: TermId, a: &Assignment) -> u64 {
    let mut e = Eval {
        pool,
        a,
        memo: IdMap::default(),
    };
    fold(&mut e, t);
    e.memo[&t]
}

/// The [`Fold`] behind [`eval`]: each node's value under `a`.
struct Eval<'a> {
    pool: &'a TermPool,
    a: &'a Assignment,
    memo: IdMap<TermId, u64>,
}

impl Fold for Eval<'_> {
    fn pool(&self) -> &TermPool {
        self.pool
    }

    fn done(&self, x: TermId) -> bool {
        self.memo.contains_key(&x)
    }

    fn build(&mut self, x: TermId, node: Term) {
        let (pool, memo) = (self.pool, &self.memo);
        let w = pool.width(x);
        let v = match node {
            Term::Const { value, .. } => value,
            Term::Var { id, width } => mask(width, self.a.get(id)),
            Term::Unary(op, c) => {
                let cv = memo[&c];
                match op {
                    UnOp::Not => mask(w, !cv),
                    UnOp::Neg => mask(w, cv.wrapping_neg()),
                }
            }
            Term::Binary(op, c, d) => eval_binop(op, pool.width(c), memo[&c], memo[&d]),
            Term::Ite(c, d, e) => {
                if memo[&c] == 1 {
                    memo[&d]
                } else {
                    memo[&e]
                }
            }
            Term::ZExt(c, _) => memo[&c],
            Term::SExt(c, wid) => mask(wid, sext64(pool.width(c), memo[&c]) as u64),
            Term::Extract { hi, lo, arg } => mask(hi - lo + 1, memo[&arg] >> lo),
            Term::Concat(hi, lo) => (memo[&hi] << pool.width(lo)) | memo[&lo],
        };
        self.memo.insert(x, v);
    }
}

/// The concrete semantics of a binary operator on `w`-bit operands.
pub(crate) fn eval_binop(op: BinOp, w: u32, x: u64, y: u64) -> u64 {
    let xv = mask(w, x);
    let yv = mask(w, y);
    match op {
        BinOp::Add => mask(w, xv.wrapping_add(yv)),
        BinOp::Sub => mask(w, xv.wrapping_sub(yv)),
        BinOp::Mul => mask(w, xv.wrapping_mul(yv)),
        BinOp::UDiv => xv.checked_div(yv).unwrap_or(mask(w, u64::MAX)),
        BinOp::URem => {
            if yv == 0 {
                xv
            } else {
                xv % yv
            }
        }
        BinOp::And => xv & yv,
        BinOp::Or => xv | yv,
        BinOp::Xor => xv ^ yv,
        BinOp::Shl => {
            if yv >= w as u64 {
                0
            } else {
                mask(w, xv << yv)
            }
        }
        BinOp::Lshr => {
            if yv >= w as u64 {
                0
            } else {
                xv >> yv
            }
        }
        BinOp::Eq => (xv == yv) as u64,
        BinOp::Ult => (xv < yv) as u64,
        BinOp::Ule => (xv <= yv) as u64,
        BinOp::Slt => (sext64(w, xv) < sext64(w, yv)) as u64,
        BinOp::Sle => (sext64(w, xv) <= sext64(w, yv)) as u64,
    }
}

/// One variable substitution applied to many terms: the bindings and a
/// memo of every subterm rebuilt under them so far, so the terms of one
/// segment summary — which share most of their structure — cost one
/// rebuild per distinct node, not one per occurrence. Both tables are
/// only looked up, never iterated.
///
/// This is the composition primitive of verification step 2:
/// substituting element A's output terms for element B's input
/// variables yields `C_B(S_A(in))` exactly as in the paper's §3.1
/// walkthrough. Every term is rebuilt bottom-up, and thus
/// re-simplified; variables with no binding are left in place.
///
/// The bindings and results come in two layers. The **shared** layer
/// holds the bindings made with [`Substitution::bind`] and every result
/// that reaches only those variables and constants. The **local**
/// layer holds the bindings made with [`Substitution::bind_local`] and
/// every result that reaches one of them or an unbound variable;
/// [`Substitution::clear_local`] empties it and keeps the shared one.
/// Step 2 composes all segments of a search node this way: the
/// element's input variables, bound once to the node's terms, are
/// shared, and each segment binds its havocs locally — so a subterm
/// over the input alone is rebuilt once per node, not once per
/// segment, and a subterm over a havoc is rebuilt per segment, under
/// that segment's own renaming.
#[derive(Debug, Default)]
pub struct Substitution {
    shared: Layer,
    local: Layer,
}

/// One layer of a [`Substitution`]: its bindings and its results.
#[derive(Debug, Default)]
struct Layer {
    map: IdMap<u32, TermId>,
    memo: IdMap<TermId, TermId>,
}

impl Substitution {
    /// A substitution with no bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds variable `var` to `rep` in the shared layer. All shared
    /// bindings come before the first [`Substitution::apply`]: the
    /// memos hold results under the bindings they were filled with.
    pub fn bind(&mut self, var: u32, rep: TermId) {
        debug_assert!(
            self.shared.memo.is_empty() && self.local.memo.is_empty(),
            "bound after the first apply"
        );
        self.shared.map.insert(var, rep);
    }

    /// Binds variable `var` to `rep` in the local layer, until the next
    /// [`Substitution::clear_local`]. Local bindings come before the
    /// first apply since then, and name no shared variable.
    pub fn bind_local(&mut self, var: u32, rep: TermId) {
        debug_assert!(self.local.memo.is_empty(), "bound after the first apply");
        debug_assert!(!self.shared.map.contains_key(&var), "bound in both layers");
        self.local.map.insert(var, rep);
    }

    /// Drops the local layer's bindings and results; the shared layer
    /// stays.
    pub fn clear_local(&mut self) {
        self.local.map.clear();
        self.local.memo.clear();
    }

    /// `t` with every bound variable replaced.
    pub fn apply(&mut self, pool: &mut TermPool, t: TermId) -> TermId {
        let Substitution { shared, local } = self;
        fold(
            &mut Apply {
                shared,
                local,
                pool,
            },
            t,
        );
        match self.local.memo.get(&t) {
            Some(&r) => r,
            None => self.shared.memo[&t],
        }
    }
}

/// The [`Fold`] behind [`Substitution::apply`].
struct Apply<'a> {
    shared: &'a mut Layer,
    local: &'a mut Layer,
    pool: &'a mut TermPool,
}

impl Fold for Apply<'_> {
    fn pool(&self) -> &TermPool {
        self.pool
    }

    fn done(&self, x: TermId) -> bool {
        self.local.memo.contains_key(&x) || self.shared.memo.contains_key(&x)
    }

    fn build(&mut self, x: TermId, node: Term) {
        let (shared, local) = (&mut *self.shared, &mut *self.local);
        // Whether the result reaches a local binding or an unbound
        // variable, and so belongs to the local layer.
        let mut is_local = false;
        let r = match node {
            // A constant is its own substitution.
            Term::Const { .. } => x,
            Term::Var { id, width } => {
                let rep = match shared.map.get(&id) {
                    Some(&rep) => rep,
                    None => {
                        is_local = true;
                        local.map.get(&id).copied().unwrap_or(x)
                    }
                };
                debug_assert_eq!(self.pool.width(rep), width, "substitution width mismatch");
                rep
            }
            node => self.pool.rebuild(node, |c| match local.memo.get(&c) {
                Some(&r) => {
                    is_local = true;
                    r
                }
                None => shared.memo[&c],
            }),
        };
        if is_local {
            local.memo.insert(x, r);
        } else {
            shared.memo.insert(x, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arith() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let s = p.mk_add(x, y);
        let mut a = Assignment::new();
        a.set(0, 200);
        a.set(1, 100);
        assert_eq!(eval(&p, s, &a), 44);
    }

    #[test]
    fn eval_comparison_and_ite() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let ten = p.mk_const(8, 10);
        let c = p.mk_ult(x, ten);
        let hi = p.mk_const(8, 1);
        let lo = p.mk_const(8, 0);
        let t = p.mk_ite(c, hi, lo);
        let mut a = Assignment::new();
        a.set(0, 5);
        assert_eq!(eval(&p, t, &a), 1);
        a.set(0, 10);
        assert_eq!(eval(&p, t, &a), 0);
    }

    #[test]
    fn substitute_composes() {
        // E1: out = (in < 0sig) ? 0 : in  — here modeled unsigned 8-bit:
        // out = (in >= 128) ? 0 : in ;  E2 constraint: in2 < 128.
        let mut p = TermPool::new();
        let in1 = p.fresh_var("in1", 8);
        let in2 = p.fresh_var("in2", 8);
        let c128 = p.mk_const(8, 128);
        let zero = p.mk_const(8, 0);
        let ge = p.mk_ule(c128, in1);
        let out1 = p.mk_ite(ge, zero, in1);
        // E2's constraint over its own input:
        let c2 = p.mk_ult(in2, c128);
        // Compose: substitute in2 := out1.
        let mut sub = Substitution::new();
        sub.bind(1, out1);
        let composed = sub.apply(&mut p, c2);
        // For any in1, out1 < 128 always holds, so composed must be
        // valid: check by evaluating at the boundary points.
        for v in [0u64, 1, 127, 128, 200, 255] {
            let mut a = Assignment::new();
            a.set(0, v);
            assert_eq!(eval(&p, composed, &a), 1, "in1 = {v}");
        }
    }

    #[test]
    fn substitute_identity_when_unmapped() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let s = p.mk_add(x, y);
        let r = Substitution::new().apply(&mut p, s);
        assert_eq!(r, s);
    }

    #[test]
    fn one_memo_across_terms_changes_no_result() {
        // Three terms over a shared subterm, pushed through one
        // `Substitution` on one pool and through a fresh one per term
        // on a clone: same results, same pool growth.
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let z = p.fresh_var("z", 8);
        let c7 = p.mk_const(8, 7);
        let shared = p.mk_mul(x, y);
        let sum = p.mk_add(shared, c7);
        let terms = [p.mk_ult(shared, c7), p.mk_eq(sum, x), p.mk_xor(sum, shared)];
        let rep = p.mk_add(z, c7);
        let mut q = p.clone();

        let mut sub = Substitution::new();
        sub.bind(0, rep);
        sub.bind(1, z);
        for t in terms {
            let mut fresh = Substitution::new();
            fresh.bind(0, rep);
            fresh.bind(1, z);
            assert_eq!(sub.apply(&mut p, t), fresh.apply(&mut q, t));
            assert_eq!(p.len(), q.len());
        }
    }

    #[test]
    fn local_layer_clears_and_the_shared_layer_stays() {
        // One shared binding and, per round, a local binding of `h`
        // made afresh: every result equals a fresh substitution's under
        // the round's bindings, with the same pool growth, whether it
        // reaches `x` alone, the local `h`, or the unbound `u`.
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let h = p.fresh_var("h", 8);
        let u = p.fresh_var("u", 8);
        let y = p.fresh_var("y", 8);
        let c3 = p.mk_const(8, 3);
        let over_x = p.mk_add(x, c3);
        let over_h = p.mk_mul(over_x, h);
        let over_u = p.mk_xor(over_x, u);
        let rep_x = p.mk_add(y, c3);
        let mut sub = Substitution::new();
        sub.bind(0, rep_x);
        let mut seen = Vec::new();
        for round in 0..2 {
            let rep_h = p.fresh_var(&format!("h{round}"), 8);
            sub.clear_local();
            sub.bind_local(1, rep_h);
            let mut q = p.clone();
            for t in [over_h, over_x, over_u] {
                let mut fresh = Substitution::new();
                fresh.bind(0, rep_x);
                fresh.bind(1, rep_h);
                assert_eq!(
                    sub.apply(&mut p, t),
                    fresh.apply(&mut q, t),
                    "round {round}"
                );
                assert_eq!(p.len(), q.len(), "round {round}");
            }
            seen.push(sub.apply(&mut p, over_h));
        }
        assert_ne!(seen[0], seen[1], "each round's `h` is its own");
    }
}
