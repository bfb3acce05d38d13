//! Concrete evaluation and substitution of terms.
//!
//! `eval` is the reference semantics: the bit-blaster and the interval
//! analysis are both differential-tested against it. `substitute` is the
//! workhorse of verification step 2 — composing an element's summary
//! with its upstream neighbor's output is exactly a substitution of
//! symbolic input variables by output terms.

use crate::idhash::IdMap;
use crate::term::{mask, sext64, BinOp, Term, TermId, TermPool, UnOp};
use std::collections::HashMap;

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

/// The explicit work-stack step shared by the iterative DAG walks in
/// this crate (the `Migrator::import` idiom): `Visit` schedules a
/// node's children, `Build` combines their memoized results. Heap
/// depth replaces call-stack depth, so arbitrarily deep terms never
/// overflow the thread stack.
enum Step {
    Visit(TermId),
    Build(TermId),
}

/// Evaluates `t` under `a`. Unassigned variables read as 0.
///
/// Iterative over an explicit work stack: safe on arbitrarily deep
/// term DAGs (deep generic-mode constraints reach depths far beyond
/// the default thread stack).
pub fn eval(pool: &TermPool, t: TermId, a: &Assignment) -> u64 {
    let mut memo: IdMap<TermId, u64> = IdMap::default();
    let mut stack = vec![Step::Visit(t)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Visit(x) => {
                if memo.contains_key(&x) {
                    continue;
                }
                match *pool.get(x) {
                    Term::Const { value, .. } => {
                        memo.insert(x, value);
                    }
                    Term::Var { id, width } => {
                        memo.insert(x, mask(width, a.get(id)));
                    }
                    Term::Unary(_, c) | Term::ZExt(c, _) | Term::SExt(c, _) => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(c));
                    }
                    Term::Extract { arg, .. } => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(arg));
                    }
                    Term::Binary(_, c, d) | Term::Concat(c, d) => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(c));
                        stack.push(Step::Visit(d));
                    }
                    Term::Ite(c, d, e) => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(c));
                        stack.push(Step::Visit(d));
                        stack.push(Step::Visit(e));
                    }
                }
            }
            Step::Build(x) => {
                if memo.contains_key(&x) {
                    continue;
                }
                let w = pool.width(x);
                let v = match *pool.get(x) {
                    Term::Const { .. } | Term::Var { .. } => unreachable!("handled in Visit"),
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
                memo.insert(x, v);
            }
        }
    }
    memo[&t]
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

/// Replaces every occurrence of variable `id` in `t` with `map[id]`,
/// rebuilding (and thus re-simplifying) the term bottom-up.
///
/// Variables absent from `map` are left in place. This is the
/// composition primitive of verification step 2: substituting element
/// A's output terms for element B's input variables yields
/// `C_B(S_A(in))` exactly as in the paper's §3.1 walkthrough. Callers
/// that push many terms through one map use a [`Substitution`], which
/// rebuilds a shared subterm once.
///
/// Iterative over an explicit visit/build work stack (the
/// `Migrator::import` idiom), so composition never recurses on term
/// depth — deep pipelines compose within a bounded thread stack.
pub fn substitute(pool: &mut TermPool, t: TermId, map: &HashMap<u32, TermId>) -> TermId {
    rebuild(pool, t, |id| map.get(&id).copied(), &mut IdMap::default())
}

/// One variable substitution applied to many terms: the bindings and a
/// memo of every subterm rebuilt under them so far, so the terms of one
/// segment summary — which share most of their structure — cost one
/// rebuild per distinct node, not one per occurrence. Each
/// [`Substitution::apply`] returns what [`substitute`] returns for the
/// same bindings and interns the same new terms in the same order.
/// Both tables are only looked up, never iterated.
#[derive(Debug, Default)]
pub struct Substitution {
    map: IdMap<u32, TermId>,
    memo: IdMap<TermId, TermId>,
}

impl Substitution {
    /// A substitution with no bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds variable `var` to `rep`. All bindings come before the
    /// first [`Substitution::apply`]: the memo holds results under the
    /// bindings it was filled with.
    pub fn bind(&mut self, var: u32, rep: TermId) {
        debug_assert!(self.memo.is_empty(), "bound after the first apply");
        self.map.insert(var, rep);
    }

    /// What `var` is bound to, if anything.
    pub fn get(&self, var: u32) -> Option<TermId> {
        self.map.get(&var).copied()
    }

    /// `t` with every bound variable replaced.
    pub fn apply(&mut self, pool: &mut TermPool, t: TermId) -> TermId {
        let map = &self.map;
        rebuild(pool, t, |id| map.get(&id).copied(), &mut self.memo)
    }
}

/// The walk behind [`substitute`] and [`Substitution::apply`]: `memo`
/// maps every node already rebuilt under `binding` to its result.
fn rebuild(
    pool: &mut TermPool,
    t: TermId,
    binding: impl Fn(u32) -> Option<TermId>,
    memo: &mut IdMap<TermId, TermId>,
) -> TermId {
    let mut stack = vec![Step::Visit(t)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Visit(x) => {
                if memo.contains_key(&x) {
                    continue;
                }
                match *pool.get(x) {
                    Term::Const { .. } => {
                        memo.insert(x, x);
                    }
                    Term::Var { id, width } => {
                        let r = match binding(id) {
                            Some(rep) => {
                                debug_assert_eq!(
                                    pool.width(rep),
                                    width,
                                    "substitution width mismatch"
                                );
                                rep
                            }
                            None => x,
                        };
                        memo.insert(x, r);
                    }
                    Term::Unary(_, c) | Term::ZExt(c, _) | Term::SExt(c, _) => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(c));
                    }
                    Term::Extract { arg, .. } => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(arg));
                    }
                    Term::Binary(_, c, d) | Term::Concat(c, d) => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(c));
                        stack.push(Step::Visit(d));
                    }
                    Term::Ite(c, d, e) => {
                        stack.push(Step::Build(x));
                        stack.push(Step::Visit(c));
                        stack.push(Step::Visit(d));
                        stack.push(Step::Visit(e));
                    }
                }
            }
            Step::Build(x) => {
                if memo.contains_key(&x) {
                    continue;
                }
                let r = match *pool.get(x) {
                    Term::Const { .. } | Term::Var { .. } => unreachable!("handled in Visit"),
                    Term::Unary(op, c) => {
                        let c2 = memo[&c];
                        pool.mk_unary(op, c2)
                    }
                    Term::Binary(op, c, d) => {
                        let (c2, d2) = (memo[&c], memo[&d]);
                        pool.mk_binary(op, c2, d2)
                    }
                    Term::Ite(c, d, e) => {
                        let (c2, d2, e2) = (memo[&c], memo[&d], memo[&e]);
                        pool.mk_ite(c2, d2, e2)
                    }
                    Term::ZExt(c, w) => {
                        let c2 = memo[&c];
                        pool.mk_zext(c2, w)
                    }
                    Term::SExt(c, w) => {
                        let c2 = memo[&c];
                        pool.mk_sext(c2, w)
                    }
                    Term::Extract { hi, lo, arg } => {
                        let a2 = memo[&arg];
                        pool.mk_extract(a2, hi, lo)
                    }
                    Term::Concat(c, d) => {
                        let (c2, d2) = (memo[&c], memo[&d]);
                        pool.mk_concat(c2, d2)
                    }
                };
                memo.insert(x, r);
            }
        }
    }
    memo[&t]
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
        let mut map = HashMap::new();
        map.insert(1u32, out1);
        let composed = substitute(&mut p, c2, &map);
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
        let r = substitute(&mut p, s, &HashMap::new());
        assert_eq!(r, s);
    }

    #[test]
    fn one_memo_across_terms_changes_no_result() {
        // Three terms over a shared subterm, pushed through one
        // `Substitution` on one pool and through `substitute` — a memo
        // per term — on a clone: same results, same pool growth.
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
        assert_eq!(sub.get(0), Some(rep));
        assert_eq!(sub.get(2), None);
        let map: HashMap<u32, TermId> = [(0, rep), (1, z)].into();
        for t in terms {
            assert_eq!(sub.apply(&mut p, t), substitute(&mut q, t, &map));
            assert_eq!(p.len(), q.len());
        }
    }
}
