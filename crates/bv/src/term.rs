//! Hash-consed bitvector terms with eagerly-simplifying constructors.
//!
//! All terms live in a [`TermPool`] arena and are identified by
//! [`TermId`]. Structural sharing is maximal: building the same term
//! twice yields the same id, so equality of ids implies semantic
//! equality (the converse is approximated by the simplifier).

use std::collections::{HashMap, HashSet};

/// Bit width of a term, between 1 and 64.
pub type Width = u32;

/// Maximum supported width.
pub const MAX_WIDTH: Width = 64;

/// Identifier of a term inside a [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Dense index (for external memo tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
}

/// Binary operators. Comparison operators produce width-1 terms; all
/// others produce terms of the operand width. Arithmetic wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; `x / 0` is all-ones (SMT-LIB convention).
    UDiv,
    /// Unsigned remainder; `x % 0` is `x` (SMT-LIB convention).
    URem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift; shifts ≥ width give 0.
    Shl,
    /// Logical right shift; shifts ≥ width give 0.
    Lshr,
    /// Equality (width-1 result).
    Eq,
    /// Unsigned less-than (width-1 result).
    Ult,
    /// Unsigned less-or-equal (width-1 result).
    Ule,
    /// Signed less-than (width-1 result).
    Slt,
    /// Signed less-or-equal (width-1 result).
    Sle,
}

impl BinOp {
    /// Whether this operator yields a width-1 (boolean) result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ult | BinOp::Ule | BinOp::Slt | BinOp::Sle
        )
    }

    /// Whether the operator is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq
        )
    }
}

/// A term node. Obtain these via [`TermPool::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant of the given width (value already masked to width).
    Const {
        /// Bit width.
        width: Width,
        /// Value, masked to `width` bits.
        value: u64,
    },
    /// A free symbolic variable.
    Var {
        /// Dense variable id (see [`TermPool::var_name`]).
        id: u32,
        /// Bit width.
        width: Width,
    },
    /// Unary operation.
    Unary(UnOp, TermId),
    /// Binary operation.
    Binary(BinOp, TermId, TermId),
    /// If-then-else: `cond` has width 1, branches share a width.
    Ite(TermId, TermId, TermId),
    /// Zero-extension to a wider width.
    ZExt(TermId, Width),
    /// Sign-extension to a wider width.
    SExt(TermId, Width),
    /// Bit slice `[hi:lo]` (inclusive), width `hi - lo + 1`.
    Extract {
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
        /// Operand.
        arg: TermId,
    },
    /// Concatenation: `hi` occupies the high bits.
    Concat(TermId, TermId),
}

/// Masks `v` to `w` bits.
pub(crate) fn mask(w: Width, v: u64) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

/// Sign-extends the `w`-bit value `v` to 64 bits (as i64 bit pattern).
pub(crate) fn sext64(w: Width, v: u64) -> i64 {
    debug_assert!((1..=64).contains(&w));
    let shift = 64 - w;
    ((v << shift) as i64) >> shift
}

/// Arena of hash-consed terms.
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    terms: Vec<Term>,
    /// Width per term, filled at intern time (children are always
    /// interned before their parents, so each entry is an O(1)
    /// combination of already-cached child widths). This keeps
    /// [`TermPool::width`] — called by every constructor — constant
    /// time and recursion-free regardless of term depth.
    widths: Vec<Width>,
    dedup: HashMap<Term, TermId>,
    /// Name and width per symbolic variable id.
    var_meta: Vec<(String, Width)>,
    /// The interned `Var` term per variable id.
    var_terms: Vec<TermId>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms allocated.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Borrows a term node.
    pub fn get(&self, t: TermId) -> &Term {
        &self.terms[t.0 as usize]
    }

    /// Width of a term (O(1): widths are cached at intern time).
    pub fn width(&self, t: TermId) -> Width {
        self.widths[t.0 as usize]
    }

    /// Number of symbolic variables created.
    pub fn num_vars(&self) -> usize {
        self.var_meta.len()
    }

    /// The debug name of symbolic variable `id`.
    pub fn var_name(&self, id: u32) -> &str {
        &self.var_meta[id as usize].0
    }

    /// Width of symbolic variable `id`.
    pub fn var_width(&self, id: u32) -> Width {
        self.var_meta[id as usize].1
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.dedup.get(&t) {
            return id;
        }
        let w = match t {
            Term::Const { width, .. } | Term::Var { width, .. } => width,
            Term::Unary(_, a) | Term::Ite(_, a, _) => self.widths[a.0 as usize],
            Term::Binary(op, a, _) => {
                if op.is_comparison() {
                    1
                } else {
                    self.widths[a.0 as usize]
                }
            }
            Term::ZExt(_, w) | Term::SExt(_, w) => w,
            Term::Extract { hi, lo, .. } => hi - lo + 1,
            Term::Concat(a, b) => self.widths[a.0 as usize] + self.widths[b.0 as usize],
        };
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t);
        self.widths.push(w);
        self.dedup.insert(t, id);
        id
    }

    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A constant of width `w` (value is masked).
    pub fn mk_const(&mut self, w: Width, value: u64) -> TermId {
        debug_assert!((1..=MAX_WIDTH).contains(&w));
        self.intern(Term::Const {
            width: w,
            value: mask(w, value),
        })
    }

    /// The width-1 constant 1.
    pub fn mk_true(&mut self) -> TermId {
        self.mk_const(1, 1)
    }

    /// The width-1 constant 0.
    pub fn mk_false(&mut self) -> TermId {
        self.mk_const(1, 0)
    }

    /// A fresh symbolic variable with a debug name.
    pub fn fresh_var(&mut self, name: &str, w: Width) -> TermId {
        debug_assert!((1..=MAX_WIDTH).contains(&w));
        let id = self.var_meta.len() as u32;
        self.var_meta.push((name.to_string(), w));
        let t = self.intern(Term::Var { id, width: w });
        self.var_terms.push(t);
        t
    }

    /// The interned `Var` term of variable `id`.
    pub fn var_term(&self, id: u32) -> TermId {
        self.var_terms[id as usize]
    }

    /// The [`TermId`] at dense index `idx` — the inverse of
    /// [`TermId::index`]. Terms are stored in creation order and
    /// children are always interned before their parents, so iterating
    /// `0..len()` walks the pool in topological order. Panics if `idx`
    /// is out of range.
    pub fn term_id(&self, idx: usize) -> TermId {
        assert!(idx < self.terms.len(), "term index out of range");
        TermId(idx as u32)
    }

    /// The constant value of `t`, if it is a constant.
    pub fn const_value(&self, t: TermId) -> Option<u64> {
        match *self.get(t) {
            Term::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Whether `t` is the width-1 constant 1.
    pub fn is_true(&self, t: TermId) -> bool {
        matches!(*self.get(t), Term::Const { width: 1, value: 1 })
    }

    /// Whether `t` is the width-1 constant 0.
    pub fn is_false(&self, t: TermId) -> bool {
        matches!(*self.get(t), Term::Const { width: 1, value: 0 })
    }

    /// Unary operation with folding.
    pub fn mk_unary(&mut self, op: UnOp, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            let r = match op {
                UnOp::Not => !v,
                UnOp::Neg => v.wrapping_neg(),
            };
            return self.mk_const(w, r);
        }
        // ¬¬x = x ; --x = x
        if let Term::Unary(inner, x) = *self.get(a) {
            if inner == op {
                return x;
            }
        }
        self.intern(Term::Unary(op, a))
    }

    /// Bitwise complement.
    pub fn mk_not(&mut self, a: TermId) -> TermId {
        self.mk_unary(UnOp::Not, a)
    }

    /// Two's-complement negation.
    pub fn mk_neg(&mut self, a: TermId) -> TermId {
        self.mk_unary(UnOp::Neg, a)
    }

    /// Binary operation with folding and identity simplification.
    pub fn mk_binary(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        let w = self.width(a);
        debug_assert_eq!(
            w,
            self.width(b),
            "width mismatch in {:?}: {} vs {}",
            op,
            w,
            self.width(b)
        );
        let ca = self.const_value(a);
        let cb = self.const_value(b);
        if let (Some(x), Some(y)) = (ca, cb) {
            return self.fold_const(op, w, x, y);
        }
        // Canonical order for commutative ops: constant left, else lower
        // id left. The id rule must only apply when *neither* side is a
        // constant — otherwise a constant with a higher id than its
        // co-operand would swap right again, and the two orderings of
        // the same expression would intern as distinct nodes.
        let swap = op.is_commutative()
            && match (ca, cb) {
                (None, Some(_)) => true,
                (None, None) => a.0 > b.0,
                _ => false,
            };
        let (a, b, ca, cb) = if swap { (b, a, cb, ca) } else { (a, b, ca, cb) };
        if let Some(t) = self.simplify_binary(op, w, a, b, ca, cb) {
            return t;
        }
        self.intern(Term::Binary(op, a, b))
    }

    fn fold_const(&mut self, op: BinOp, w: Width, x: u64, y: u64) -> TermId {
        let width = if op.is_comparison() { 1 } else { w };
        self.mk_const(width, crate::eval::eval_binop(op, w, x, y))
    }

    /// Identity/absorption rules. `a` is the canonical left operand.
    fn simplify_binary(
        &mut self,
        op: BinOp,
        w: Width,
        a: TermId,
        b: TermId,
        ca: Option<u64>,
        cb: Option<u64>,
    ) -> Option<TermId> {
        let all_ones = mask(w, u64::MAX);
        match op {
            BinOp::Add => {
                if ca == Some(0) {
                    return Some(b);
                }
                if cb == Some(0) {
                    return Some(a);
                }
            }
            BinOp::Sub => {
                if cb == Some(0) {
                    return Some(a);
                }
                if a == b {
                    return Some(self.mk_const(w, 0));
                }
            }
            BinOp::Mul => {
                if ca == Some(0) || cb == Some(0) {
                    return Some(self.mk_const(w, 0));
                }
                if ca == Some(1) {
                    return Some(b);
                }
                if cb == Some(1) {
                    return Some(a);
                }
            }
            BinOp::And => {
                if ca == Some(0) || cb == Some(0) {
                    return Some(self.mk_const(w, 0));
                }
                if ca == Some(all_ones) {
                    return Some(b);
                }
                if cb == Some(all_ones) {
                    return Some(a);
                }
                if a == b {
                    return Some(a);
                }
            }
            BinOp::Or => {
                if ca == Some(0) {
                    return Some(b);
                }
                if cb == Some(0) {
                    return Some(a);
                }
                if ca == Some(all_ones) || cb == Some(all_ones) {
                    return Some(self.mk_const(w, all_ones));
                }
                if a == b {
                    return Some(a);
                }
            }
            BinOp::Xor => {
                if ca == Some(0) {
                    return Some(b);
                }
                if cb == Some(0) {
                    return Some(a);
                }
                if a == b {
                    return Some(self.mk_const(w, 0));
                }
            }
            BinOp::Shl | BinOp::Lshr => {
                if cb == Some(0) {
                    return Some(a);
                }
                if ca == Some(0) {
                    return Some(self.mk_const(w, 0));
                }
                if let Some(s) = cb {
                    if s >= w as u64 {
                        return Some(self.mk_const(w, 0));
                    }
                }
            }
            BinOp::UDiv => {
                if cb == Some(1) {
                    return Some(a);
                }
            }
            BinOp::URem => {
                if cb == Some(1) {
                    return Some(self.mk_const(w, 0));
                }
            }
            BinOp::Eq => {
                if a == b {
                    return Some(self.mk_true());
                }
                // Boolean equality with a constant is identity/negation.
                if w == 1 {
                    if ca == Some(1) {
                        return Some(b);
                    }
                    if cb == Some(1) {
                        return Some(a);
                    }
                    if ca == Some(0) {
                        return Some(self.mk_not(b));
                    }
                    if cb == Some(0) {
                        return Some(self.mk_not(a));
                    }
                }
            }
            BinOp::Ult => {
                if a == b {
                    return Some(self.mk_false());
                }
                if cb == Some(0) {
                    return Some(self.mk_false()); // x < 0 is false
                }
                if ca == Some(all_ones) {
                    return Some(self.mk_false()); // MAX < x is false
                }
            }
            BinOp::Ule => {
                if a == b {
                    return Some(self.mk_true());
                }
                if ca == Some(0) {
                    return Some(self.mk_true()); // 0 <= x
                }
                if cb == Some(all_ones) {
                    return Some(self.mk_true()); // x <= MAX
                }
            }
            BinOp::Slt => {
                if a == b {
                    return Some(self.mk_false());
                }
            }
            BinOp::Sle => {
                if a == b {
                    return Some(self.mk_true());
                }
            }
        }
        None
    }

    // Convenience constructors -----------------------------------------

    /// Wrapping addition.
    pub fn mk_add(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Add, a, b)
    }
    /// Wrapping subtraction.
    pub fn mk_sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Sub, a, b)
    }
    /// Wrapping multiplication.
    pub fn mk_mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Mul, a, b)
    }
    /// Unsigned division.
    pub fn mk_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::UDiv, a, b)
    }
    /// Unsigned remainder.
    pub fn mk_urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::URem, a, b)
    }
    /// Bitwise and.
    pub fn mk_and(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::And, a, b)
    }
    /// Bitwise or.
    pub fn mk_or(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Or, a, b)
    }
    /// Bitwise xor.
    pub fn mk_xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Xor, a, b)
    }
    /// Left shift.
    pub fn mk_shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Shl, a, b)
    }
    /// Logical right shift.
    pub fn mk_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Lshr, a, b)
    }
    /// Equality.
    pub fn mk_eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Eq, a, b)
    }
    /// Disequality.
    pub fn mk_ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.mk_eq(a, b);
        self.mk_not(e)
    }
    /// Unsigned less-than.
    pub fn mk_ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Ult, a, b)
    }
    /// Unsigned less-or-equal.
    pub fn mk_ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Ule, a, b)
    }
    /// Signed less-than.
    pub fn mk_slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Slt, a, b)
    }
    /// Signed less-or-equal.
    pub fn mk_sle(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_binary(BinOp::Sle, a, b)
    }

    /// Boolean and (width-1 operands).
    pub fn mk_bool_and(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.width(a), 1);
        debug_assert_eq!(self.width(b), 1);
        self.mk_and(a, b)
    }

    /// Boolean or (width-1 operands).
    pub fn mk_bool_or(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.width(a), 1);
        debug_assert_eq!(self.width(b), 1);
        self.mk_or(a, b)
    }

    /// Conjunction of many width-1 terms (true if empty).
    pub fn mk_conj(&mut self, terms: &[TermId]) -> TermId {
        let mut acc = self.mk_true();
        for &t in terms {
            acc = self.mk_bool_and(acc, t);
        }
        acc
    }

    /// If-then-else; `cond` must have width 1.
    pub fn mk_ite(&mut self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        debug_assert_eq!(self.width(cond), 1);
        debug_assert_eq!(self.width(then_t), self.width(else_t));
        if self.is_true(cond) {
            return then_t;
        }
        if self.is_false(cond) {
            return else_t;
        }
        if then_t == else_t {
            return then_t;
        }
        // ite(c, 1, 0) = c ; ite(c, 0, 1) = ¬c  (boolean branches)
        if self.width(then_t) == 1 {
            if self.is_true(then_t) && self.is_false(else_t) {
                return cond;
            }
            if self.is_false(then_t) && self.is_true(else_t) {
                return self.mk_not(cond);
            }
        }
        self.intern(Term::Ite(cond, then_t, else_t))
    }

    /// Zero-extends `a` to width `w` (no-op if already that width).
    pub fn mk_zext(&mut self, a: TermId, w: Width) -> TermId {
        let aw = self.width(a);
        debug_assert!(w >= aw && w <= MAX_WIDTH);
        if w == aw {
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.mk_const(w, v);
        }
        self.intern(Term::ZExt(a, w))
    }

    /// Sign-extends `a` to width `w` (no-op if already that width).
    pub fn mk_sext(&mut self, a: TermId, w: Width) -> TermId {
        let aw = self.width(a);
        debug_assert!(w >= aw && w <= MAX_WIDTH);
        if w == aw {
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.mk_const(w, sext64(aw, v) as u64);
        }
        self.intern(Term::SExt(a, w))
    }

    /// Extracts bits `[hi:lo]` of `a` (inclusive).
    pub fn mk_extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let aw = self.width(a);
        debug_assert!(lo <= hi && hi < aw);
        if lo == 0 && hi + 1 == aw {
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.mk_const(hi - lo + 1, v >> lo);
        }
        // extract of concat: push into the matching side when aligned.
        if let Term::Concat(h, l) = *self.get(a) {
            let lw = self.width(l);
            if hi < lw {
                return self.mk_extract(l, hi, lo);
            }
            if lo >= lw {
                return self.mk_extract(h, hi - lw, lo - lw);
            }
        }
        // extract of zext: within the original, or pure zero bits.
        if let Term::ZExt(inner, _) = *self.get(a) {
            let iw = self.width(inner);
            if hi < iw {
                return self.mk_extract(inner, hi, lo);
            }
            if lo >= iw {
                return self.mk_const(hi - lo + 1, 0);
            }
        }
        self.intern(Term::Extract { hi, lo, arg: a })
    }

    /// Concatenates `hi ++ lo` (result width is the sum).
    pub fn mk_concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let hw = self.width(hi);
        let lw = self.width(lo);
        debug_assert!(hw + lw <= MAX_WIDTH);
        if let (Some(h), Some(l)) = (self.const_value(hi), self.const_value(lo)) {
            return self.mk_const(hw + lw, (h << lw) | l);
        }
        // 0 ++ x = zext(x)
        if self.const_value(hi) == Some(0) {
            return self.mk_zext(lo, hw + lw);
        }
        self.intern(Term::Concat(hi, lo))
    }

    /// Collects the free variables of `t` (deduplicated, sorted by id).
    pub fn free_vars(&self, t: TermId) -> Vec<u32> {
        let mut out = Vec::new();
        self.vars_into(t, &mut HashSet::new(), &mut out);
        out.sort_unstable();
        out
    }

    /// Appends to `out` the variables under `t` that `visited` has not
    /// met, in no particular order, and adds every node it enters to
    /// `visited`; a node already there is not entered again. A
    /// variable has one `Var` node, so with one `visited` across
    /// several calls each variable is reported once, by the first term
    /// that mentions it — and `visited` ends up holding every node the
    /// terms reach.
    pub fn vars_into(&self, t: TermId, visited: &mut HashSet<TermId>, out: &mut Vec<u32>) {
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if !visited.insert(x) {
                continue;
            }
            match *self.get(x) {
                Term::Var { id, .. } => out.push(id),
                node => node.for_each_operand(|c| stack.push(c)),
            }
        }
    }

    /// Interns `node` with every operand `a` replaced by `map(a)`,
    /// through the simplifying constructors: the node rebuild of
    /// substitution and of cross-pool migration. `node` is no leaf.
    pub(crate) fn rebuild(&mut self, node: Term, mut map: impl FnMut(TermId) -> TermId) -> TermId {
        match node {
            Term::Const { .. } | Term::Var { .. } => unreachable!("a leaf has no operands"),
            Term::Unary(op, a) => self.mk_unary(op, map(a)),
            Term::Binary(op, a, b) => self.mk_binary(op, map(a), map(b)),
            Term::Ite(c, a, b) => self.mk_ite(map(c), map(a), map(b)),
            Term::ZExt(a, w) => self.mk_zext(map(a), w),
            Term::SExt(a, w) => self.mk_sext(map(a), w),
            Term::Extract { hi, lo, arg } => self.mk_extract(map(arg), hi, lo),
            Term::Concat(a, b) => self.mk_concat(map(a), map(b)),
        }
    }
}

impl Term {
    /// Calls `f` on each operand, in the order every walk of this
    /// crate pushes them: an `Ite`'s condition, then its branches; a
    /// binary node's left operand, then its right. Leaves have none.
    pub(crate) fn for_each_operand(self, mut f: impl FnMut(TermId)) {
        match self {
            Term::Const { .. } | Term::Var { .. } => {}
            Term::Unary(_, a) | Term::ZExt(a, _) | Term::SExt(a, _) => f(a),
            Term::Extract { arg, .. } => f(arg),
            Term::Binary(_, a, b) | Term::Concat(a, b) => {
                f(a);
                f(b);
            }
            Term::Ite(c, a, b) => {
                f(c);
                f(a);
                f(b);
            }
        }
    }
}

/// The work-stack step of [`fold`]: `Visit` schedules a node's
/// operands, `Build` combines their results. Heap depth replaces call
/// depth, so arbitrarily deep terms never overflow the thread stack.
enum Step {
    Visit(TermId),
    Build(TermId),
}

/// A bottom-up computation over a term DAG that [`fold`] drives: one
/// result per node, which the implementor memoizes.
pub(crate) trait Fold {
    /// The pool the walked terms live in.
    fn pool(&self) -> &TermPool;
    /// Whether `x` already has its result.
    fn done(&self, x: TermId) -> bool;
    /// Computes and records the result of `x`, whose node is `node` and
    /// whose operands are done.
    fn build(&mut self, x: TermId, node: Term);
}

/// Builds every node under `root` that `f` has not done, each once and
/// after its operands, pushing operands in [`Term::for_each_operand`]
/// order — the post-order walk behind `eval`, substitution, migration
/// and intervals. A leaf is built when first visited.
pub(crate) fn fold(f: &mut impl Fold, root: TermId) {
    if f.done(root) {
        return;
    }
    let mut stack = vec![Step::Visit(root)];
    while let Some(step) = stack.pop() {
        match step {
            Step::Visit(x) if !f.done(x) => match *f.pool().get(x) {
                node @ (Term::Const { .. } | Term::Var { .. }) => f.build(x, node),
                node => {
                    stack.push(Step::Build(x));
                    node.for_each_operand(|c| stack.push(Step::Visit(c)));
                }
            },
            Step::Build(x) if !f.done(x) => f.build(x, *f.pool().get(x)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let a = p.mk_const(8, 3);
        let t1 = p.mk_add(x, a);
        let t2 = p.mk_add(x, a);
        assert_eq!(t1, t2);
    }

    #[test]
    fn const_folding() {
        let mut p = TermPool::new();
        let a = p.mk_const(8, 200);
        let b = p.mk_const(8, 100);
        let s = p.mk_add(a, b);
        assert_eq!(p.const_value(s), Some(44)); // wraps at 256
        let m = p.mk_mul(a, b);
        assert_eq!(p.const_value(m), Some(mask(8, 20000)));
    }

    #[test]
    fn identities() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 16);
        let z = p.mk_const(16, 0);
        let ones = p.mk_const(16, 0xFFFF);
        assert_eq!(p.mk_add(x, z), x);
        assert_eq!(p.mk_and(x, ones), x);
        assert_eq!(p.mk_or(x, z), x);
        assert_eq!(p.mk_xor(x, x), z);
        assert_eq!(p.mk_sub(x, x), z);
        let t = p.mk_eq(x, x);
        assert!(p.is_true(t));
        let f = p.mk_ult(x, z);
        assert!(p.is_false(f));
    }

    #[test]
    fn ite_simplifies() {
        let mut p = TermPool::new();
        let c = p.fresh_var("c", 1);
        let a = p.mk_const(8, 1);
        let b = p.mk_const(8, 2);
        let t = p.mk_true();
        assert_eq!(p.mk_ite(t, a, b), a);
        assert_eq!(p.mk_ite(c, a, a), a);
        let one = p.mk_true();
        let zero = p.mk_false();
        assert_eq!(p.mk_ite(c, one, zero), c);
    }

    #[test]
    fn extract_concat_fusion() {
        let mut p = TermPool::new();
        let hi = p.fresh_var("hi", 8);
        let lo = p.fresh_var("lo", 8);
        let cc = p.mk_concat(hi, lo);
        assert_eq!(p.width(cc), 16);
        assert_eq!(p.mk_extract(cc, 7, 0), lo);
        assert_eq!(p.mk_extract(cc, 15, 8), hi);
    }

    #[test]
    fn signed_folding() {
        let mut p = TermPool::new();
        let a = p.mk_const(8, 0xFF); // -1
        let b = p.mk_const(8, 1);
        let lt = p.mk_slt(a, b);
        assert!(p.is_true(lt));
        let ult = p.mk_ult(a, b);
        assert!(p.is_false(ult));
    }

    #[test]
    fn zext_sext_fold() {
        let mut p = TermPool::new();
        let a = p.mk_const(8, 0x80);
        let ze = p.mk_zext(a, 16);
        assert_eq!(p.const_value(ze), Some(0x80));
        let se = p.mk_sext(a, 16);
        assert_eq!(p.const_value(se), Some(0xFF80));
    }

    #[test]
    fn free_vars_collects() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let s = p.mk_add(x, y);
        let e = p.mk_eq(s, x);
        assert_eq!(p.free_vars(e), vec![0, 1]);
    }

    #[test]
    fn division_conventions() {
        let mut p = TermPool::new();
        let a = p.mk_const(8, 10);
        let z = p.mk_const(8, 0);
        let d = p.mk_udiv(a, z);
        let r = p.mk_urem(a, z);
        assert_eq!(p.const_value(d), Some(0xFF));
        assert_eq!(p.const_value(r), Some(10));
    }
}
