//! Bit-blasting: bitvector terms → CNF gates on a [`bitsat::Solver`].
//!
//! Every term is lowered to a vector of literals (LSB first). Every
//! solver layer below — clause addition, rollback, propagation,
//! branching — pays per variable and per clause, so the circuits are
//! built to be small, from four gates of **one fresh output each**,
//! emitted only after constant, repeated and complemented operands
//! have been folded away (`maj(a, b, ⊥) = and(a, b)`,
//! `ite(c, t, ¬t) = ¬xor(c, t)`, …):
//!
//! | gate              | variables | clauses |
//! |-------------------|-----------|---------|
//! | AND (OR by De Morgan) | 1     | 3       |
//! | XOR               | 1         | 4       |
//! | ITE (mux)         | 1         | 6 (4 + the 2 redundant `t, e` clauses) |
//! | MAJ (carry/borrow)| 1         | 6       |
//! | n-ary AND         | 1         | n + 1   |
//!
//! Word-level operators at width n over symbolic operands (constant
//! bits fold to less; `crates/bv/tests/circuit_size.rs` pins the
//! 32-bit variable counts):
//!
//! | operator          | circuit | variables | clauses |
//! |-------------------|---------|-----------|---------|
//! | `add`, `sub`      | one ripple adder (`a - b = a + ¬b + 1`), no top carry | 3n − 2 | 14n − 13 |
//! | `neg`             | the same adder over a zero operand | 2n − 3 | 7n − 10 |
//! | `ult`, `ule`      | borrow chain | n | 6n − 3 |
//! | `slt`, `sle`      | borrow chain + 2 XOR | n + 2 | 6n + 5 |
//! | `eq`              | n XNOR under one n-ary AND | n + 1 | 5n + 1 |
//! | `ite`             | n muxes | n | 6n |
//! | select run of k links | one `none` + n one-hot outputs | n + 1 | 2kn + 2n + k + 1 |
//! | `and`, `or`, `xor`| n gates | n | 3n, 3n, 4n |
//! | `mul`             | shift-add: n(n+1)/2 ANDs, n − 1 shrinking adders | ≈ 2n² | ≈ 8.5n² |
//! | `shl`, `lshr`     | ⌈log₂ n⌉ mux stages, a range check, n ANDs | ≈ n·(log₂ n + 2) | ≈ 6n·(log₂ n + 1) |
//! | `udiv`, `urem`    | restoring: n rounds of compare, subtract (one shared chain), mux | ≈ 4n² | ≈ 20n² |
//!
//! A **select run** is what the executor makes of a packet access at
//! a symbolic offset: two or more nested links `ite(x == c_j, v_j, …)`
//! over one selector `x`, with pairwise distinct constants and
//! non-constant values, down to a default `d` — the first node that is
//! no such link, repeats a constant or is already blasted in a live
//! scope. The equations are pairwise exclusive (`x` equals at most one
//! constant), so the chain is a multiplexer with a decoded select and
//! needs no priority chain: a fresh `none` is defined as "no `h_j`"
//! (`none ∨ h_1 ∨ … ∨ h_k`, `¬none ∨ ¬h_j`), and each output bit `o_i`
//! is tied to `v_j[i]` under `h_j` and to `d[i]` under `none`, two
//! clauses each — against k muxes per bit as single ITEs. Only the
//! run's head gets a memo entry. Single ITEs and constant-valued chains
//! (Tables-mode lookups, whose muxes fold into AND/OR gates shared with
//! the lookup's `found` chain) stay muxes.
//!
//! Gates are **structurally hashed**: a table maps `(kind, normalised
//! operands)` to the gate's output, so a gate asked for twice exists
//! once — `ult(a, b)` and `ule(b, a)` are one borrow chain, and so are
//! `ult(a, b)` and the carries of `a - b`. Keys are normalised
//! (operands sorted; XOR over positive literals, MAJ with a positive
//! first operand and ITE with a positive selector, the sign moved to
//! the operands or the output).
//!
//! A term's bits live in one arena, back to back in blasting order; the
//! term and variable memos hold `(start, len)` spans of it (an
//! `extract` names a sub-span of its argument's, a variable term its
//! variable's), and the word-level builders read their operands as
//! slices of it. Both memos — per term and per gate — are **scoped**:
//! [`Blaster::mark`] / [`Blaster::rollback`] drop every circuit blasted
//! since the mark from the solver ([`bitsat::Solver::rollback`]),
//! forget the memo and gate-table entries logged since and truncate
//! the arena back to the mark, so an entry never outlives a variable
//! or a bit it names, and a term blasted again after its scope was
//! popped gets a fresh circuit. A gate in a live scope is shared by
//! every scope above it. Blasting and popping a scope allocates per
//! term at most, never per bit or clause, once the arena and tables
//! have grown to the working set.

use crate::eval::Assignment;
use crate::idhash::IdMap;
use crate::term::{BinOp, Term, TermId, TermPool, UnOp};
use bitsat::{Lit, SolveResult, Solver};
use std::ops::Range;

/// A bit-blasting context wrapping a SAT solver.
///
/// Blast terms with [`Blaster::assert_true`], then call
/// [`Blaster::check`] and read back variable values with
/// [`Blaster::model_var`].
pub struct Blaster {
    /// The solver and its gate table: what the circuit builders write.
    c: Circuit,
    /// The bits of every term and variable blasted in a live scope,
    /// back to back; the memos below hold spans of it.
    arena: Vec<Lit>,
    /// The circuit of every term blasted in a live scope. Only ever
    /// looked up, never iterated.
    bits: IdMap<TermId, Span>,
    /// The input bits of every variable blasted in a live scope.
    /// Looked up, and iterated only by [`Blaster::live_model`], which
    /// fills an id-keyed [`Assignment`] — no order reaches an output.
    var_bits: IdMap<u32, Span>,
    /// Keys of `bits` / `var_bits` in insertion order — what
    /// [`Blaster::rollback`] forgets past a mark.
    memo_log: Vec<MemoKey>,
    /// Scratch: the bits of the term being built, appended to `arena`
    /// once its operands' spans are no longer read.
    out: Vec<Lit>,
    /// Scratch: the links of every select run the current
    /// [`Blaster::blast`] walk has recorded, each run a range of it.
    links: Vec<Link>,
}

/// One link `ite(x == c, value, …)` of a select run.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The constant `c`.
    c: u64,
    /// The `x == c` term.
    hit: TermId,
    value: TermId,
}

/// A run of `arena`: the bits of one term, LSB first.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Clone, Copy)]
enum MemoKey {
    Term(TermId),
    Var(u32),
}

/// The solver, the constant literal and the structural-hashing table:
/// everything the gate and word-level builders touch. Word-level
/// builders read their operands as slices and append their result to
/// an `out` vector the caller owns.
struct Circuit {
    sat: Solver,
    true_lit: Lit,
    /// Structural hashing: the output of every gate defined in a live
    /// scope. Only ever looked up, never iterated, so the circuits do
    /// not depend on the hasher.
    gates: IdMap<Gate, Lit>,
    /// Keys of `gates` in insertion order, truncated like `memo_log`.
    gate_log: Vec<Gate>,
    /// Scratch word for `mul_vec`'s addends and `eq_vec`'s conjuncts.
    tmp: Vec<Lit>,
}

/// A gate over normalised operands — the structural-hashing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Gate {
    /// Operands sorted.
    And(Lit, Lit),
    /// Operands positive and sorted.
    Xor(Lit, Lit),
    /// `(selector, then, else)`, selector positive.
    Ite(Lit, Lit, Lit),
    /// Operands sorted, the first positive.
    Maj(Lit, Lit, Lit),
}

impl Gate {
    fn operands(self) -> [Lit; 3] {
        match self {
            Gate::And(a, b) | Gate::Xor(a, b) => [a, b, b],
            Gate::Ite(a, b, c) | Gate::Maj(a, b, c) => [a, b, c],
        }
    }
}

/// A point in a blaster's history (see [`Blaster::mark`]).
#[derive(Debug, Clone, Copy)]
pub struct BlastMark {
    sat: bitsat::Mark,
    memo: usize,
    bits: usize,
    gates: usize,
}

impl Default for Blaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Blaster {
    /// Creates a blaster with an empty solver.
    pub fn new() -> Self {
        let mut sat = Solver::new();
        let t = sat.new_var();
        let true_lit = Lit::pos(t);
        sat.add_clause(&[true_lit]);
        Blaster {
            c: Circuit {
                sat,
                true_lit,
                gates: IdMap::default(),
                gate_log: Vec::new(),
                tmp: Vec::new(),
            },
            arena: Vec::new(),
            bits: IdMap::default(),
            var_bits: IdMap::default(),
            memo_log: Vec::new(),
            out: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Records the current point: [`Blaster::rollback`] to it removes
    /// every circuit blasted and every gated assertion made after it.
    pub fn mark(&self) -> BlastMark {
        BlastMark {
            sat: self.c.sat.mark(),
            memo: self.memo_log.len(),
            bits: self.arena.len(),
            gates: self.c.gate_log.len(),
        }
    }

    /// Drops everything blasted since `mark` — SAT variables, gate
    /// clauses, gated assertions and the memo and gate-table entries
    /// naming them. Everything a blaster adds is a gate definition of
    /// a fresh output or a clause gated on a fresh activation literal,
    /// the conservative extensions [`bitsat::Solver::rollback`]
    /// requires, so learnt clauses over the surviving circuit are kept.
    /// A select run's outputs are fresh too, and its equations — whose
    /// circuits are in the formula — are pairwise exclusive, so exactly
    /// one of them or `none` holds under any assignment of the older
    /// variables, and it defines every output as a function of them.
    /// Not for use across [`Blaster::assert_true`], whose unit is
    /// permanent.
    pub fn rollback(&mut self, mark: BlastMark) {
        for key in self.memo_log.drain(mark.memo..) {
            match key {
                MemoKey::Term(t) => drop(self.bits.remove(&t)),
                MemoKey::Var(id) => drop(self.var_bits.remove(&id)),
            }
        }
        self.arena.truncate(mark.bits);
        for key in self.c.gate_log.drain(mark.gates..) {
            self.c.gates.remove(&key);
        }
        self.c.sat.rollback(mark.sat);
        debug_assert!(
            self.bits
                .values()
                .chain(self.var_bits.values())
                .all(|s| s.range().end <= self.arena.len()),
            "a memo entry outlived its bits"
        );
        debug_assert!(
            self.c.gates.len() == self.c.gate_log.len()
                && self.c.gate_log.iter().all(|key| {
                    let live = |l: &Lit| l.var().index() < self.c.sat.num_vars();
                    key.operands().iter().all(live) && live(&self.c.gates[key])
                }),
            "a gate-table entry outlived a variable it names"
        );
    }

    /// Sets the CDCL conflict budget (see [`Solver::set_conflict_budget`]).
    pub fn set_conflict_budget(&mut self, budget: u64) {
        self.c.sat.set_conflict_budget(budget);
    }

    /// The assumption subset (activation literals) that derived the
    /// last UNSAT verdict of [`Blaster::check_assuming`] (see
    /// [`Solver::last_core`]).
    pub fn last_core(&self) -> &[Lit] {
        self.c.sat.last_core()
    }
}

impl Circuit {
    fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    // --- gates ---------------------------------------------------------
    //
    // Each `g_*` folds constant, repeated and complemented operands,
    // normalises what is left into a `Gate` key and leaves the table
    // lookup and the clauses to `gate`. Literals order by variable, a
    // literal next to its complement and the constants (variable 0)
    // first, which is what the sorts below rely on.

    /// The output of `key`'s gate: the one already defined in a live
    /// scope, or a fresh variable constrained to the gate's function.
    fn gate(&mut self, key: Gate) -> Lit {
        if let Some(&o) = self.gates.get(&key) {
            return o;
        }
        let o = self.fresh();
        match key {
            Gate::And(a, b) => {
                self.sat.add_clause(&[!o, a]);
                self.sat.add_clause(&[!o, b]);
                self.sat.add_clause(&[o, !a, !b]);
            }
            Gate::Xor(a, b) => {
                self.sat.add_clause(&[!o, a, b]);
                self.sat.add_clause(&[!o, !a, !b]);
                self.sat.add_clause(&[o, !a, b]);
                self.sat.add_clause(&[o, a, !b]);
            }
            Gate::Ite(c, t, e) => {
                self.sat.add_clause(&[!o, !c, t]);
                self.sat.add_clause(&[o, !c, !t]);
                self.sat.add_clause(&[!o, c, e]);
                self.sat.add_clause(&[o, c, !e]);
                // Redundant, but they let `t` and `e` alone force the
                // output while the selector is still open.
                self.sat.add_clause(&[!o, t, e]);
                self.sat.add_clause(&[o, !t, !e]);
            }
            Gate::Maj(a, b, c) => {
                self.sat.add_clause(&[o, !a, !b]);
                self.sat.add_clause(&[o, !a, !c]);
                self.sat.add_clause(&[o, !b, !c]);
                self.sat.add_clause(&[!o, a, b]);
                self.sat.add_clause(&[!o, a, c]);
                self.sat.add_clause(&[!o, b, c]);
            }
        }
        self.gates.insert(key, o);
        self.gate_log.push(key);
        o
    }

    fn g_and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() || b == self.false_lit() {
            return self.false_lit();
        }
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.false_lit();
        }
        self.gate(Gate::And(a.min(b), a.max(b)))
    }

    fn g_or(&mut self, a: Lit, b: Lit) -> Lit {
        let na = !a;
        let nb = !b;
        let n = self.g_and(na, nb);
        !n
    }

    fn g_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.false_lit() {
            return b;
        }
        if b == self.false_lit() {
            return a;
        }
        if a == self.true_lit {
            return !b;
        }
        if b == self.true_lit {
            return !a;
        }
        if a == b {
            return self.false_lit();
        }
        if a == !b {
            return self.true_lit;
        }
        // xor(¬a, b) = ¬xor(a, b): one gate serves all four sign
        // patterns, the sign carried on the output.
        let (pa, pb) = (Lit::pos(a.var()), Lit::pos(b.var()));
        let o = self.gate(Gate::Xor(pa.min(pb), pa.max(pb)));
        if a.is_positive() == b.is_positive() {
            o
        } else {
            !o
        }
    }

    fn g_ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.true_lit {
            return t;
        }
        if c == self.false_lit() {
            return e;
        }
        if t == e {
            return t;
        }
        if t == !e {
            let x = self.g_xor(c, t);
            return !x;
        }
        if t == self.true_lit || t == c {
            return self.g_or(c, e);
        }
        if t == self.false_lit() || t == !c {
            return self.g_and(!c, e);
        }
        if e == self.true_lit || e == !c {
            return self.g_or(!c, t);
        }
        if e == self.false_lit() || e == c {
            return self.g_and(c, t);
        }
        if c.is_positive() {
            self.gate(Gate::Ite(c, t, e))
        } else {
            self.gate(Gate::Ite(!c, e, t))
        }
    }

    /// Majority of three — the carry/borrow gate.
    fn g_maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let mut ops = [a, b, c];
        ops.sort();
        let [a, b, c] = ops;
        if a == self.true_lit {
            return self.g_or(b, c);
        }
        if a == self.false_lit() {
            return self.g_and(b, c);
        }
        if a == b || b == c {
            return b;
        }
        if a == !b {
            return c;
        }
        if b == !c {
            return a;
        }
        // maj(¬a, ¬b, ¬c) = ¬maj(a, b, c): keyed with a positive first
        // operand, so a borrow chain (`ult`) and the carry chain of the
        // matching subtraction are one chain.
        if a.is_positive() {
            self.gate(Gate::Maj(a, b, c))
        } else {
            !self.gate(Gate::Maj(!a, !b, !c))
        }
    }

    /// Conjunction of any number of literals on one output, reordering
    /// `lits` in place. Three or more are not entered in the gate
    /// table: the one caller, `eq`, is already shared per term.
    fn g_and_all(&mut self, lits: &mut Vec<Lit>) -> Lit {
        lits.sort();
        lits.dedup();
        if lits.first() == Some(&self.true_lit) {
            lits.remove(0);
        }
        if lits.first() == Some(&self.false_lit()) || lits.windows(2).any(|w| w[0] == !w[1]) {
            return self.false_lit();
        }
        match lits[..] {
            [] => self.true_lit,
            [a] => a,
            [a, b] => self.g_and(a, b),
            _ => {
                let o = self.fresh();
                for &l in lits.iter() {
                    self.sat.add_clause(&[!o, l]);
                }
                for l in lits.iter_mut() {
                    *l = !*l;
                }
                lits.push(o);
                self.sat.add_clause(lits);
                o
            }
        }
    }

    // --- word-level circuits --------------------------------------------

    /// `acc += b + carry_in` (`b` complemented if `flip_b`), in place,
    /// truncated to the operands' width: one ripple adder.
    fn add_in_place(&mut self, acc: &mut [Lit], b: &[Lit], flip_b: bool, carry_in: Lit) {
        debug_assert_eq!(acc.len(), b.len());
        let mut carry = carry_in;
        for i in 0..acc.len() {
            let (ai, bi) = (acc[i], if flip_b { !b[i] } else { b[i] });
            let axb = self.g_xor(ai, bi);
            acc[i] = self.g_xor(axb, carry);
            if i + 1 < acc.len() {
                carry = self.g_maj(ai, bi, carry);
            }
        }
    }

    /// Appends `a + b`.
    fn add_vec(&mut self, a: &[Lit], b: &[Lit], out: &mut Vec<Lit>) {
        let base = out.len();
        out.extend_from_slice(a);
        self.add_in_place(&mut out[base..], b, false, self.false_lit());
    }

    /// Appends `a - b = a + ¬b + 1`.
    fn sub_vec(&mut self, a: &[Lit], b: &[Lit], out: &mut Vec<Lit>) {
        let base = out.len();
        out.extend_from_slice(a);
        self.add_in_place(&mut out[base..], b, true, self.true_lit);
    }

    /// Appends `0 - a`.
    fn neg_vec(&mut self, a: &[Lit], out: &mut Vec<Lit>) {
        let base = out.len();
        out.resize(base + a.len(), self.false_lit());
        self.add_in_place(&mut out[base..], a, true, self.true_lit);
    }

    /// `a <u b` via the borrow chain.
    fn ult_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut borrow = self.false_lit();
        for i in 0..a.len() {
            borrow = self.g_maj(!a[i], b[i], borrow);
        }
        borrow
    }

    /// `a <s b` = (a <u b) XOR sign(a) XOR sign(b).
    fn slt_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let u = self.ult_vec(a, b);
        let sa = a[a.len() - 1];
        let sb = b[b.len() - 1];
        let x = self.g_xor(u, sa);
        self.g_xor(x, sb)
    }

    fn eq_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut same = std::mem::take(&mut self.tmp);
        same.clear();
        for i in 0..a.len() {
            same.push(!self.g_xor(a[i], b[i]));
        }
        let o = self.g_and_all(&mut same);
        self.tmp = same;
        o
    }

    /// Shift-add: the accumulator lives in `out`, each row's addend in
    /// the scratch word.
    fn mul_vec(&mut self, a: &[Lit], b: &[Lit], out: &mut Vec<Lit>) {
        let w = a.len();
        let base = out.len();
        out.resize(base + w, self.false_lit());
        let mut addend = std::mem::take(&mut self.tmp);
        for i in 0..w {
            addend.clear();
            addend.resize(w, self.false_lit());
            for j in i..w {
                addend[j] = self.g_and(a[i], b[j - i]);
            }
            self.add_in_place(&mut out[base..], &addend, false, self.false_lit());
        }
        self.tmp = addend;
    }

    /// Barrel shifter; `left` selects shl vs lshr. Shifts ≥ width give 0.
    fn shift_vec(&mut self, a: &[Lit], sh: &[Lit], left: bool, out: &mut Vec<Lit>) {
        let w = a.len();
        let stages = usize::BITS as usize - (w - 1).leading_zeros() as usize; // ceil(log2 w)
        let mut cur: Vec<Lit> = a.to_vec();
        let mut next = Vec::with_capacity(w);
        let mut shifted = vec![self.false_lit(); w];
        for (k, &sh_bit) in sh.iter().enumerate().take(stages) {
            let amt = 1usize << k;
            for (i, slot) in shifted.iter_mut().enumerate() {
                let src = if left {
                    i.checked_sub(amt)
                } else if i + amt < w {
                    Some(i + amt)
                } else {
                    None
                };
                *slot = src.map_or(self.false_lit(), |s| cur[s]);
            }
            next.clear();
            for i in 0..w {
                next.push(self.g_ite(sh_bit, shifted[i], cur[i]));
            }
            std::mem::swap(&mut cur, &mut next);
        }
        // Any shift-amount bit ≥ stages ⇒ shift ≥ width ⇒ zero. Also the
        // staged amount itself can reach width (e.g. w not a power of 2).
        let mut toobig = self.false_lit();
        for (k, &bit) in sh.iter().enumerate() {
            if k >= stages {
                toobig = self.g_or(toobig, bit);
            }
        }
        // Staged shift can encode up to 2^stages - 1 ≥ w - 1; values in
        // [w, 2^stages) must also produce zero.
        if (1usize << stages) > w {
            // Compare the low `stages` bits against w.
            let wconst: Vec<Lit> = (0..stages)
                .map(|i| self.const_lit(w >> i & 1 == 1))
                .collect();
            let lt = self.ult_vec(&sh[..stages], &wconst);
            toobig = self.g_or(toobig, !lt);
        }
        for &b in &cur {
            out.push(self.g_and(b, !toobig));
        }
    }

    /// Restoring division with the SMT-LIB div-by-zero conventions:
    /// appends the remainder if `rem`, else the quotient. Both are
    /// built either way, so `udiv` and `urem` of one pair share gates.
    fn divrem_vec(&mut self, a: &[Lit], d: &[Lit], rem: bool, out: &mut Vec<Lit>) {
        let w = a.len();
        // w+1-bit remainder to absorb the shifted-in bit.
        let mut r: Vec<Lit> = vec![self.false_lit(); w + 1];
        let mut dext: Vec<Lit> = d.to_vec();
        dext.push(self.false_lit());
        let mut q = vec![self.false_lit(); w];
        let mut r2 = Vec::with_capacity(w + 1);
        let mut diff = Vec::with_capacity(w + 1);
        for i in (0..w).rev() {
            // r = (r << 1) | a_i
            r2.clear();
            r2.push(a[i]);
            r2.extend_from_slice(&r[..w]);
            // qbit = r2 >= dext
            let lt = self.ult_vec(&r2, &dext);
            let qbit = !lt;
            diff.clear();
            self.sub_vec(&r2, &dext, &mut diff);
            for j in 0..w + 1 {
                r[j] = self.g_ite(qbit, diff[j], r2[j]);
            }
            q[i] = qbit;
        }
        // div-by-zero: q = all ones, r = a.
        let zero = vec![self.false_lit(); w];
        let dz = self.eq_vec(d, &zero);
        for &qi in &q {
            let o = self.g_ite(dz, self.true_lit, qi);
            if !rem {
                out.push(o);
            }
        }
        for i in 0..w {
            let o = self.g_ite(dz, a[i], r[i]);
            if rem {
                out.push(o);
            }
        }
    }
}

impl Blaster {
    // --- term lowering ---------------------------------------------------

    /// Lowers `t` to its bit vector (LSB first), memoized.
    ///
    /// Iterative over an explicit visit/build work stack, which expands
    /// a node into its operands as every term walk of this crate does
    /// and a select run into its links: deep generic-mode constraint
    /// terms blast within a bounded thread stack. The word-level circuits
    /// called per node are themselves loops, so no path here recurses
    /// on term depth.
    pub fn blast(&mut self, pool: &TermPool, t: TermId) -> &[Lit] {
        if !self.bits.contains_key(&t) {
            self.blast_missing(pool, t);
        }
        &self.arena[self.bits[&t].range()]
    }

    fn blast_missing(&mut self, pool: &TermPool, t: TermId) {
        enum Step {
            Visit(TermId),
            Build(TermId),
            /// A select run: its head, its links (a range of
            /// `self.links`) and its default.
            Select(TermId, Range<usize>, TermId),
        }
        self.links.clear();
        let mut stack = vec![Step::Visit(t)];
        while let Some(step) = stack.pop() {
            let (x, span) = match step {
                Step::Visit(x) => {
                    if self.bits.contains_key(&x) {
                        continue;
                    }
                    let node = *pool.get(x);
                    if let Term::Ite(..) = node {
                        if let Some((links, default)) = self.select_run(pool, x) {
                            stack.push(Step::Select(x, links.clone(), default));
                            for l in &self.links[links] {
                                stack.push(Step::Visit(l.hit));
                                stack.push(Step::Visit(l.value));
                            }
                            stack.push(Step::Visit(default));
                            continue;
                        }
                    }
                    // Leaves have no operands and build immediately.
                    stack.push(Step::Build(x));
                    node.for_each_operand(|c| stack.push(Step::Visit(c)));
                    continue;
                }
                Step::Build(x) | Step::Select(x, ..) if self.bits.contains_key(&x) => continue,
                Step::Build(x) => (x, self.build_bits(pool, x)),
                Step::Select(x, links, default) => (x, self.build_select(links, default)),
            };
            debug_assert_eq!(span.len, pool.width(x), "blasted width mismatch");
            self.bits.insert(x, span);
            self.memo_log.push(MemoKey::Term(x));
        }
    }

    /// Records the select run `t` heads, if it heads one: its links,
    /// appended to `self.links`, and its default. A run is two or
    /// more nested links `ite(x == c_j, v_j, …)` over one selector
    /// `x`, with pairwise distinct constants `c_j` and non-constant
    /// values `v_j`; it ends at the first node that is no such link,
    /// repeats a constant or is already blasted in a live scope, and
    /// that node is its default. The term layer puts an equation's
    /// constant on the left.
    fn select_run(&mut self, pool: &TermPool, t: TermId) -> Option<(Range<usize>, TermId)> {
        let start = self.links.len();
        let mut selector = None;
        let mut node = t;
        while let Term::Ite(hit, value, next) = *pool.get(node) {
            let Term::Binary(BinOp::Eq, k, x) = *pool.get(hit) else {
                break;
            };
            let Some(c) = pool.const_value(k) else {
                break;
            };
            let extends = (node == t || !self.bits.contains_key(&node))
                && selector.is_none_or(|s| s == x)
                && pool.const_value(value).is_none()
                && self.links[start..].iter().all(|l| l.c != c);
            if !extends {
                break;
            }
            selector = Some(x);
            self.links.push(Link { c, hit, value });
            node = next;
        }
        if self.links.len() - start < 2 {
            self.links.truncate(start);
            return None;
        }
        Some((start..self.links.len(), node))
    }

    /// Lowers a select run whose links' equations and values and whose
    /// default are already in `self.bits` as one decoded multiplexer:
    /// a fresh `none` true exactly when no equation holds, and per bit
    /// one fresh output that each link's equation (or `none`) ties to
    /// its value's bit. The equations are pairwise exclusive, so
    /// exactly one of them or `none` holds and each output is a
    /// function of the inputs.
    fn build_select(&mut self, links: Range<usize>, default: TermId) -> Span {
        let Blaster {
            c,
            arena,
            bits,
            out,
            links: all,
            ..
        } = self;
        let word = |x: TermId| &arena[bits[&x].range()];
        let run = &all[links];
        // `none ∨ h_1 ∨ … ∨ h_k` and `¬none ∨ ¬h_j`; the clause stays
        // in the scratch word, so `hits[1..]` are the links' `h_j`.
        let mut hits = std::mem::take(&mut c.tmp);
        hits.clear();
        let none = c.fresh();
        hits.push(none);
        for l in run {
            let h = word(l.hit)[0];
            c.sat.add_clause(&[!none, !h]);
            hits.push(h);
        }
        c.sat.add_clause(&hits);
        out.clear();
        let d = word(default);
        for (i, &di) in d.iter().enumerate() {
            let o = c.fresh();
            for (&h, l) in hits[1..].iter().zip(run) {
                let v = word(l.value)[i];
                c.sat.add_clause(&[!h, !v, o]);
                c.sat.add_clause(&[!h, v, !o]);
            }
            c.sat.add_clause(&[!none, !di, o]);
            c.sat.add_clause(&[!none, di, !o]);
            out.push(o);
        }
        c.tmp = hits;
        self.push_bits()
    }

    /// Lowers one node whose children are already in `self.bits`:
    /// appends its bits to the arena, or names a run already there.
    fn build_bits(&mut self, pool: &TermPool, t: TermId) -> Span {
        let w = pool.width(t) as usize;
        let Blaster {
            c,
            arena,
            bits,
            out,
            ..
        } = self;
        let span = |x: TermId| bits[&x];
        let word = |x: TermId| &arena[span(x).range()];
        out.clear();
        match *pool.get(t) {
            Term::Const { value, .. } => {
                out.extend((0..w).map(|i| c.const_lit(value >> i & 1 == 1)))
            }
            Term::Var { id, .. } => {
                if let Some(&b) = self.var_bits.get(&id) {
                    return b;
                }
                for _ in 0..w {
                    out.push(c.fresh());
                }
                let b = self.push_bits();
                self.var_bits.insert(id, b);
                self.memo_log.push(MemoKey::Var(id));
                return b;
            }
            Term::Unary(op, a) => match op {
                UnOp::Not => out.extend(word(a).iter().map(|&l| !l)),
                UnOp::Neg => c.neg_vec(word(a), out),
            },
            Term::Binary(op, a, b) => {
                use BinOp::*;
                let (av, bv) = (word(a), word(b));
                match op {
                    Add => c.add_vec(av, bv, out),
                    Sub => c.sub_vec(av, bv, out),
                    Mul => c.mul_vec(av, bv, out),
                    UDiv => c.divrem_vec(av, bv, false, out),
                    URem => c.divrem_vec(av, bv, true, out),
                    And => {
                        for i in 0..av.len() {
                            out.push(c.g_and(av[i], bv[i]));
                        }
                    }
                    Or => {
                        for i in 0..av.len() {
                            out.push(c.g_or(av[i], bv[i]));
                        }
                    }
                    Xor => {
                        for i in 0..av.len() {
                            out.push(c.g_xor(av[i], bv[i]));
                        }
                    }
                    Shl => c.shift_vec(av, bv, true, out),
                    Lshr => c.shift_vec(av, bv, false, out),
                    Eq => out.push(c.eq_vec(av, bv)),
                    Ult => out.push(c.ult_vec(av, bv)),
                    Ule => out.push(!c.ult_vec(bv, av)),
                    Slt => out.push(c.slt_vec(av, bv)),
                    Sle => out.push(!c.slt_vec(bv, av)),
                }
            }
            Term::Ite(s, a, b) => {
                let cv = word(s)[0];
                let (av, bv) = (word(a), word(b));
                for i in 0..av.len() {
                    out.push(c.g_ite(cv, av[i], bv[i]));
                }
            }
            Term::ZExt(a, _) => {
                out.extend_from_slice(word(a));
                out.resize(w, c.false_lit());
            }
            Term::SExt(a, _) => {
                let av = word(a);
                out.extend_from_slice(av);
                out.resize(w, av[av.len() - 1]);
            }
            Term::Extract { hi, lo, arg } => {
                let a = span(arg);
                debug_assert!(hi < a.len);
                return Span {
                    start: a.start + lo,
                    len: hi - lo + 1,
                };
            }
            Term::Concat(hi, lo) => {
                out.extend_from_slice(word(lo));
                out.extend_from_slice(word(hi));
            }
        }
        self.push_bits()
    }

    /// Moves the scratch word onto the arena and names its run.
    fn push_bits(&mut self) -> Span {
        let span = Span {
            start: self.arena.len() as u32,
            len: self.out.len() as u32,
        };
        self.arena.extend_from_slice(&self.out);
        span
    }

    /// Asserts that the width-1 term `t` is true.
    pub fn assert_true(&mut self, pool: &TermPool, t: TermId) {
        debug_assert_eq!(pool.width(t), 1);
        let b = self.blast(pool, t)[0];
        self.c.sat.add_clause(&[b]);
    }

    /// Asserts the width-1 term `t` gated on a fresh activation
    /// literal: the constraint holds only in
    /// [`Blaster::check_assuming`] calls whose assumptions include
    /// the returned literal. The circuit is memoized per [`TermId`]
    /// by [`Blaster::blast`] until a [`Blaster::rollback`] past it.
    pub fn assert_gated(&mut self, pool: &TermPool, t: TermId) -> Lit {
        debug_assert_eq!(pool.width(t), 1);
        let b = self.blast(pool, t)[0];
        let act = self.c.sat.new_activation_lit();
        self.c.sat.add_gated_clause(act, &[b]);
        act
    }

    /// Runs the SAT solver.
    pub fn check(&mut self) -> SolveResult {
        self.c.sat.solve()
    }

    /// Runs the SAT solver under `assumptions` (typically activation
    /// literals from [`Blaster::assert_gated`]). Learnt clauses,
    /// variable activities and saved phases persist across calls.
    pub fn check_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.c.sat.solve_with_assumptions(assumptions)
    }

    /// After a SAT verdict: the value of symbolic variable `id`.
    /// Variables that never appeared in an asserted term return `None`.
    pub fn model_var(&self, id: u32) -> Option<u64> {
        self.var_lits(id).map(|bits| self.model_bits(bits))
    }

    /// The input bits (LSB first) of symbolic variable `id`, if a term
    /// naming it was blasted in a live scope.
    pub fn var_lits(&self, id: u32) -> Option<&[Lit]> {
        self.var_bits.get(&id).map(|s| &self.arena[s.range()])
    }

    /// After a SAT verdict: the value of literal `l` in the model, or
    /// `None` if the call did not assign its variable.
    pub fn model_lit(&self, l: Lit) -> Option<bool> {
        self.c.sat.value(l.var()).map(|v| v == l.is_positive())
    }

    /// After a SAT verdict: whether the call's assumptions fixed `l`'s
    /// variable (see [`Solver::fixed_by_assumptions`]), so no model
    /// under them gives it another value.
    pub fn fixed_by_assumptions(&self, l: Lit) -> bool {
        self.c.sat.fixed_by_assumptions(l.var())
    }

    /// After a SAT verdict: the value of every variable blasted in a
    /// live scope — the variables of exactly the terms the verdict is
    /// about, read off without walking those terms.
    pub(crate) fn live_model(&self) -> Assignment {
        let mut a = Assignment::new();
        for (&id, s) in &self.var_bits {
            a.set(id, self.model_bits(&self.arena[s.range()]));
        }
        a
    }

    /// After a SAT verdict: the word `bits` (LSB first) spell.
    fn model_bits(&self, bits: &[Lit]) -> u64 {
        let mut v = 0u64;
        for (i, &l) in bits.iter().enumerate() {
            let bit = self.c.sat.value(l.var()).unwrap_or(false) == l.is_positive();
            if bit {
                v |= 1 << i;
            }
        }
        v
    }

    /// Propositional statistics of the underlying solver.
    pub fn sat_stats(&self) -> bitsat::SolverStats {
        self.c.sat.stats()
    }

    /// Number of SAT variables currently allocated (a proxy for the
    /// size of the blasted circuit).
    pub fn num_sat_vars(&self) -> usize {
        self.c.sat.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Assignment};

    /// Asserts `t` is satisfiable and every model it returns satisfies
    /// `t` under the reference evaluator.
    fn check_sat_and_model(pool: &TermPool, t: TermId) -> Assignment {
        let mut bl = Blaster::new();
        bl.assert_true(pool, t);
        assert!(bl.check().is_sat());
        let mut a = Assignment::new();
        for id in 0..pool.num_vars() as u32 {
            if let Some(v) = bl.model_var(id) {
                a.set(id, v);
            }
        }
        assert_eq!(eval(pool, t, &a), 1, "model must satisfy the term");
        a
    }

    fn check_unsat(pool: &TermPool, t: TermId) {
        let mut bl = Blaster::new();
        bl.assert_true(pool, t);
        assert!(bl.check().is_unsat());
    }

    /// Drives `gate` over every operand shape — ⊤, ⊥, an input, a
    /// complemented input, so repeated and complementary operands are
    /// among them — on one blaster, so later shapes meet the table
    /// entries of earlier ones. Under every input assignment the
    /// returned literal must be forced to `spec` of the operand values
    /// by unit propagation alone.
    fn gate_is_forced_to(
        arity: usize,
        gate: impl Fn(&mut Blaster, &[Lit]) -> Lit,
        spec: impl Fn(&[bool]) -> bool,
    ) {
        let mut bl = Blaster::new();
        let inputs: Vec<Lit> = (0..arity).map(|_| bl.c.fresh()).collect();
        let mut shapes = vec![bl.c.true_lit, bl.c.false_lit()];
        shapes.extend(inputs.iter().flat_map(|&x| [x, !x]));
        for pick in 0..shapes.len().pow(arity as u32) {
            let ops: Vec<Lit> = (0..arity)
                .map(|k| shapes[pick / shapes.len().pow(k as u32) % shapes.len()])
                .collect();
            let vars = bl.num_sat_vars();
            let out = gate(&mut bl, &ops);
            assert!(
                bl.num_sat_vars() <= vars + 1,
                "{ops:?}: more than one output"
            );
            for bits in 0..1usize << arity {
                let mut assume: Vec<Lit> = (0..arity)
                    .map(|j| {
                        if bits >> j & 1 == 1 {
                            inputs[j]
                        } else {
                            !inputs[j]
                        }
                    })
                    .collect();
                let value = |l: Lit| assume.contains(&l) || l == bl.c.true_lit;
                let want = spec(&ops.iter().map(|&l| value(l)).collect::<Vec<_>>());
                let decisions = bl.sat_stats().decisions;
                assume.push(if want { out } else { !out });
                assert!(
                    bl.check_assuming(&assume).is_sat(),
                    "{ops:?} under {bits:b}"
                );
                *assume.last_mut().unwrap() = if want { !out } else { out };
                assert!(
                    bl.check_assuming(&assume).is_unsat(),
                    "{ops:?} under {bits:b}"
                );
                assert_eq!(bl.sat_stats().decisions, decisions, "{ops:?} needed search");
            }
        }
    }

    #[test]
    fn gates_are_forced_by_propagation_on_every_operand_shape() {
        gate_is_forced_to(2, |bl, o| bl.c.g_and(o[0], o[1]), |v| v[0] && v[1]);
        gate_is_forced_to(2, |bl, o| bl.c.g_or(o[0], o[1]), |v| v[0] || v[1]);
        gate_is_forced_to(2, |bl, o| bl.c.g_xor(o[0], o[1]), |v| v[0] != v[1]);
        gate_is_forced_to(
            3,
            |bl, o| bl.c.g_ite(o[0], o[1], o[2]),
            |v| if v[0] { v[1] } else { v[2] },
        );
        gate_is_forced_to(
            3,
            |bl, o| bl.c.g_maj(o[0], o[1], o[2]),
            |v| usize::from(v[0]) + usize::from(v[1]) + usize::from(v[2]) >= 2,
        );
        gate_is_forced_to(
            3,
            |bl, o| bl.c.g_and_all(&mut o.iter().chain(o).copied().collect()),
            |v| v[0] && v[1] && v[2],
        );
    }

    /// How the blaster sees the second 4-bit operand `y`.
    #[derive(Clone, Copy, Debug)]
    enum Alias {
        /// A variable of its own.
        Free,
        /// The very literals of `x` — `x - x`, `ult(x, x)`.
        SameAsX,
        /// The complemented literals of `x` — `ite(c, x, ¬x)`.
        NotX,
    }

    /// Every word-level circuit over 4-bit `x`, `y` and 1-bit `c`, all
    /// in one blaster (so `ult(x, y)`, `ule(y, x)` and `x - y` meet in
    /// the gate table), against [`eval`] on every input assignment.
    /// The aliasing is invisible to the term layer, whose constructors
    /// would fold `x - x` before the blaster saw it.
    fn words_match_eval(alias: Alias) {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 4);
        let y = p.fresh_var("y", 4);
        let c = p.fresh_var("c", 1);
        let k = p.mk_const(4, 0b0110);
        let terms = [
            p.mk_add(x, y),
            p.mk_sub(x, y),
            p.mk_sub(y, x),
            p.mk_neg(x),
            p.mk_mul(x, y),
            p.mk_udiv(x, y),
            p.mk_urem(x, y),
            p.mk_shl(x, y),
            p.mk_lshr(x, y),
            p.mk_ult(x, y),
            p.mk_ule(y, x),
            p.mk_ule(x, y),
            p.mk_slt(x, y),
            p.mk_sle(x, y),
            p.mk_eq(x, y),
            p.mk_ite(c, x, y),
            p.mk_eq(x, k),
            p.mk_ult(x, k),
            p.mk_sub(k, x),
        ];
        let mut bl = Blaster::new();
        let xv = bl.blast(&p, x).to_vec();
        // Variable 1 is `y`.
        let y_bits = match alias {
            Alias::Free => None,
            Alias::SameAsX => Some(xv.clone()),
            Alias::NotX => Some(xv.iter().map(|&l| !l).collect()),
        };
        if let Some(y_bits) = y_bits {
            bl.out = y_bits;
            let span = bl.push_bits();
            bl.var_bits.insert(1, span);
        }
        let yv = bl.blast(&p, y).to_vec();
        let cv = bl.blast(&p, c).to_vec();
        let outs: Vec<Vec<Lit>> = terms.iter().map(|&t| bl.blast(&p, t).to_vec()).collect();
        for input in 0..1u64 << 9 {
            let (vx, vy, vc) = (input & 0xF, input >> 4 & 0xF, input >> 8);
            let possible = match alias {
                Alias::Free => true,
                Alias::SameAsX => vy == vx,
                Alias::NotX => vy == !vx & 0xF,
            };
            if !possible {
                continue;
            }
            // Variable ids follow creation order: x, y, c.
            let mut a = Assignment::new();
            a.set(0, vx);
            a.set(1, vy);
            a.set(2, vc);
            // Redundant under an alias, but never contradictory.
            let assume: Vec<Lit> = [(&xv, vx), (&yv, vy), (&cv, vc)]
                .into_iter()
                .flat_map(|(bits, v)| {
                    bits.iter()
                        .enumerate()
                        .map(move |(i, &l)| if v >> i & 1 == 1 { l } else { !l })
                })
                .collect();
            let decisions = bl.sat_stats().decisions;
            assert!(bl.check_assuming(&assume).is_sat());
            assert_eq!(
                bl.sat_stats().decisions,
                decisions,
                "a circuit's outputs are functions of its inputs"
            );
            for (&t, out) in terms.iter().zip(&outs) {
                assert_eq!(
                    bl.model_bits(out),
                    eval(&p, t, &a),
                    "{alias:?}: {} at x={vx} y={vy} c={vc}",
                    crate::pretty::print_term(&p, t)
                );
            }
        }
    }

    #[test]
    fn word_circuits_match_eval_on_all_width_4_operands() {
        words_match_eval(Alias::Free);
    }

    #[test]
    fn word_circuits_match_eval_on_aliased_operands() {
        words_match_eval(Alias::SameAsX);
        words_match_eval(Alias::NotX);
    }

    #[test]
    fn simple_equation() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c3 = p.mk_const(8, 3);
        let c10 = p.mk_const(8, 10);
        let s = p.mk_add(x, c3);
        let eq = p.mk_eq(s, c10);
        let a = check_sat_and_model(&p, eq);
        assert_eq!(a.get(0), 7);
    }

    #[test]
    fn contradiction() {
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c5 = p.mk_const(8, 5);
        let lt = p.mk_ult(x, c5);
        let gt = p.mk_ult(c5, x);
        let both = p.mk_bool_and(lt, gt);
        check_unsat(&p, both);
    }

    #[test]
    fn mul_factoring() {
        // x * y == 35, x > 1, y > 1 has solutions {5,7}.
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let prod = p.mk_mul(x, y);
        let c35 = p.mk_const(8, 35);
        let one = p.mk_const(8, 1);
        let eq = p.mk_eq(prod, c35);
        let gx = p.mk_ult(one, x);
        let gy = p.mk_ult(one, y);
        let t1 = p.mk_bool_and(eq, gx);
        let all = p.mk_bool_and(t1, gy);
        let a = check_sat_and_model(&p, all);
        assert_eq!((a.get(0) * a.get(1)) & 0xFF, 35);
    }

    #[test]
    fn division_inverse() {
        // x / 3 == 5 && x % 3 == 1  ⇒  x == 16
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c3 = p.mk_const(8, 3);
        let c5 = p.mk_const(8, 5);
        let c1 = p.mk_const(8, 1);
        let q = p.mk_udiv(x, c3);
        let r = p.mk_urem(x, c3);
        let e1 = p.mk_eq(q, c5);
        let e2 = p.mk_eq(r, c1);
        let both = p.mk_bool_and(e1, e2);
        let a = check_sat_and_model(&p, both);
        assert_eq!(a.get(0), 16);
    }

    #[test]
    fn shifts_symbolic_amount() {
        // (1 << s) == 16 ⇒ s == 4
        let mut p = TermPool::new();
        let s = p.fresh_var("s", 8);
        let one = p.mk_const(8, 1);
        let c16 = p.mk_const(8, 16);
        let sh = p.mk_shl(one, s);
        let eq = p.mk_eq(sh, c16);
        let a = check_sat_and_model(&p, eq);
        assert_eq!(a.get(0), 4);
    }

    #[test]
    fn shift_overflow_is_zero() {
        // (x << 9) == 0 for all 8-bit x — the negation is UNSAT.
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c9 = p.mk_const(8, 9);
        let sh = p.mk_shl(x, c9);
        let z = p.mk_const(8, 0);
        let ne = p.mk_ne(sh, z);
        check_unsat(&p, ne);
    }

    #[test]
    fn signed_comparison() {
        // x <s 0 && x >u 127 is consistent for 8-bit (x in 128..=255).
        let mut p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let z = p.mk_const(8, 0);
        let c127 = p.mk_const(8, 127);
        let sl = p.mk_slt(x, z);
        let gu = p.mk_ult(c127, x);
        let both = p.mk_bool_and(sl, gu);
        let a = check_sat_and_model(&p, both);
        assert!(a.get(0) >= 128);
    }
}
