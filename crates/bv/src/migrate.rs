//! Cross-pool term migration.
//!
//! The verifier's step 1 executes every pipeline element in a private
//! [`TermPool`] — on a worker thread in parallel runs, and always for
//! the content-addressed summary store, whose cached summaries must be
//! pool-independent — then imports the resulting summaries into the
//! single master pool that step-2 composition works over. [`Migrator`]
//! performs that import: variables are re-created in the destination
//! pool (preserving name and width) and terms are rebuilt bottom-up
//! through the normal simplifying constructors, so an imported term is
//! semantically equal to its source.
//!
//! Because the constructors are deterministic, migrating the same
//! source pool into equal destination states yields identical
//! destination ids — which is what lets a summary-store cache hit
//! reproduce, byte for byte, the master pool a cache miss (or a
//! store-less run) would have built.

use crate::term::{fold, Fold, Term, TermId, TermPool};
use std::collections::HashMap;

/// Imports terms and variables from one [`TermPool`] into another.
///
/// A migrator is stateful: every source variable and term is translated
/// at most once, so structural sharing in the source pool is preserved
/// in the destination pool.
#[derive(Debug, Default)]
pub struct Migrator {
    term_map: HashMap<TermId, TermId>,
    var_map: HashMap<u32, u32>,
}

impl Migrator {
    /// Creates an empty migrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Imports every variable of `src` (in creation order) into `dst`,
    /// skipping variables already imported. Importing in creation order
    /// keeps the destination numbering deterministic regardless of
    /// which terms are migrated afterwards.
    pub fn import_all_vars(&mut self, src: &TermPool, dst: &mut TermPool) {
        for vid in 0..src.num_vars() as u32 {
            self.import_var(vid, src, dst);
        }
    }

    /// Imports one variable, returning its destination id.
    pub fn import_var(&mut self, vid: u32, src: &TermPool, dst: &mut TermPool) -> u32 {
        if let Some(&d) = self.var_map.get(&vid) {
            return d;
        }
        // Variable ids are dense: the next one is the count so far.
        let d = dst.num_vars() as u32;
        dst.fresh_var(src.var_name(vid), src.var_width(vid));
        self.var_map.insert(vid, d);
        d
    }

    /// Destination id of an already-imported source variable.
    pub fn mapped_var(&self, vid: u32) -> Option<u32> {
        self.var_map.get(&vid).copied()
    }

    /// Imports the term `root` (and transitively its subterms) from
    /// `src` into `dst`, returning the destination id.
    pub fn import(&mut self, root: TermId, src: &TermPool, dst: &mut TermPool) -> TermId {
        // A `fold`: packet-transform terms can be deep.
        fold(
            &mut Import {
                mig: self,
                src,
                dst,
            },
            root,
        );
        self.term_map[&root]
    }
}

/// The [`Fold`] behind [`Migrator::import`].
struct Import<'a> {
    mig: &'a mut Migrator,
    src: &'a TermPool,
    dst: &'a mut TermPool,
}

impl Fold for Import<'_> {
    fn pool(&self) -> &TermPool {
        self.src
    }

    fn done(&self, t: TermId) -> bool {
        self.mig.term_map.contains_key(&t)
    }

    fn build(&mut self, t: TermId, node: Term) {
        let built = match node {
            Term::Const { width, value } => self.dst.mk_const(width, value),
            Term::Var { id, .. } => {
                let d = self.mig.import_var(id, self.src, self.dst);
                self.dst.var_term(d)
            }
            node => {
                let map = &self.mig.term_map;
                self.dst.rebuild(node, |c| map[&c])
            }
        };
        self.mig.term_map.insert(t, built);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Assignment};

    #[test]
    fn migrated_term_evaluates_identically() {
        let mut src = TermPool::new();
        let x = src.fresh_var("x", 8);
        let y = src.fresh_var("y", 8);
        let s = src.mk_add(x, y);
        let c = src.mk_const(8, 7);
        let m = src.mk_mul(s, c);
        let cmp = src.mk_ult(m, y);

        let mut dst = TermPool::new();
        // Unrelated allocations first: destination ids must not matter.
        dst.fresh_var("unrelated", 16);
        dst.mk_const(32, 99);
        let mut mig = Migrator::new();
        mig.import_all_vars(&src, &mut dst);
        let cmp2 = mig.import(cmp, &src, &mut dst);

        for (xv, yv) in [(0u64, 0u64), (3, 250), (255, 255), (17, 4)] {
            let mut asg_src = Assignment::new();
            asg_src.set(0, xv);
            asg_src.set(1, yv);
            let mut asg_dst = Assignment::new();
            asg_dst.set(mig.mapped_var(0).unwrap(), xv);
            asg_dst.set(mig.mapped_var(1).unwrap(), yv);
            assert_eq!(eval(&src, cmp, &asg_src), eval(&dst, cmp2, &asg_dst));
        }
    }

    #[test]
    fn sharing_is_preserved() {
        let mut src = TermPool::new();
        let x = src.fresh_var("x", 16);
        let t1 = src.mk_add(x, x);
        let t2 = src.mk_mul(t1, t1);
        let mut dst = TermPool::new();
        let mut mig = Migrator::new();
        let a = mig.import(t2, &src, &mut dst);
        let b = mig.import(t1, &src, &mut dst);
        // t1 was already imported as a subterm of t2: same destination id.
        assert_eq!(mig.import(t1, &src, &mut dst), b);
        assert_ne!(a, b);
    }
}
