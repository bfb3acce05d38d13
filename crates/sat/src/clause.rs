//! Clause storage.
//!
//! Clause headers live in a single arena (`ClauseDb`) and are referred
//! to by [`ClauseRef`] indices, so watchers and reasons stay valid as
//! the arena grows and the learnt tail can be compacted in place. The
//! literals are not in the arena: each [`Clause`] owns a heap
//! `Vec<Lit>`, so the propagation loop follows one pointer per visited
//! watcher whose blocker is not already true.

use crate::lit::Lit;

/// Index of a clause inside the `ClauseDb` arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClauseRef(pub(crate) u32);

impl ClauseRef {
    /// Sentinel meaning "no clause" (used for decision/unasserted reasons).
    pub const NONE: ClauseRef = ClauseRef(u32::MAX);

    /// Whether this reference is the [`ClauseRef::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

/// A clause: a disjunction of literals plus solver bookkeeping.
#[derive(Debug, Clone)]
pub struct Clause {
    /// The literals. Invariant: positions 0 and 1 are the watched literals.
    pub lits: Vec<Lit>,
    /// Whether this clause was learnt (eligible for DB reduction).
    pub learnt: bool,
    /// Activity for learnt-clause reduction (the eviction tie-break).
    pub activity: f64,
    /// Literal-block distance at learn time: the number of distinct
    /// decision levels among the clause's literals. Low-LBD ("glue")
    /// clauses connect few levels and are empirically the most
    /// reusable, so `reduce_db` evicts high-LBD clauses first and
    /// never deletes clauses with LBD ≤ 2. Always 0 for problem
    /// clauses.
    pub lbd: u32,
    /// Deleted by the reducer: a dead arena slot, watched by nothing.
    pub deleted: bool,
}

impl Clause {
    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether the clause has no literals.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }
}

/// Arena of clauses.
#[derive(Debug, Clone, Default)]
pub struct ClauseDb {
    pub(crate) clauses: Vec<Clause>,
    /// Number of learnt clauses not yet deleted.
    pub(crate) num_learnt: usize,
}

impl ClauseDb {
    /// Creates an empty database.
    #[allow(dead_code)]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a clause and returns its reference.
    pub fn add(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        if learnt {
            self.num_learnt += 1;
        }
        let r = ClauseRef(self.clauses.len() as u32);
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            lbd: 0,
            deleted: false,
        });
        r
    }

    /// Borrows a clause.
    pub fn get(&self, r: ClauseRef) -> &Clause {
        &self.clauses[r.0 as usize]
    }

    /// Mutably borrows a clause.
    pub fn get_mut(&mut self, r: ClauseRef) -> &mut Clause {
        &mut self.clauses[r.0 as usize]
    }

    /// Marks a learnt clause deleted (the caller detaches its watchers).
    pub fn delete(&mut self, r: ClauseRef) {
        let c = &mut self.clauses[r.0 as usize];
        debug_assert!(c.learnt && !c.deleted);
        c.deleted = true;
        self.num_learnt -= 1;
    }

    /// Drops every clause at index `base` or above except the live
    /// learnt clauses whose variables are all below `vars`, which are
    /// compacted down to `base..` in order. Returns the new reference
    /// of each old slot `base + i` ([`ClauseRef::NONE`] = dropped).
    pub fn truncate_keeping_learnts(&mut self, base: usize, vars: usize) -> Vec<ClauseRef> {
        let mut remap = vec![ClauseRef::NONE; self.clauses.len() - base];
        let mut kept = base;
        for old in base..self.clauses.len() {
            let c = &self.clauses[old];
            if !c.learnt || c.deleted {
                continue;
            }
            if c.lits.iter().all(|l| l.var().index() < vars) {
                remap[old - base] = ClauseRef(kept as u32);
                self.clauses.swap(kept, old);
                kept += 1;
            } else {
                self.num_learnt -= 1;
            }
        }
        self.clauses.truncate(kept);
        remap
    }

    /// Number of live learnt clauses.
    pub fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Total number of clause slots (including deleted).
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the arena is empty.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    #[test]
    fn add_get_delete() {
        let mut db = ClauseDb::new();
        let a = Lit::pos(Var::from_index(0));
        let b = Lit::neg(Var::from_index(1));
        let r = db.add(vec![a, b], true);
        assert_eq!(db.get(r).lits, vec![a, b]);
        assert_eq!(db.num_learnt(), 1);
        db.delete(r);
        assert_eq!(db.num_learnt(), 0);
        assert!(db.get(r).deleted);
    }
}
