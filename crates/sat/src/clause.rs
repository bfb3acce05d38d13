//! Clause storage.
//!
//! Every clause lives in one arena (`ClauseDb`): a header per clause,
//! referred to by [`ClauseRef`] index, and the literals of all clauses
//! back to back in one contiguous `Vec<Lit>`, each header naming its
//! run. Adding a clause appends to both, so a clause costs no
//! allocation of its own once the arena has grown to the working set;
//! watchers and reasons stay valid as the arena grows, and a rollback
//! compacts the kept learnt tail in place and truncates both arrays.

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

/// A clause's bookkeeping; its literals are `lits[start..start + len]`
/// of the arena. Invariant: the first two literals are the watched ones.
#[derive(Debug, Clone)]
pub(crate) struct Header {
    start: u32,
    len: u32,
    /// Whether this clause was learnt (eligible for DB reduction).
    pub(crate) learnt: bool,
    /// Deleted by the reducer: a dead slot, watched by nothing.
    pub(crate) deleted: bool,
    /// Literal-block distance at learn time: the number of distinct
    /// decision levels among the clause's literals. Low-LBD ("glue")
    /// clauses connect few levels and are empirically the most
    /// reusable, so `reduce_db` evicts high-LBD clauses first and
    /// never deletes clauses with LBD ≤ 2. Always 0 for problem
    /// clauses.
    pub(crate) lbd: u32,
    /// Activity for learnt-clause reduction (the eviction tie-break).
    pub(crate) activity: f64,
}

impl Header {
    /// Number of literals.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Where the literals sit in the arena.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Arena of clauses.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseDb {
    headers: Vec<Header>,
    /// The literals of every clause, in clause order.
    pub(crate) lits: Vec<Lit>,
    /// Number of learnt clauses not yet deleted.
    num_learnt: usize,
}

impl ClauseDb {
    /// Appends a clause and returns its reference.
    pub(crate) fn add(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        if learnt {
            self.num_learnt += 1;
        }
        let r = ClauseRef(self.headers.len() as u32);
        self.headers.push(Header {
            start: self.lits.len() as u32,
            len: lits.len() as u32,
            learnt,
            deleted: false,
            lbd: 0,
            activity: 0.0,
        });
        self.lits.extend_from_slice(lits);
        r
    }

    /// A clause's bookkeeping.
    pub(crate) fn header(&self, r: ClauseRef) -> &Header {
        &self.headers[r.0 as usize]
    }

    /// A clause's bookkeeping, mutably.
    pub(crate) fn header_mut(&mut self, r: ClauseRef) -> &mut Header {
        &mut self.headers[r.0 as usize]
    }

    /// Every clause's bookkeeping, in arena order.
    pub(crate) fn headers(&self) -> &[Header] {
        &self.headers
    }

    /// Every clause's bookkeeping, mutably.
    pub(crate) fn headers_mut(&mut self) -> &mut [Header] {
        &mut self.headers
    }

    /// A clause's literals.
    pub(crate) fn lits(&self, r: ClauseRef) -> &[Lit] {
        &self.lits[self.header(r).range()]
    }

    /// Marks a learnt clause deleted (the caller detaches its watchers).
    /// Its literals stay where they are until a rollback drops them.
    pub(crate) fn delete(&mut self, r: ClauseRef) {
        let c = &mut self.headers[r.0 as usize];
        debug_assert!(c.learnt && !c.deleted);
        c.deleted = true;
        self.num_learnt -= 1;
    }

    /// Drops every clause at index `base` or above except the live
    /// learnt clauses whose variables are all below `vars`, which are
    /// compacted down to `base..` in order, literals and all. Writes
    /// the new reference of each old slot `base + i` to `remap[i]`
    /// ([`ClauseRef::NONE`] = dropped).
    pub(crate) fn truncate_keeping_learnts(
        &mut self,
        base: usize,
        vars: usize,
        remap: &mut Vec<ClauseRef>,
    ) {
        remap.clear();
        remap.resize(self.headers.len() - base, ClauseRef::NONE);
        let mut kept = base;
        let mut end = self
            .headers
            .get(base)
            .map_or(self.lits.len(), |h| h.start as usize);
        for old in base..self.headers.len() {
            let c = &self.headers[old];
            if !c.learnt || c.deleted {
                continue;
            }
            let range = c.range();
            if self.lits[range.clone()]
                .iter()
                .all(|l| l.var().index() < vars)
            {
                remap[old - base] = ClauseRef(kept as u32);
                self.lits.copy_within(range, end);
                let c = &mut self.headers[old];
                c.start = end as u32;
                end += c.len();
                self.headers.swap(kept, old);
                kept += 1;
            } else {
                self.num_learnt -= 1;
            }
        }
        self.headers.truncate(kept);
        self.lits.truncate(end);
    }

    /// Number of live learnt clauses.
    pub(crate) fn num_learnt(&self) -> usize {
        self.num_learnt
    }

    /// Total number of clause slots (including deleted).
    pub(crate) fn len(&self) -> usize {
        self.headers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::new(Var::from_index(v), pos)
    }

    #[test]
    fn add_get_delete() {
        let mut db = ClauseDb::default();
        let (a, b) = (lit(0, true), lit(1, false));
        let r = db.add(&[a, b], true);
        assert_eq!(db.lits(r), [a, b]);
        assert_eq!(db.num_learnt(), 1);
        db.delete(r);
        assert_eq!(db.num_learnt(), 0);
        assert!(db.header(r).deleted);
    }

    #[test]
    fn truncation_compacts_kept_learnts_in_order() {
        let mut db = ClauseDb::default();
        let below = db.add(&[lit(0, true), lit(1, true)], false);
        let base = db.len();
        db.add(&[lit(0, false), lit(2, true)], false); // problem: dropped
        let dead = db.add(&[lit(0, true), lit(1, false), lit(2, false)], true);
        db.delete(dead);
        db.add(&[lit(3, true), lit(0, true)], true); // names var 3: dropped
        let k1 = db.add(&[lit(1, false), lit(2, true), lit(0, false)], true);
        let k2 = db.add(&[lit(2, false), lit(1, true)], true);
        let (k1_lits, k2_lits) = (db.lits(k1).to_vec(), db.lits(k2).to_vec());
        let mut remap = Vec::new();
        db.truncate_keeping_learnts(base, 3, &mut remap);
        let none = ClauseRef::NONE;
        let (n1, n2) = (ClauseRef(base as u32), ClauseRef(base as u32 + 1));
        assert_eq!(remap, [none, none, none, n1, n2]);
        assert_eq!(db.len(), base + 2);
        assert_eq!(db.num_learnt(), 2);
        assert_eq!(db.lits(below), [lit(0, true), lit(1, true)]);
        assert_eq!(db.lits(n1), k1_lits);
        assert_eq!(db.lits(n2), k2_lits);
        assert_eq!(db.lits.len(), 2 + 3 + 2, "the dropped literals are gone");
    }
}
