//! Conflict-driven step-2 pruning: UNSAT-core learning, subsumption
//! lookup, and the per-session core store.
//!
//! Every infeasible composed path the step-2 search refutes comes with
//! an [`bvsolve::Infeasibility`] core — a subset of the path's
//! constraint terms whose conjunction is already UNSAT (see the PR-3
//! incremental sessions; cores are extracted by assumption-level
//! conflict analysis in the CDCL backend). The search records each
//! core in a [`CoreStore`] and, before touching the solver, skips any
//! continuation whose accumulated constraint set **subsumes** a known
//! core (contains every term of it): such a set is UNSAT by monotonic
//! entailment, so the skip can never change a verdict — pruning only
//! ever replaces queries the solver would have answered `Unsat`.
//!
//! Because terms are hash-consed per [`bvsolve::TermPool`], a core is
//! a set of `TermId`s valid for exactly the pool that produced it. A
//! session has one pool and, per [`crate::MapMode`], one store held by
//! value beside the cached summaries — no replicas, nothing to sync:
//! every property checked by one [`crate::Verifier`] (or re-checked by
//! one [`crate::ChurnSession`]) searches through the same store, so
//! cores learned proving crash-freedom prune the bounded-execution
//! search too.
//!
//! Lookup cost is kept off the hot path by a 64-bit **fingerprint**
//! pre-filter (each term hashes to one bit; a core can only be a
//! subset of a constraint set if its fingerprint bits are): candidate
//! cores that survive the bit test are confirmed by a sorted-vec
//! merge walk.

use bvsolve::TermId;

/// Counters for the conflict-driven pruning layer. A [`CoreStore`]
/// keeps them cumulatively; [`crate::VerifyReport`] carries one check's
/// [`CoreStats::delta`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// New UNSAT cores recorded in the store.
    pub cores_learned: u64,
    /// Solver queries skipped because the constraint set subsumed a
    /// known core (includes `subtrees_pruned`).
    pub core_hits: u64,
    /// Subset of `core_hits` that cut a *continuation* node — the
    /// whole search subtree below it was never expanded.
    pub subtrees_pruned: u64,
}

impl CoreStats {
    /// The counters accrued since `before` was read off the same store
    /// (what one check reports, like `SolverLayerStats::delta`).
    pub fn delta(&self, before: &CoreStats) -> CoreStats {
        CoreStats {
            cores_learned: self.cores_learned - before.cores_learned,
            core_hits: self.core_hits - before.core_hits,
            subtrees_pruned: self.subtrees_pruned - before.subtrees_pruned,
        }
    }
}

/// One fingerprint bit per term (Fibonacci-hashed index → 1 of 64
/// bits). A set's fingerprint is the OR over its terms, so
/// `core_fp & !set_fp != 0` proves the core cannot be a subset.
fn fp_bit(t: TermId) -> u64 {
    1u64 << ((t.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// Fingerprint of a term set (order-insensitive).
fn fingerprint(terms: &[TermId]) -> u64 {
    terms.iter().fold(0u64, |acc, &t| acc | fp_bit(t))
}

/// A store of learned UNSAT cores over one [`bvsolve::TermPool`].
///
/// Cores are kept as sorted, deduplicated `TermId` vectors behind a
/// 64-bit fingerprint pre-filter; [`CoreStore::subsumed`] answers
/// "is some stored core a subset of this constraint set?" — the
/// query the step-2 search asks before every solver call. The store
/// is append-only (a [`crate::Verifier`] keeps one per map mode across
/// property checks), and inserting a core that is a superset of an
/// existing one is a no-op since the existing core already subsumes
/// everything the new one would.
#[derive(Debug, Default)]
pub struct CoreStore {
    /// `(fingerprint, sorted core)`, append-only.
    cores: Vec<(u64, Vec<TermId>)>,
    /// Turns [`CoreStore::known_unsat`] and [`CoreStore::learn`] into
    /// no-ops: the unpruned reference search of
    /// [`crate::Verifier::reference_without_core_pruning`].
    disabled: bool,
    /// Scratch for sorting constraint sets without re-allocating.
    scratch: Vec<TermId>,
    stats: CoreStats,
}

impl CoreStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that never learns and never prunes.
    pub(crate) fn disabled() -> Self {
        CoreStore {
            disabled: true,
            ..Self::default()
        }
    }

    /// Whether the search reads cores from this store at all — if not,
    /// its solver need not extract them.
    pub(crate) fn is_enabled(&self) -> bool {
        !self.disabled
    }

    /// Lifetime counters; a check reports their [`CoreStats::delta`].
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Number of stored cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the store holds no cores.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Whether some stored core is a subset of the sorted, deduped
    /// set with fingerprint `fp` — i.e. the set is known UNSAT.
    pub fn subsumed(&self, fp: u64, sorted_set: &[TermId]) -> bool {
        self.cores
            .iter()
            .any(|(cfp, core)| cfp & !fp == 0 && is_subset(core, sorted_set))
    }

    /// Records `core` (sorted, deduped). Returns `false` (and stores
    /// nothing) when an existing core already subsumes it.
    pub fn insert(&mut self, core: Vec<TermId>) -> bool {
        let fp = fingerprint(&core);
        if self.subsumed(fp, &core) {
            return false;
        }
        self.cores.push((fp, core));
        true
    }

    /// Whether `constraints` is known UNSAT (subsumes a stored core).
    /// Counts a hit; `subtree = true` additionally counts a pruned
    /// continuation subtree.
    pub(crate) fn known_unsat(&mut self, constraints: &[TermId], subtree: bool) -> bool {
        if self.disabled || self.cores.is_empty() {
            return false;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(constraints);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let hit = self.subsumed(fingerprint(&self.scratch), &self.scratch);
        if hit {
            self.stats.core_hits += 1;
            if subtree {
                self.stats.subtrees_pruned += 1;
            }
        }
        hit
    }

    /// Records a core returned by an UNSAT query.
    pub(crate) fn learn(&mut self, mut core: Vec<TermId>) {
        if self.disabled || core.is_empty() {
            return;
        }
        core.sort_unstable();
        core.dedup();
        if self.insert(core) {
            self.stats.cores_learned += 1;
        }
    }
}

/// `a ⊆ b` for sorted, deduplicated slices (merge walk).
fn is_subset(a: &[TermId], b: &[TermId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut i = 0;
    for &x in b {
        if i == a.len() {
            return true;
        }
        match x.cmp(&a[i]) {
            std::cmp::Ordering::Equal => i += 1,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Less => {}
        }
    }
    i == a.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct `TermId`s from a real pool (the field is private to
    /// bvsolve, so tests mint ids through hash-consed constants).
    fn ids(pool: &mut bvsolve::TermPool, n: u64) -> Vec<TermId> {
        (0..n).map(|i| pool.mk_const(8, i)).collect()
    }

    #[test]
    fn subsumption_and_fingerprints() {
        let mut pool = bvsolve::TermPool::new();
        let v = ids(&mut pool, 8);
        let mut store = CoreStore::new();
        assert!(store.insert(vec![v[1], v[3]]));
        // Superset of a stored core: rejected as redundant.
        assert!(!store.insert(vec![v[1], v[2], v[3]]));
        // Different core: kept.
        assert!(store.insert(vec![v[4]]));
        assert_eq!(store.len(), 2);

        let set = |xs: &[TermId]| {
            let mut s = xs.to_vec();
            s.sort_unstable();
            (fingerprint(&s), s)
        };
        let (fp, s) = set(&[v[0], v[1], v[3], v[5]]);
        assert!(store.subsumed(fp, &s), "contains {{1,3}}");
        let (fp, s) = set(&[v[1], v[5]]);
        assert!(!store.subsumed(fp, &s), "misses term 3");
        let (fp, s) = set(&[v[4], v[7]]);
        assert!(store.subsumed(fp, &s), "contains {{4}}");

        // The search's view: unsorted sets in, counters out.
        assert!(!store.known_unsat(&[v[6], v[5]], false));
        store.learn(vec![v[6], v[5], v[6]]);
        assert!(store.known_unsat(&[v[7], v[6], v[5]], true));
        let stats = store.stats();
        assert_eq!(
            (stats.cores_learned, stats.core_hits, stats.subtrees_pruned),
            (1, 1, 1)
        );
    }

    #[test]
    fn disabled_store_is_inert() {
        let mut pool = bvsolve::TermPool::new();
        let v = ids(&mut pool, 3);
        let mut store = CoreStore::disabled();
        store.learn(vec![v[0]]);
        assert!(!store.known_unsat(&[v[0], v[1]], true));
        assert!(store.is_empty());
        assert_eq!(store.stats().cores_learned, 0);
        assert_eq!(store.stats().core_hits, 0);
    }
}
