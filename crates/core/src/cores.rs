//! Conflict-driven step-2 pruning: UNSAT-core learning, subsumption
//! lookup, and the shared core store.
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
//! a set of `TermId`s valid for exactly the pool that produced it:
//!
//! * the sequential engine and every property checked by one
//!   [`crate::Verifier`] share the session pool, so cores learned
//!   proving crash-freedom prune the bounded-execution and filtering
//!   searches too (the store is kept per [`crate::MapMode`] beside
//!   the cached summaries);
//! * parallel workers operate on *clones* of the master pool and
//!   intern private terms as they compose deeper, so workers publish
//!   only cores whose every term exists in the master pool (id below
//!   the clone boundary) to the shared store — worker-local cores
//!   still prune that worker's own later tasks.
//!
//! Lookup cost is kept off the hot path by a 64-bit **fingerprint**
//! pre-filter (each term hashes to one bit; a core can only be a
//! subset of a constraint set if its fingerprint bits are): candidate
//! cores that survive the bit test are confirmed by a sorted-vec
//! merge walk.

use bvsolve::TermId;
use std::sync::{Arc, Mutex};

/// Counters for the conflict-driven pruning layer, reported per check
/// on [`crate::VerifyReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// New UNSAT cores recorded in the store by this check.
    pub cores_learned: u64,
    /// Solver queries skipped because the constraint set subsumed a
    /// known core (includes `subtrees_pruned`).
    pub core_hits: u64,
    /// Subset of `core_hits` that cut a *continuation* node — the
    /// whole search subtree below it was never expanded.
    pub subtrees_pruned: u64,
}

impl CoreStats {
    /// Adds `other`'s counters into `self` (for merging per-worker
    /// stats in the parallel driver).
    pub fn merge(&mut self, other: &CoreStats) {
        self.cores_learned += other.cores_learned;
        self.core_hits += other.core_hits;
        self.subtrees_pruned += other.subtrees_pruned;
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
/// is append-only (a [`crate::Verifier`] shares one per map mode
/// across property checks and engines; parallel workers sync by
/// remembering how many entries they have already merged), and
/// inserting a core that is a superset of an existing one is a no-op
/// since the existing core already subsumes everything the new one
/// would.
#[derive(Debug, Default)]
pub struct CoreStore {
    /// `(fingerprint, sorted core)`, append-only. The `Arc` makes
    /// syncing a store into a worker-local replica a pointer copy.
    cores: Vec<(u64, Arc<Vec<TermId>>)>,
}

impl CoreStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
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
    pub fn insert(&mut self, core: Arc<Vec<TermId>>) -> bool {
        let fp = fingerprint(&core);
        if self.subsumed(fp, &core) {
            return false;
        }
        self.cores.push((fp, core));
        true
    }

    /// Appends entries `[from..]` of `other` (a shared store this
    /// replica syncs from). Skips entries an existing core subsumes.
    fn merge_from(&mut self, other: &CoreStore, from: usize) {
        for (_, core) in &other.cores[from..] {
            self.insert(Arc::clone(core));
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

/// The per-engine pruning handle threaded through the step-2 search:
/// a local [`CoreStore`] replica plus the shared session store it
/// syncs with at check/task boundaries.
pub(crate) struct Pruner {
    enabled: bool,
    shared: Arc<Mutex<CoreStore>>,
    local: CoreStore,
    /// How many entries of `shared` are already merged into `local`.
    synced: usize,
    /// Cores learned locally since the last publish.
    pending: Vec<Arc<Vec<TermId>>>,
    /// Exclusive upper bound on `TermId::index` for *published* cores:
    /// parallel workers intern terms their siblings don't have, so
    /// only cores made entirely of master-pool terms may leave the
    /// worker. `usize::MAX` for the sequential engine (single pool).
    publish_limit: usize,
    /// Scratch for sorting constraint sets without re-allocating.
    scratch: Vec<TermId>,
    pub(crate) stats: CoreStats,
}

impl Pruner {
    /// A pruner over `shared`. `enabled = false` turns every method
    /// into a no-op (the `core_pruning = false` A/B baseline).
    pub(crate) fn new(shared: Arc<Mutex<CoreStore>>, enabled: bool, publish_limit: usize) -> Self {
        Pruner {
            enabled,
            shared,
            local: CoreStore::new(),
            synced: 0,
            pending: Vec::new(),
            publish_limit,
            scratch: Vec::new(),
            stats: CoreStats::default(),
        }
    }

    /// Pulls cores other engines/workers have published since the
    /// last sync into the local replica.
    pub(crate) fn sync(&mut self) {
        if !self.enabled {
            return;
        }
        let shared = self.shared.lock().expect("core store poisoned");
        if shared.len() > self.synced {
            self.local.merge_from(&shared, self.synced);
            self.synced = shared.len();
        }
    }

    /// Publishes locally-learned cores to the shared store (skipping
    /// cores with worker-private terms) and re-syncs.
    pub(crate) fn publish(&mut self) {
        if !self.enabled {
            return;
        }
        let mut shared = self.shared.lock().expect("core store poisoned");
        if shared.len() > self.synced {
            self.local.merge_from(&shared, self.synced);
        }
        for core in self.pending.drain(..) {
            if core.iter().all(|t| t.index() < self.publish_limit) {
                shared.insert(core);
            }
        }
        self.synced = shared.len();
    }

    /// Whether `constraints` is known UNSAT (subsumes a stored core).
    /// Counts a hit; `subtree = true` additionally counts a pruned
    /// continuation subtree.
    pub(crate) fn known_unsat(&mut self, constraints: &[TermId], subtree: bool) -> bool {
        if !self.enabled || self.local.is_empty() {
            return false;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(constraints);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        let fp = fingerprint(&self.scratch);
        if self.local.subsumed(fp, &self.scratch) {
            self.stats.core_hits += 1;
            if subtree {
                self.stats.subtrees_pruned += 1;
            }
            true
        } else {
            false
        }
    }

    /// Records a core returned by an UNSAT query.
    pub(crate) fn learn(&mut self, mut core: Vec<TermId>) {
        if !self.enabled || core.is_empty() {
            return;
        }
        core.sort_unstable();
        core.dedup();
        let core = Arc::new(core);
        if self.local.insert(Arc::clone(&core)) {
            self.stats.cores_learned += 1;
            self.pending.push(core);
        }
    }
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
        assert!(store.insert(Arc::new(vec![v[1], v[3]])));
        // Superset of a stored core: rejected as redundant.
        assert!(!store.insert(Arc::new(vec![v[1], v[2], v[3]])));
        // Different core: kept.
        assert!(store.insert(Arc::new(vec![v[4]])));
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
    }

    #[test]
    fn pruner_learns_hits_and_publishes() {
        let mut pool = bvsolve::TermPool::new();
        let v = ids(&mut pool, 6);
        let shared = Arc::new(Mutex::new(CoreStore::new()));
        let mut a = Pruner::new(Arc::clone(&shared), true, usize::MAX);
        let mut b = Pruner::new(Arc::clone(&shared), true, usize::MAX);

        assert!(!a.known_unsat(&[v[0], v[1]], false));
        a.learn(vec![v[1], v[0]]);
        assert!(a.known_unsat(&[v[0], v[1], v[2]], true));
        assert_eq!(a.stats.core_hits, 1);
        assert_eq!(a.stats.subtrees_pruned, 1);

        // b sees nothing until a publishes.
        b.sync();
        assert!(!b.known_unsat(&[v[0], v[1]], false));
        a.publish();
        b.sync();
        assert!(b.known_unsat(&[v[0], v[1]], false));
    }

    #[test]
    fn publish_limit_keeps_private_terms_local() {
        let mut pool = bvsolve::TermPool::new();
        let v = ids(&mut pool, 6);
        let shared = Arc::new(Mutex::new(CoreStore::new()));
        // Everything at index ≥ v[3] is "worker-private".
        let limit = v[3].index();
        let mut w = Pruner::new(Arc::clone(&shared), true, limit);
        w.learn(vec![v[4], v[5]]); // private: stays local
        w.learn(vec![v[0], v[1]]); // shared-safe: published
        assert!(w.known_unsat(&[v[4], v[5]], false), "local core still hits");
        w.publish();
        assert_eq!(shared.lock().unwrap().len(), 1);

        let mut other = Pruner::new(Arc::clone(&shared), true, limit);
        other.sync();
        assert!(other.known_unsat(&[v[0], v[1], v[2]], false));
        assert!(!other.known_unsat(&[v[4], v[5]], false));
    }

    #[test]
    fn disabled_pruner_is_inert() {
        let mut pool = bvsolve::TermPool::new();
        let v = ids(&mut pool, 3);
        let shared = Arc::new(Mutex::new(CoreStore::new()));
        let mut p = Pruner::new(Arc::clone(&shared), false, usize::MAX);
        p.learn(vec![v[0]]);
        assert!(!p.known_unsat(&[v[0], v[1]], true));
        p.publish();
        assert!(shared.lock().unwrap().is_empty());
        assert_eq!(p.stats.cores_learned, 0);
    }
}
