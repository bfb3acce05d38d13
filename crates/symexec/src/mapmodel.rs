//! Map models: how the symbolic executor treats key/value stores.

use bvsolve::{TermId, TermPool};
use dpir::{MapDecl, MapId};

/// One possible continuation of a map operation: extra path
/// constraints, plus result terms.
#[derive(Debug, Clone)]
pub struct MapBranch {
    /// Constraints to conjoin onto the path.
    pub constraints: Vec<TermId>,
    /// The `found`/`ok` bit (width 1).
    pub flag: TermId,
    /// The value (reads: map value; writes/tests: unused, `flag` width-1
    /// duplicate is stored for uniformity).
    pub value: TermId,
    /// Havoc variable ids introduced by this branch (value, flag).
    pub havoc_value_var: Option<u32>,
    /// Havoc variable id of the flag, if fresh.
    pub havoc_flag_var: Option<u32>,
}

/// Strategy for map operations during symbolic execution.
pub trait MapModel {
    /// Symbolic `read(key)`: returns the possible `(found, value)`
    /// branches.
    fn read(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
    ) -> Vec<MapBranch>;

    /// Symbolic `write(key, value)`: returns the possible `ok` branches.
    fn write(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
        value: TermId,
    ) -> Vec<MapBranch>;

    /// Symbolic `test(key)`.
    fn test(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
    ) -> Vec<MapBranch>;
}

fn single(flag: TermId, value: TermId) -> Vec<MapBranch> {
    vec![MapBranch {
        constraints: Vec::new(),
        flag,
        value,
        havoc_value_var: None,
        havoc_flag_var: None,
    }]
}

/// The paper's data-structure abstraction (Conditions 2/3): every read
/// returns a **fresh, unconstrained** value — the store's internals are
/// never executed. Sound because the store itself is verified
/// separately (`dataplane::store` tests/proofs), and over-approximate
/// in exactly the way §3.4's sub-step (i) requires.
#[derive(Debug, Default)]
pub struct AbstractMapModel {
    counter: u64,
}

impl AbstractMapModel {
    /// Creates the model.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_flag(&mut self, pool: &mut TermPool, map: MapId, what: &str) -> (TermId, u32) {
        let name = format!("m{}.{}{}", map.0, what, self.counter);
        self.counter += 1;
        let t = pool.fresh_var(&name, 1);
        (t, last_var_id(pool))
    }
}

fn last_var_id(pool: &TermPool) -> u32 {
    (pool.num_vars() - 1) as u32
}

impl MapModel for AbstractMapModel {
    fn read(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        _key: TermId,
    ) -> Vec<MapBranch> {
        let (found, fid) = self.fresh_flag(pool, map, "found");
        let vname = format!("m{}.val{}", map.0, self.counter);
        self.counter += 1;
        let value = pool.fresh_var(&vname, decl.value_width);
        let vid = last_var_id(pool);
        vec![MapBranch {
            constraints: Vec::new(),
            flag: found,
            value,
            havoc_value_var: Some(vid),
            havoc_flag_var: Some(fid),
        }]
    }

    fn write(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        _decl: &MapDecl,
        _key: TermId,
        _value: TermId,
    ) -> Vec<MapBranch> {
        let (ok, fid) = self.fresh_flag(pool, map, "ok");
        vec![MapBranch {
            constraints: Vec::new(),
            flag: ok,
            value: ok,
            havoc_value_var: None,
            havoc_flag_var: Some(fid),
        }]
    }

    fn test(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        _decl: &MapDecl,
        _key: TermId,
    ) -> Vec<MapBranch> {
        let (found, fid) = self.fresh_flag(pool, map, "test");
        vec![MapBranch {
            constraints: Vec::new(),
            flag: found,
            value: found,
            havoc_value_var: None,
            havoc_flag_var: Some(fid),
        }]
    }
}

/// A static map with known contents, summarized *without forking* as an
/// if-then-else chain over the entries. Used for filtering proofs with
/// a specific configuration (paper §4 "Filtering") — e.g. an IP
/// forwarding table of 100k entries becomes one ITE term, not 100k
/// execution states.
#[derive(Debug, Default)]
pub struct TableMapModel {
    tables: std::collections::HashMap<u32, Vec<(u64, u64)>>,
}

impl TableMapModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the contents of `map` (pairs of key → value).
    pub fn set_table(&mut self, map: MapId, entries: Vec<(u64, u64)>) {
        self.tables.insert(map.0, entries);
    }

    fn lookup_terms(
        &self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
    ) -> (TermId, TermId) {
        let entries = self.tables.get(&map.0).map_or(&[][..], Vec::as_slice);
        let mut found = pool.mk_false();
        let mut value = pool.mk_const(decl.value_width, 0);
        // Build the chain back-to-front so the first entry wins.
        for &(k, v) in entries.iter().rev() {
            let kc = pool.mk_const(decl.key_width, k);
            let vc = pool.mk_const(decl.value_width, v);
            let hit = pool.mk_eq(key, kc);
            found = pool.mk_bool_or(found, hit);
            value = pool.mk_ite(hit, vc, value);
        }
        (found, value)
    }
}

impl MapModel for TableMapModel {
    fn read(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
    ) -> Vec<MapBranch> {
        let (found, value) = self.lookup_terms(pool, map, decl, key);
        single(found, value)
    }

    fn write(
        &mut self,
        pool: &mut TermPool,
        _map: MapId,
        _decl: &MapDecl,
        _key: TermId,
        _value: TermId,
    ) -> Vec<MapBranch> {
        // Static state is read-only for the dataplane (Table 1); a write
        // is refused, matching the runtime behavior.
        let f = pool.mk_false();
        single(f, f)
    }

    fn test(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
    ) -> Vec<MapBranch> {
        let (found, _) = self.lookup_terms(pool, map, decl, key);
        single(found, found)
    }
}

/// The **generic-baseline** model: reproduces what a general-purpose
/// engine does when it symbolically executes data-structure internals.
///
/// Each lookup walks the store's slots one comparison at a time, so a
/// symbolic key forks one state per slot (plus a miss state) — the
/// behavior that makes vanilla S2E exceed 12 hours the moment a large
/// table or a hash map enters the pipeline (Fig. 4(a)/(b)).
#[derive(Debug)]
pub struct ForkingMapModel {
    /// For static maps: concrete contents (fork per entry).
    tables: std::collections::HashMap<u32, Vec<(u64, u64)>>,
    /// For private maps: number of modeled slots (fork per slot with
    /// havoced contents).
    pub private_slots: usize,
    counter: u64,
}

impl ForkingMapModel {
    /// Creates the model; `private_slots` models the occupancy of
    /// private (mutable) maps.
    pub fn new(private_slots: usize) -> Self {
        ForkingMapModel {
            tables: std::collections::HashMap::new(),
            private_slots,
            counter: 0,
        }
    }

    /// Sets concrete contents for a static map.
    pub fn set_table(&mut self, map: MapId, entries: Vec<(u64, u64)>) {
        self.tables.insert(map.0, entries);
    }
}

impl MapModel for ForkingMapModel {
    fn read(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
    ) -> Vec<MapBranch> {
        if let Some(entries) = self.tables.get(&map.0) {
            // One branch per entry + one miss branch.
            let mut out = Vec::with_capacity(entries.len() + 1);
            let mut miss_constraints = Vec::with_capacity(entries.len());
            let tt = pool.mk_true();
            let ff = pool.mk_false();
            for &(k, v) in entries {
                let kc = pool.mk_const(decl.key_width, k);
                let vc = pool.mk_const(decl.value_width, v);
                let hit = pool.mk_eq(key, kc);
                out.push(MapBranch {
                    constraints: vec![hit],
                    flag: tt,
                    value: vc,
                    havoc_value_var: None,
                    havoc_flag_var: None,
                });
                let ne = pool.mk_not(hit);
                miss_constraints.push(ne);
            }
            let zero = pool.mk_const(decl.value_width, 0);
            out.push(MapBranch {
                constraints: miss_constraints,
                flag: ff,
                value: zero,
                havoc_value_var: None,
                havoc_flag_var: None,
            });
            out
        } else {
            // Private map: walk havoced slots — slot i holds an unknown
            // key; branch i is "key matches slot i's key".
            let mut out = Vec::with_capacity(self.private_slots + 1);
            let tt = pool.mk_true();
            let ff = pool.mk_false();
            let mut miss = Vec::with_capacity(self.private_slots);
            for s in 0..self.private_slots {
                let kname = format!("m{}.slotkey{}_{}", map.0, s, self.counter);
                let vname = format!("m{}.slotval{}_{}", map.0, s, self.counter);
                let sk = pool.fresh_var(&kname, decl.key_width);
                let sv = pool.fresh_var(&vname, decl.value_width);
                let hit = pool.mk_eq(key, sk);
                out.push(MapBranch {
                    constraints: vec![hit],
                    flag: tt,
                    value: sv,
                    havoc_value_var: None,
                    havoc_flag_var: None,
                });
                let ne = pool.mk_not(hit);
                miss.push(ne);
            }
            self.counter += 1;
            let zero = pool.mk_const(decl.value_width, 0);
            out.push(MapBranch {
                constraints: miss,
                flag: ff,
                value: zero,
                havoc_value_var: None,
                havoc_flag_var: None,
            });
            out
        }
    }

    fn write(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
        _value: TermId,
    ) -> Vec<MapBranch> {
        if self.tables.contains_key(&map.0) {
            let f = pool.mk_false();
            return single(f, f);
        }
        // Walking the slots again: hit an existing slot (update) or the
        // first free slot (insert) or fail (full) — one fork per case.
        let mut out = Vec::with_capacity(self.private_slots + 1);
        let tt = pool.mk_true();
        let ff = pool.mk_false();
        let mut prev_ne = Vec::new();
        for s in 0..self.private_slots {
            let kname = format!("m{}.wslotkey{}_{}", map.0, s, self.counter);
            let sk = pool.fresh_var(&kname, decl.key_width);
            let hit = pool.mk_eq(key, sk);
            let mut cs = prev_ne.clone();
            cs.push(hit);
            out.push(MapBranch {
                constraints: cs,
                flag: tt,
                value: tt,
                havoc_value_var: None,
                havoc_flag_var: None,
            });
            let ne = pool.mk_not(hit);
            prev_ne.push(ne);
        }
        self.counter += 1;
        out.push(MapBranch {
            constraints: prev_ne,
            flag: ff,
            value: ff,
            havoc_value_var: None,
            havoc_flag_var: None,
        });
        out
    }

    fn test(
        &mut self,
        pool: &mut TermPool,
        map: MapId,
        decl: &MapDecl,
        key: TermId,
    ) -> Vec<MapBranch> {
        self.read(pool, map, decl, key)
            .into_iter()
            .map(|b| MapBranch { value: b.flag, ..b })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl() -> MapDecl {
        MapDecl {
            name: "t".into(),
            key_width: 32,
            value_width: 8,
            capacity: 16,
            is_static: true,
        }
    }

    #[test]
    fn abstract_model_havocs() {
        let mut pool = TermPool::new();
        let mut m = AbstractMapModel::new();
        let key = pool.fresh_var("k", 32);
        let branches = m.read(&mut pool, MapId(0), &decl(), key);
        assert_eq!(branches.len(), 1);
        assert!(branches[0].havoc_value_var.is_some());
        assert!(branches[0].constraints.is_empty());
    }

    #[test]
    fn table_model_single_branch_ite() {
        let mut pool = TermPool::new();
        let mut m = TableMapModel::new();
        m.set_table(MapId(0), vec![(1, 10), (2, 20)]);
        let key = pool.fresh_var("k", 32);
        let branches = m.read(&mut pool, MapId(0), &decl(), key);
        assert_eq!(branches.len(), 1);
        // Evaluate the summary at both keys and a miss.
        let mut a = bvsolve::Assignment::new();
        a.set(0, 2);
        assert_eq!(bvsolve::eval(&pool, branches[0].value, &a), 20);
        assert_eq!(bvsolve::eval(&pool, branches[0].flag, &a), 1);
        a.set(0, 9);
        assert_eq!(bvsolve::eval(&pool, branches[0].flag, &a), 0);
    }

    #[test]
    fn forking_model_forks_per_entry() {
        let mut pool = TermPool::new();
        let mut m = ForkingMapModel::new(3);
        m.set_table(MapId(0), vec![(1, 10), (2, 20), (3, 30), (4, 40)]);
        let key = pool.fresh_var("k", 32);
        let branches = m.read(&mut pool, MapId(0), &decl(), key);
        assert_eq!(branches.len(), 5); // 4 entries + miss
    }

    #[test]
    fn forking_model_private_slots() {
        let mut pool = TermPool::new();
        let mut m = ForkingMapModel::new(3);
        let key = pool.fresh_var("k", 32);
        let branches = m.read(&mut pool, MapId(7), &decl(), key);
        assert_eq!(branches.len(), 4); // 3 slots + miss
    }
}
