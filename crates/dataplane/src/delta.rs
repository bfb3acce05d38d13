//! Config-update deltas: incremental mutations of a pipeline's static
//! tables.
//!
//! A control plane does not redeploy a pipeline to change a route — it
//! streams table updates into the running dataplane. A [`TableDelta`]
//! is one such update: insert/remove/replace entries on a named
//! element's table. Applying it mutates the [`Pipeline`] in place and
//! reports, per touched stage, whether the table's **canonical pair
//! view** changed ([`TableConfig::as_pairs`]) — the signal a churn
//! verification session uses to re-summarize only the touched stages
//! (an update whose pair view is unchanged, e.g. a no-op replace or an
//! LPM prefix-length-only edit, needs no re-verification at all in
//! Tables mode).
//!
//! Deltas address stages by element name; when several stages share an
//! element name (a repeated element), the delta applies to **all** of
//! them — their tables are per-instance clones, and a control-plane
//! update to "the FIB" means every instance of it.
//!
//! # Validation is a kind check
//!
//! A delta can fail in exactly three ways, and each is decided by
//! reading the pipeline, never by trying the op on a copy: no stage
//! bears the name ([`DeltaError::NoSuchStage`]), an addressed instance
//! lacks the map ([`DeltaError::NoSuchTable`]), or the op needs the
//! other kind of table ([`DeltaError::KindMismatch`];
//! [`TableOp::Replace`] fits either kind). Once those checks pass,
//! applying cannot fail, so [`TableDelta::apply`] and
//! [`TableDelta::apply_burst`] **validate first, then mutate in
//! place** — that order is what leaves the pipeline untouched on error,
//! for one delta or a burst of thousands, with no copy of a table or of
//! the pipeline. A burst validates against the kinds its own earlier
//! `Replace`s will have installed.
//!
//! What an update allocates is therefore O(delta). What it *computes*
//! is still O(table) for an insert or a remove: [`TableConfig`] finds
//! the addressed entry by a linear scan and shifts the tail of the
//! sorted pair view (≈ 2 × 39 µs at 100 k routes). Both go with a
//! route index and an ordered pair view — a change to `TableConfig`'s
//! representation, kept out of this module.

use crate::element::{TableConfig, TableContents, TableKindError};
use crate::pipeline::Pipeline;

/// One incremental mutation of a table's contents.
#[derive(Debug, Clone)]
pub enum TableOp {
    /// Insert (or overwrite by key) exact entries `(key, value)`.
    ExactInsert(Vec<(u64, u64)>),
    /// Remove exact entries by key (absent keys are no-ops).
    ExactRemove(Vec<u64>),
    /// Insert (or overwrite by `(prefix, prefix_len)`) LPM routes.
    LpmInsert(Vec<(u32, u32, u32)>),
    /// Remove LPM routes by `(prefix, prefix_len)` (absent routes are
    /// no-ops).
    LpmRemove(Vec<(u32, u32)>),
    /// Replace the whole table (the kind may change).
    Replace(TableConfig),
}

impl TableOp {
    /// The kind of table the op can be applied to; `None` when either
    /// will do — a `Replace`, and an op that names no entry (it does
    /// nothing, whatever the table).
    fn needs(&self) -> Option<Kind> {
        let (kind, entries) = match self {
            TableOp::ExactInsert(e) => (Kind::Exact, e.len()),
            TableOp::ExactRemove(k) => (Kind::Exact, k.len()),
            TableOp::LpmInsert(r) => (Kind::Lpm, r.len()),
            TableOp::LpmRemove(r) => (Kind::Lpm, r.len()),
            TableOp::Replace(_) => return None,
        };
        (entries > 0).then_some(kind)
    }
}

/// Which [`TableContents`] variant a table holds, or an op needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Exact,
    Lpm,
}

impl Kind {
    fn of(cfg: &TableConfig) -> Kind {
        match cfg.contents() {
            TableContents::Exact(_) => Kind::Exact,
            TableContents::Lpm(_) => Kind::Lpm,
        }
    }
}

/// One config update: an op on a named element's table.
#[derive(Debug, Clone)]
pub struct TableDelta {
    /// Element name the update addresses (every stage bearing it).
    pub stage: String,
    /// Which of the element's maps.
    pub map: dpir::MapId,
    /// The mutation.
    pub op: TableOp,
}

impl TableDelta {
    /// A delta on `stage`'s `map`.
    pub fn new(stage: impl Into<String>, map: dpir::MapId, op: TableOp) -> Self {
        TableDelta {
            stage: stage.into(),
            map,
            op,
        }
    }

    /// Applies the delta to `pipeline` in place.
    ///
    /// Returns one `(stage_index, pair_view_changed)` entry per stage
    /// whose element bears [`Self::stage`]'s name; `pair_view_changed`
    /// is whether that stage's canonical pair view
    /// ([`TableConfig::as_pairs`]) differs from before — the
    /// re-summarization signal. The pipeline is untouched on error.
    pub fn apply(&self, pipeline: &mut Pipeline) -> Result<DeltaEffect, DeltaError> {
        self.validate(pipeline, &[])?;
        Ok(self.apply_validated(pipeline))
    }

    /// Applies a burst of deltas to `pipeline` in place, in order, as
    /// if by [`Self::apply`] one after another — except that the burst
    /// is all-or-nothing: every delta is validated before the first is
    /// applied, so on error the pipeline is untouched. Returns one
    /// effect per delta.
    pub fn apply_burst(
        deltas: &[TableDelta],
        pipeline: &mut Pipeline,
    ) -> Result<Vec<DeltaEffect>, DeltaError> {
        // The kinds the burst's `Replace`s so far will have installed,
        // in burst order, which later deltas must be checked against.
        // Keyed by (element name, map): a `Replace` lands on every
        // instance of the name, so the name identifies them all.
        let mut replaced: Vec<(&str, dpir::MapId, Kind)> = Vec::new();
        for delta in deltas {
            delta.validate(pipeline, &replaced)?;
            if let TableOp::Replace(new) = &delta.op {
                replaced.push((&delta.stage, delta.map, Kind::of(new)));
            }
        }
        Ok(deltas
            .iter()
            .map(|delta| delta.apply_validated(pipeline))
            .collect())
    }

    /// Checks everything that can make the delta fail, mutating
    /// nothing: some stage bears the name, every such stage has the
    /// map, and the op fits the table's kind — the kind `replaced`
    /// last records for this (element name, map) if an earlier delta of
    /// the same burst replaces the table, the kind the pipeline holds
    /// otherwise. Stages are visited in pipeline order and the first
    /// failing one decides the error.
    fn validate(
        &self,
        pipeline: &Pipeline,
        replaced: &[(&str, dpir::MapId, Kind)],
    ) -> Result<(), DeltaError> {
        let needs = self.op.needs();
        let pending = replaced
            .iter()
            .rev()
            .find(|r| r.0 == self.stage && r.1 == self.map)
            .map(|r| r.2);
        let mut any = false;
        for stage in &pipeline.stages {
            if stage.element.name != self.stage {
                continue;
            }
            any = true;
            let (_, cfg) = stage
                .element
                .tables
                .iter()
                .find(|(m, _)| *m == self.map)
                .ok_or_else(|| DeltaError::NoSuchTable {
                    stage: self.stage.clone(),
                    map: self.map,
                })?;
            let has = pending.unwrap_or_else(|| Kind::of(cfg));
            if let Some(needs) = needs.filter(|&needs| needs != has) {
                return Err(DeltaError::KindMismatch {
                    stage: self.stage.clone(),
                    map: self.map,
                    kind: match needs {
                        Kind::Exact => TableKindError::ExpectedExact,
                        Kind::Lpm => TableKindError::ExpectedLpm,
                    },
                });
            }
        }
        if any {
            Ok(())
        } else {
            Err(DeltaError::NoSuchStage(self.stage.clone()))
        }
    }

    /// Applies a delta [`Self::validate`] has passed (with every
    /// earlier delta of its burst already applied): infallible.
    fn apply_validated(&self, pipeline: &mut Pipeline) -> DeltaEffect {
        let mut touched = Vec::new();
        for (i, stage) in pipeline.stages.iter_mut().enumerate() {
            if stage.element.name != self.stage {
                continue;
            }
            let (_, cfg) = stage
                .element
                .tables
                .iter_mut()
                .find(|(m, _)| *m == self.map)
                .expect("validated: every stage bearing the name has the map");
            let changed = self
                .apply_to(cfg)
                .expect("validated: the op fits the table's kind");
            touched.push((i, changed));
        }
        DeltaEffect { touched }
    }

    /// Applies the op to one table, returning whether the canonical
    /// pair view changed.
    fn apply_to(&self, cfg: &mut TableConfig) -> Result<bool, TableKindError> {
        let mut changed = false;
        match &self.op {
            TableOp::ExactInsert(entries) => {
                for &(k, v) in entries {
                    changed |= cfg.insert_exact(k, v)?;
                }
            }
            TableOp::ExactRemove(keys) => {
                for &k in keys {
                    changed |= cfg.remove_exact(k)?;
                }
            }
            TableOp::LpmInsert(routes) => {
                for &(p, l, v) in routes {
                    changed |= cfg.insert_lpm(p, l, v)?;
                }
            }
            TableOp::LpmRemove(routes) => {
                for &(p, l) in routes {
                    changed |= cfg.remove_lpm(p, l)?;
                }
            }
            TableOp::Replace(new) => {
                changed = cfg.replace(new.clone());
            }
        }
        Ok(changed)
    }
}

/// What applying a delta touched.
#[derive(Debug, Clone)]
pub struct DeltaEffect {
    /// `(stage index, canonical pair view changed)` per matching stage.
    pub touched: Vec<(usize, bool)>,
}

impl DeltaEffect {
    /// Whether any touched stage's pair view changed.
    pub fn any_changed(&self) -> bool {
        self.touched.iter().any(|&(_, c)| c)
    }
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// No stage bears the named element.
    NoSuchStage(String),
    /// The named element has no table for the map.
    NoSuchTable {
        /// Element name addressed.
        stage: String,
        /// Map addressed.
        map: dpir::MapId,
    },
    /// The op does not match the table's kind.
    KindMismatch {
        /// Element name addressed.
        stage: String,
        /// Map addressed.
        map: dpir::MapId,
        /// Which kind the op needed.
        kind: TableKindError,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NoSuchStage(s) => write!(f, "no stage named {s:?}"),
            DeltaError::NoSuchTable { stage, map } => {
                write!(f, "stage {stage:?} has no table for map {}", map.0)
            }
            DeltaError::KindMismatch { stage, map, kind } => {
                write!(f, "stage {stage:?} map {}: {kind}", map.0)
            }
        }
    }
}

impl std::error::Error for DeltaError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;
    use crate::pipeline::{Pipeline, Route, Stage};
    use dpir::ProgramBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table_element(name: &str, cfg: TableConfig) -> Element {
        let mut b = ProgramBuilder::new(name);
        b.emit(0);
        Element::straight(name, b.build().expect("valid")).with_table(dpir::MapId(0), cfg)
    }

    fn one_stage(cfg: TableConfig) -> Pipeline {
        Pipeline {
            name: "t".into(),
            stages: vec![Stage {
                element: table_element("tbl", cfg),
                routes: vec![(0, Route::Sink(0))],
            }],
        }
    }

    fn pairs_of(p: &Pipeline) -> Vec<(u64, u64)> {
        p.stages[0].element.tables[0].1.as_pairs().to_vec()
    }

    #[test]
    fn exact_insert_remove_roundtrip() {
        let mut p = one_stage(TableConfig::exact(vec![(1, 10), (2, 20)]));
        let eff = TableDelta::new("tbl", dpir::MapId(0), TableOp::ExactInsert(vec![(3, 30)]))
            .apply(&mut p)
            .expect("ok");
        assert_eq!(eff.touched, vec![(0, true)]);
        assert_eq!(pairs_of(&p), vec![(1, 10), (2, 20), (3, 30)]);
        let eff = TableDelta::new("tbl", dpir::MapId(0), TableOp::ExactRemove(vec![3, 99]))
            .apply(&mut p)
            .expect("ok");
        assert!(eff.any_changed(), "3 was present");
        assert_eq!(pairs_of(&p), vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn overwrite_same_value_is_a_noop() {
        let mut p = one_stage(TableConfig::exact(vec![(1, 10)]));
        let eff = TableDelta::new("tbl", dpir::MapId(0), TableOp::ExactInsert(vec![(1, 10)]))
            .apply(&mut p)
            .expect("ok");
        assert!(!eff.any_changed());
    }

    #[test]
    fn lpm_plen_only_edit_keeps_pair_view() {
        let mut p = one_stage(TableConfig::lpm(vec![(10, 8, 7)]));
        let fp0 = p.stages[0].element.tables[0].1.pairs_fingerprint();
        // Removing the /8 and inserting the same prefix/value as /16
        // changes the routes but not the flattened pair view.
        TableDelta::new("tbl", dpir::MapId(0), TableOp::LpmRemove(vec![(10, 8)]))
            .apply(&mut p)
            .expect("ok");
        let eff = TableDelta::new("tbl", dpir::MapId(0), TableOp::LpmInsert(vec![(10, 16, 7)]))
            .apply(&mut p)
            .expect("ok");
        assert!(eff.any_changed(), "insert after remove changes the view");
        assert_eq!(p.stages[0].element.tables[0].1.pairs_fingerprint(), fp0);
    }

    #[test]
    fn replace_noop_detected() {
        let mut p = one_stage(TableConfig::exact(vec![(10, 7)]));
        // Same multiset via an LPM table, different kind: the pair
        // view is unchanged.
        let eff = TableDelta::new(
            "tbl",
            dpir::MapId(0),
            TableOp::Replace(TableConfig::lpm(vec![(10, 8, 7)])),
        )
        .apply(&mut p)
        .expect("ok");
        assert!(!eff.any_changed());
        let eff = TableDelta::new(
            "tbl",
            dpir::MapId(0),
            TableOp::Replace(TableConfig::exact(vec![(10, 8)])),
        )
        .apply(&mut p)
        .expect("ok");
        assert!(eff.any_changed());
    }

    #[test]
    fn errors_leave_pipeline_untouched() {
        let mut p = one_stage(TableConfig::exact(vec![(1, 10)]));
        let before = pairs_of(&p);
        let err = TableDelta::new("tbl", dpir::MapId(0), TableOp::LpmInsert(vec![(1, 8, 2)]))
            .apply(&mut p)
            .expect_err("kind mismatch");
        assert!(matches!(err, DeltaError::KindMismatch { .. }));
        assert_eq!(pairs_of(&p), before);
        let err = TableDelta::new("nope", dpir::MapId(0), TableOp::ExactRemove(vec![1]))
            .apply(&mut p)
            .expect_err("no such stage");
        assert!(matches!(err, DeltaError::NoSuchStage(_)));
        let err = TableDelta::new("tbl", dpir::MapId(7), TableOp::ExactRemove(vec![1]))
            .apply(&mut p)
            .expect_err("no such table");
        assert!(matches!(err, DeltaError::NoSuchTable { .. }));
    }

    /// The validation this module used before the kind check, kept as
    /// the oracle: dry-run the op on a clone of each addressed table,
    /// then run it again on the table itself.
    fn apply_by_probe(d: &TableDelta, pipeline: &mut Pipeline) -> Result<DeltaEffect, DeltaError> {
        let targets: Vec<usize> = (0..pipeline.stages.len())
            .filter(|&i| pipeline.stages[i].element.name == d.stage)
            .collect();
        if targets.is_empty() {
            return Err(DeltaError::NoSuchStage(d.stage.clone()));
        }
        for &i in &targets {
            let mut probe = pipeline.stages[i]
                .element
                .tables
                .iter()
                .find(|(m, _)| *m == d.map)
                .map(|(_, c)| c.clone())
                .ok_or(DeltaError::NoSuchTable {
                    stage: d.stage.clone(),
                    map: d.map,
                })?;
            d.apply_to(&mut probe)
                .map_err(|kind| DeltaError::KindMismatch {
                    stage: d.stage.clone(),
                    map: d.map,
                    kind,
                })?;
        }
        let mut touched = Vec::new();
        for &i in &targets {
            let (_, cfg) = pipeline.stages[i]
                .element
                .tables
                .iter_mut()
                .find(|(m, _)| *m == d.map)
                .expect("probed above");
            touched.push((i, d.apply_to(cfg).expect("probed above")));
        }
        Ok(DeltaEffect { touched })
    }

    /// The burst oracle: the deltas one by one on a copy of the
    /// pipeline, swapped in only if every one applied.
    fn burst_by_copy(
        deltas: &[TableDelta],
        pipeline: &mut Pipeline,
    ) -> Result<Vec<DeltaEffect>, DeltaError> {
        let mut next = pipeline.clone();
        let effects = deltas
            .iter()
            .map(|d| apply_by_probe(d, &mut next))
            .collect::<Result<Vec<_>, _>>()?;
        *pipeline = next;
        Ok(effects)
    }

    /// Everything a delta may change, for every table of every stage.
    type Snapshot = Vec<Vec<(dpir::MapId, TableContents, Vec<(u64, u64)>, u128)>>;

    fn snapshot(p: &Pipeline) -> Snapshot {
        p.stages
            .iter()
            .map(|s| {
                s.element
                    .tables
                    .iter()
                    .map(|(m, c)| {
                        (
                            *m,
                            c.contents().clone(),
                            c.as_pairs().to_vec(),
                            c.pairs_fingerprint(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn touched_of(
        r: Result<Vec<DeltaEffect>, DeltaError>,
    ) -> Result<Vec<Vec<(usize, bool)>>, DeltaError> {
        r.map(|effects| effects.into_iter().map(|e| e.touched).collect())
    }

    fn random_table(r: &mut StdRng) -> TableConfig {
        // Few distinct keys, so inserts overwrite and removes hit.
        let n = r.gen_range(0..6usize);
        if r.gen::<bool>() {
            TableConfig::exact(
                (0..n)
                    .map(|_| (r.gen_range(0..8u64), r.gen_range(0..3u64)))
                    .collect(),
            )
        } else {
            TableConfig::lpm(
                (0..n)
                    .map(|_| {
                        (
                            r.gen_range(0..8u32),
                            r.gen_range(8..10u32),
                            r.gen_range(0..3u32),
                        )
                    })
                    .collect(),
            )
        }
    }

    /// One to three stages named `a` or `b` (so names repeat), each
    /// with a random subset of maps 0 and 1 of random kinds.
    fn random_pipeline(r: &mut StdRng) -> Pipeline {
        let stages = (0..r.gen_range(1..4usize))
            .map(|_| {
                let name = ["a", "b"][r.gen_range(0..2usize)];
                let mut b = ProgramBuilder::new(name);
                b.emit(0);
                let mut element = Element::straight(name, b.build().expect("valid"));
                for map in 0..2 {
                    if r.gen_range(0..4u32) > 0 {
                        element = element.with_table(dpir::MapId(map), random_table(r));
                    }
                }
                Stage {
                    element,
                    routes: vec![(0, Route::Sink(0))],
                }
            })
            .collect();
        Pipeline {
            name: "t".into(),
            stages,
        }
    }

    /// Any op (empty ones included) on any stage name (one absent) and
    /// any map (one absent).
    fn random_delta(r: &mut StdRng) -> TableDelta {
        let n = r.gen_range(0..3usize);
        let op = match r.gen_range(0..5u32) {
            0 => TableOp::ExactInsert(
                (0..n)
                    .map(|_| (r.gen_range(0..8u64), r.gen_range(0..3u64)))
                    .collect(),
            ),
            1 => TableOp::ExactRemove((0..n).map(|_| r.gen_range(0..8u64)).collect()),
            2 => TableOp::LpmInsert(
                (0..n)
                    .map(|_| {
                        (
                            r.gen_range(0..8u32),
                            r.gen_range(8..10u32),
                            r.gen_range(0..3u32),
                        )
                    })
                    .collect(),
            ),
            3 => TableOp::LpmRemove(
                (0..n)
                    .map(|_| (r.gen_range(0..8u32), r.gen_range(8..10u32)))
                    .collect(),
            ),
            _ => TableOp::Replace(random_table(r)),
        };
        let stage = ["a", "a", "b", "b", "nope"][r.gen_range(0..5usize)];
        let map = [0, 0, 1, 1, 7][r.gen_range(0..5usize)];
        TableDelta::new(stage, dpir::MapId(map), op)
    }

    #[test]
    fn kind_check_equals_clone_and_probe() {
        let mut r = StdRng::seed_from_u64(0xD1FF);
        let mut seen = [0usize; 4];
        for _ in 0..4000 {
            let before = random_pipeline(&mut r);
            let d = random_delta(&mut r);
            let (mut got, mut want) = (before.clone(), before.clone());
            let result = d.apply(&mut got).map(|e| e.touched);
            assert_eq!(
                result,
                apply_by_probe(&d, &mut want).map(|e| e.touched),
                "{d:?}"
            );
            assert_eq!(snapshot(&got), snapshot(&want), "{d:?}");
            if result.is_err() {
                assert_eq!(snapshot(&got), snapshot(&before), "{d:?}");
            }
            seen[match result {
                Ok(_) => 0,
                Err(DeltaError::NoSuchStage(_)) => 1,
                Err(DeltaError::NoSuchTable { .. }) => 2,
                Err(DeltaError::KindMismatch { .. }) => 3,
            }] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "every outcome exercised: {seen:?}"
        );
    }

    #[test]
    fn burst_equals_one_by_one_on_a_copy() {
        let mut r = StdRng::seed_from_u64(0xB0057);
        let (mut ok, mut err) = (0, 0);
        for _ in 0..4000 {
            let before = random_pipeline(&mut r);
            // Mostly valid deltas, or no burst of five would pass.
            let burst: Vec<TableDelta> = (0..r.gen_range(0..6usize))
                .map(|_| loop {
                    let d = random_delta(&mut r);
                    if r.gen_range(0..8u32) == 0 || d.validate(&before, &[]).is_ok() {
                        break d;
                    }
                })
                .collect();
            let (mut got, mut want) = (before.clone(), before.clone());
            let result = touched_of(TableDelta::apply_burst(&burst, &mut got));
            assert_eq!(
                result,
                touched_of(burst_by_copy(&burst, &mut want)),
                "{burst:?}"
            );
            assert_eq!(snapshot(&got), snapshot(&want), "{burst:?}");
            if result.is_err() {
                assert_eq!(snapshot(&got), snapshot(&before), "{burst:?}");
                err += 1;
            } else {
                ok += 1;
            }
        }
        assert!(
            ok > 500 && err > 500,
            "both outcomes exercised: {ok} ok, {err} err"
        );
    }

    #[test]
    fn first_failing_instance_decides_the_error() {
        // Two stages named `tbl`; only the first has map 0.
        let mut b = ProgramBuilder::new("tbl");
        b.emit(0);
        let bare = Element::straight("tbl", b.build().expect("valid"));
        let mut p = one_stage(TableConfig::exact(vec![(1, 10)]));
        p.stages.push(Stage {
            element: bare,
            routes: vec![(0, Route::Sink(0))],
        });
        let before = snapshot(&p);
        let no_table = DeltaError::NoSuchTable {
            stage: "tbl".into(),
            map: dpir::MapId(0),
        };
        // The first instance passes, the second lacks the map.
        let d = TableDelta::new("tbl", dpir::MapId(0), TableOp::ExactInsert(vec![(2, 20)]));
        assert_eq!(d.apply(&mut p).map(|e| e.touched), Err(no_table.clone()));
        let d = TableDelta::new(
            "tbl",
            dpir::MapId(0),
            TableOp::Replace(TableConfig::lpm(vec![])),
        );
        assert_eq!(d.apply(&mut p).map(|e| e.touched), Err(no_table));
        // The first instance already fails, on its kind.
        let d = TableDelta::new("tbl", dpir::MapId(0), TableOp::LpmRemove(vec![(1, 8)]));
        assert_eq!(
            d.apply(&mut p).map(|e| e.touched),
            Err(DeltaError::KindMismatch {
                stage: "tbl".into(),
                map: dpir::MapId(0),
                kind: TableKindError::ExpectedLpm,
            })
        );
        assert_eq!(snapshot(&p), before);
    }

    #[test]
    fn burst_validates_against_the_kinds_its_replaces_install() {
        let to_lpm = || {
            TableDelta::new(
                "tbl",
                dpir::MapId(0),
                TableOp::Replace(TableConfig::lpm(vec![(10, 8, 7)])),
            )
        };
        let mut p = one_stage(TableConfig::exact(vec![(1, 10)]));
        let before = snapshot(&p);

        let lpm_insert =
            TableDelta::new("tbl", dpir::MapId(0), TableOp::LpmInsert(vec![(11, 8, 2)]));
        assert!(
            lpm_insert.apply(&mut p).is_err(),
            "the table is exact until replaced"
        );
        let effects =
            TableDelta::apply_burst(&[to_lpm(), lpm_insert], &mut p).expect("lpm by then");
        assert_eq!(effects.len(), 2);
        assert_eq!(pairs_of(&p), vec![(10, 7), (11, 2)]);

        let mut p = one_stage(TableConfig::exact(vec![(1, 10)]));
        let exact_insert =
            TableDelta::new("tbl", dpir::MapId(0), TableOp::ExactInsert(vec![(2, 20)]));
        let err = TableDelta::apply_burst(&[to_lpm(), exact_insert.clone()], &mut p)
            .expect_err("lpm by then");
        assert_eq!(
            err,
            DeltaError::KindMismatch {
                stage: "tbl".into(),
                map: dpir::MapId(0),
                kind: TableKindError::ExpectedExact,
            }
        );
        assert_eq!(snapshot(&p), before);

        let nowhere = TableDelta::new("nope", dpir::MapId(0), TableOp::ExactRemove(vec![1]));
        let err = TableDelta::apply_burst(&[exact_insert.clone(), exact_insert, nowhere], &mut p)
            .expect_err("third delta");
        assert_eq!(err, DeltaError::NoSuchStage("nope".into()));
        assert_eq!(snapshot(&p), before);
    }

    #[test]
    fn incremental_fingerprint_matches_rebuild() {
        let mut cfg = TableConfig::exact(vec![(5, 1), (3, 2)]);
        cfg.insert_exact(9, 4).expect("ok");
        cfg.remove_exact(3).expect("ok");
        cfg.insert_exact(5, 7).expect("ok");
        let rebuilt = TableConfig::exact(vec![(9, 4), (5, 7)]);
        assert_eq!(cfg.as_pairs(), rebuilt.as_pairs());
        assert_eq!(cfg.pairs_fingerprint(), rebuilt.pairs_fingerprint());
    }
}
