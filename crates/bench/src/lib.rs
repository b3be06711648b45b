//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper has a binary here that
//! regenerates it (see DESIGN.md §4 for the index):
//!
//! * `exp_table1` — counties self-join, nested-loop vs spatial join,
//! * `exp_table2` — star-catalog join scaling with 1 and 2 slaves,
//! * `exp_table3` — parallel quadtree/R-tree creation (plus the
//!   Figure 2 stage trace via `--figure2`),
//! * `exp_ablations` — pipeline-memory, bulk-vs-insert,
//!   sdo-level and DOP-sweep ablations.
//!
//! Dataset sizes default to laptop scale; set `SDO_SCALE=1.0` to run
//! the paper's full cardinalities (3230 counties / 250K stars / 230K
//! block groups).

use parking_lot::RwLock;
use sdo_core::join::{ExactPredicate, JoinSide, SpatialJoin, SpatialJoinConfig};
use sdo_dbms::Database;
use sdo_geom::{Geometry, RelateMask};
use sdo_rtree::{RTree, RTreeParams};
use sdo_storage::{Counters, DataType, RowId, Schema, Table, Value};
use sdo_tablefunc::{collect_all, ParallelTableFunction, TableFunction, TaskQueue};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale factor for dataset sizes, from `SDO_SCALE` (default 0.05).
pub fn scale() -> f64 {
    std::env::var("SDO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.05)
        .clamp(0.0001, 10.0)
}

/// A paper cardinality scaled by [`scale`], with a floor.
pub fn scaled(paper_n: usize, floor: usize) -> usize {
    ((paper_n as f64 * scale()) as usize).max(floor)
}

/// Fresh session with the spatial cartridge registered.
pub fn session() -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db
}

/// Create `name (id NUMBER, geom SDO_GEOMETRY)` and load geometries.
pub fn load_table(db: &Database, name: &str, geoms: &[Geometry]) {
    db.execute(&format!("CREATE TABLE {name} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (i, g) in geoms.iter().enumerate() {
        db.insert_row(name, vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
    }
}

/// Time a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// `COUNT(*)` convenience.
pub fn count(db: &Database, sql: &str) -> i64 {
    db.execute(sql).unwrap().count().expect("COUNT(*) result")
}

/// Print the operator profile of the most recent statement executed on
/// `db`: indented text by default, one JSON object per profile when
/// `SDO_PROFILE=json`. Follows up with the global metrics registry
/// (node-visit counters, span histograms) when it is non-empty.
pub fn report_last_profile(db: &Database) {
    let Some(profile) = db.last_profile() else {
        eprintln!("(no profile recorded)");
        return;
    };
    let json =
        std::env::var("SDO_PROFILE").map(|v| v.eq_ignore_ascii_case("json")).unwrap_or(false);
    if json {
        println!("{}", sdo_obs::export::profile_to_json(&profile));
    } else {
        print!("{}", profile.render_text());
    }
    let snap = sdo_obs::global().snapshot();
    if !(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty()) {
        if json {
            println!("{}", sdo_obs::export::registry_to_json(&snap));
        } else {
            print!("{}", sdo_obs::export::registry_to_text(&snap));
        }
    }
}

/// Pretty seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Speedup string `a/b`.
pub fn speedup(base: Duration, other: Duration) -> String {
    format!("{:.2}x", base.as_secs_f64() / other.as_secs_f64().max(1e-12))
}

/// Direct core-API self-join side over `geoms` (no SQL session needed).
fn self_join_side(geoms: &[Geometry]) -> (Arc<RwLock<Table>>, Arc<RTree<RowId>>) {
    let mut t =
        Table::new("S", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
    let mut items = Vec::new();
    for (i, g) in geoms.iter().enumerate() {
        let bb = g.bbox();
        let rid = t.insert(vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
        items.push((bb, rid));
    }
    (Arc::new(RwLock::new(t)), Arc::new(RTree::bulk_load(items, RTreeParams::with_fanout(32))))
}

/// Work-partition speedup model for a DOP-`dop` self-join: the slaves
/// share one [`TaskQueue`] through the real parallel executor, each
/// with private counters, and total work (MBR plus exact tests) is
/// compared against the busiest slave's work (the parallel critical
/// path). Per-slave work reflects the dynamic balance — splits and
/// steals — so the model varies slightly from run to run.
pub fn modeled_join_speedup(geoms: &[Geometry], dop: usize) -> f64 {
    let (table, tree) = self_join_side(geoms);
    let exact = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
    let (_, tasks) = sdo_core::functions::choose_descent_level(&tree, &tree, &exact, dop);
    if tasks.is_empty() {
        return 1.0;
    }
    let queue = TaskQueue::seed_round_robin(tasks, dop);
    let counters: Vec<Arc<Counters>> = (0..dop).map(|_| Arc::new(Counters::new())).collect();
    let instances: Vec<Box<dyn TableFunction>> = (0..dop)
        .map(|worker| {
            Box::new(SpatialJoin::with_shared_tasks(
                JoinSide { table: Arc::clone(&table), column: 1, tree: Arc::clone(&tree) },
                JoinSide { table: Arc::clone(&table), column: 1, tree: Arc::clone(&tree) },
                exact.clone(),
                SpatialJoinConfig::default(),
                Arc::clone(&counters[worker]),
                Arc::clone(&queue),
                worker,
            )) as Box<dyn TableFunction>
        })
        .collect();
    collect_all(&mut ParallelTableFunction::new(instances), 1024).unwrap();
    let work: Vec<u64> = counters
        .iter()
        .map(|c| Counters::get(&c.exact_tests) + Counters::get(&c.mbr_tests))
        .collect();
    let total: u64 = work.iter().sum();
    total as f64 / work.iter().copied().max().unwrap_or(1).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_datagen::{counties, US_EXTENT};

    #[test]
    fn harness_helpers() {
        let db = session();
        let geoms = counties::generate(20, &US_EXTENT, 1);
        load_table(&db, "t", &geoms);
        assert_eq!(count(&db, "SELECT COUNT(*) FROM t"), 20);
        assert!(scaled(1000, 10) >= 10);
        let (v, _) = timed(|| 41 + 1);
        assert_eq!(v, 42);
    }
}
