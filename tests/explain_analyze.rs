//! `EXPLAIN ANALYZE` integration: the operator profile's row counts
//! must agree with the cardinality of the plain query, including the
//! per-slave breakdown of a parallel table function.

use sdo_core::join::SpatialJoinConfig;
use sdo_core::RTreeSpatialIndex;
use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::{Geometry, Point, Polygon, Rect, Ring};
use sdo_obs::OpProfile;
use sdo_rtree::join::{estimate_pair_work, split_pair};
use sdo_rtree::JoinPredicate;
use sdo_storage::Value;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The morsel size is process-global: tests whose plans depend on it
/// hold this lock while it is set to what they need.
static MORSEL: Mutex<()> = Mutex::new(());

fn morsel_rows(n: usize) -> MutexGuard<'static, ()> {
    let guard = MORSEL.lock().unwrap_or_else(|e| e.into_inner());
    sdo_dbms::set_morsel_rows(n);
    guard
}

/// `n` unit-spaced squares on a 200-column grid: square `i` covers
/// `[x + 0.1, x + 0.9] × [y + 0.1, y + 0.9]` at `(x, y) = (i % 200, i / 200)`.
fn load_grid(db: &Database, table: &str, n: usize) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for i in 0..n {
        let (x, y) = ((i % 200) as f64, (i / 200) as f64);
        let sq =
            Geometry::Polygon(Polygon::from_rect(&Rect::new(x + 0.1, y + 0.1, x + 0.9, y + 0.9)));
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(sq)]).unwrap();
    }
}

fn load_counties(db: &Database, table: &str, n: usize, seed: u64) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (i, g) in counties::generate(n, &US_EXTENT, seed).into_iter().enumerate() {
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
}

fn session_with_tables() -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_counties(&db, "city_table", 60, 1);
    load_counties(&db, "river_table", 60, 2);
    // Unindexed twins of the same data: joining them runs the
    // partition join.
    load_counties(&db, "city_twin", 60, 1);
    load_counties(&db, "river_twin", 60, 2);
    for (idx, table) in [("city_sidx", "city_table"), ("river_sidx", "river_table")] {
        db.execute(&format!(
            "CREATE INDEX {idx} ON {table}(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=8')"
        ))
        .unwrap();
    }
    // The parallel-profile tests below shrink the process-global morsel
    // size; pin everything else to serial so profile shapes stay
    // independent of which test touched the knob first.
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    db
}

#[test]
fn pipelined_count_profile_matches_cardinality_with_per_slave_rows() {
    let db = session_with_tables();
    let sql = "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
               'city_table', 'geom', 'river_table', 'geom', 'intersect', 2))";

    // Plain execution: result plus an implicitly recorded profile.
    let n = db.execute(sql).unwrap().count().unwrap();
    assert!(n > 0, "county grids overlap: expected a non-empty join");
    let plain = db.last_profile().expect("plain statements record a profile");
    assert_eq!(plain.root.name, "SELECT");

    // EXPLAIN ANALYZE: renders the profile as PLAN rows...
    let res = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    assert_eq!(res.columns, vec!["PLAN".to_string()]);
    assert!(res.rows.len() > 1, "expected a rendered profile tree");

    // ...and records the same tree on the session.
    let profile = db.last_profile().unwrap();
    let op = profile
        .root
        .find("TABLE FUNCTION SCAN SPATIAL_JOIN")
        .expect("COUNT(*) over TABLE() counts the function's scan");
    assert_eq!(op.rows, n as u64, "operator rows must equal the query cardinality");
    assert!(op.batches > 0);
    assert!(op.attrs.iter().any(|(k, v)| k == "dop" && v == "2"));

    // Per-slave rows of the parallel table function sum to the total.
    let slaves: Vec<_> = op.children.iter().filter(|c| c.name.starts_with("slave")).collect();
    assert_eq!(slaves.len(), 2, "dop=2 must report two slave operators");
    assert_eq!(slaves.iter().map(|s| s.rows).sum::<u64>(), n as u64);
    for s in &slaves {
        assert!(s.find("exact filter").is_some(), "join phases nest under each slave");
    }
}

#[test]
fn semijoin_profile_matches_two_table_join_cardinality() {
    let db = session_with_tables();
    let sql = "SELECT a.id, b.id FROM city_table a, river_table b \
               WHERE (a.rowid, b.rowid) IN \
               (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
                'city_table', 'geom', 'river_table', 'geom', 'intersect')))";

    let res = db.execute(sql).unwrap();
    let n = res.rows.len() as u64;
    assert!(n > 0);

    let profile = db.last_profile().unwrap();
    assert_eq!(profile.root.rows, n, "root rows = statement result rows");
    // The streaming semijoin fetches paired base rows by rowid as pairs
    // arrive — it must NOT full-scan the base tables.
    assert!(profile.root.find("TABLE SCAN CITY_TABLE").is_none());
    assert!(profile.root.find("TABLE SCAN RIVER_TABLE").is_none());

    let semi = profile.root.find("ROWID-PAIR SEMIJOIN").unwrap();
    assert_eq!(semi.rows, n, "semijoin output rows = result rows");
    assert!(semi.batches > 0, "the semijoin streams in batches");

    // Pipeline memory is bounded by batches in flight, not the result.
    let peak = profile.root.metric("peak_resident_rows").expect("statement reports peak");
    assert!(peak > 0 && peak <= 4 * 1024, "peak {peak} should be O(batch), result {n}");

    // The pair-producing table function nests under the semijoin and
    // produced exactly the joined pairs.
    let tf = semi.find("TABLE FUNCTION SCAN SPATIAL_JOIN").unwrap();
    assert_eq!(tf.rows, n, "rowid pairs = joined rows (pairs are distinct)");

    // EXPLAIN ANALYZE of the same statement renders every operator.
    let plan = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let text: Vec<String> = plan.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
    assert!(text.iter().any(|l| l.contains("ROWID-PAIR SEMIJOIN")));
    assert!(text.iter().any(|l| l.contains("TABLE FUNCTION SCAN SPATIAL_JOIN")));
}

#[test]
fn partition_join_profile_reports_method_tiles_and_cache_accuracy() {
    let db = session_with_tables();
    let sql = "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
               'city_twin', 'geom', 'river_twin', 'geom', 'intersect', 2))";
    let n = db.execute(sql).unwrap().count().unwrap();
    assert!(n > 0, "partitioned county join must produce pairs");

    let profile = db.last_profile().unwrap();
    let op = profile.root.find("TABLE FUNCTION SCAN SPATIAL_JOIN").unwrap();
    assert!(
        op.attrs.iter().any(|(k, v)| k == "method_chosen" && v == "partition"),
        "planner verdict rides on the operator: {:?}",
        op.attrs
    );
    let tiles = op.metric("partition_tiles").expect("grid size is recorded");
    assert!(tiles >= 1);
    assert!(op.metric("tile_max_occupancy").expect("occupancy is recorded") >= 1);

    let slaves: Vec<_> = op.children.iter().filter(|c| c.name.starts_with("slave")).collect();
    assert_eq!(slaves.len(), 2, "dop=2 must report two slave operators");
    assert_eq!(slaves.iter().map(|s| s.rows).sum::<u64>(), n as u64);

    // Fetch accuracy: the secondary filter fetches each candidate
    // array's distinct rowids once per side, so per slave the rows
    // fetched never exceed 2 × the mbr-join phase's candidate rows.
    let mut executed_total = 0;
    for s in &slaves {
        let mbr = s.find("mbr join").expect("partition slaves share the join phase names");
        let fetch = s.find("geometry fetch").unwrap();
        let fetched = fetch.metric("rows_fetched").expect("rows_fetched renders even at zero");
        assert!(fetched <= 2 * mbr.rows, "{fetched} rows for {} candidates ({})", mbr.rows, s.name);
        assert_eq!(fetched > 0, mbr.rows > 0, "candidates are fetched ({})", s.name);
        assert!(fetch.rows <= fetched, "geometries found are rows fetched ({})", s.name);
        assert!(s.metric("geom_cache_hits").is_none(), "there is no geometry cache");
        executed_total += s.metric("tasks_executed").expect("tasks_executed renders even at zero");
    }
    assert!(executed_total > 0, "some tile task must have run");
}

#[test]
fn partition_primary_only_join_touches_no_geometry_cache() {
    let db = session_with_tables();
    db.execute(
        "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
         'city_twin', 'geom', 'river_twin', 'geom', 'FILTER', 2))",
    )
    .unwrap();
    let profile = db.last_profile().unwrap();
    let op = profile.root.find("TABLE FUNCTION SCAN SPATIAL_JOIN").unwrap();
    for s in op.children.iter().filter(|c| c.name.starts_with("slave")) {
        let fetch = s.find("geometry fetch").unwrap();
        assert_eq!(
            (fetch.metric("rows_fetched"), fetch.rows, fetch.batches),
            (Some(0), 0, 0),
            "a primary-only join emits rowid pairs without fetching geometries"
        );
    }
}

#[test]
fn kernel_metrics_surface_in_explain_analyze() {
    let db = session_with_tables();
    for (method, suffix) in [("rtree", "table"), ("partition", "twin")] {
        db.execute(&format!(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
             'city_{suffix}', 'geom', 'river_{suffix}', 'geom', 'intersect', 2))"
        ))
        .unwrap();
        let profile = db.last_profile().unwrap();
        let op = profile.root.find("TABLE FUNCTION SCAN SPATIAL_JOIN").unwrap();
        let slaves: Vec<_> = op.children.iter().filter(|c| c.name.starts_with("slave")).collect();
        assert_eq!(slaves.len(), 2, "{method}: dop=2 must report two slave operators");
        for s in &slaves {
            // set_metric: the counters render even when zero.
            for metric in ["kernel_sweeps", "kernel_scans", "kernel_tests"] {
                assert!(s.metric(metric).is_some(), "{method}: {metric} must render on {}", s.name);
            }
        }
        assert!(op.metric_sum("kernel_tests") > 0, "{method}: the join ran MBR tests");
    }
}

/// One root task at dop 2 (`SPATIAL_JOIN(…, 2, 0)`): a slave splits it
/// rather than running it alone, each slave renders its `tasks_split`,
/// and the slaves together execute the seeded task plus every child a
/// split pushed. Replaying the split rule on the index's own tree says
/// how many that is, whichever slave ran what.
#[test]
fn one_root_task_is_split_and_every_child_runs() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_grid(&db, "grid", 3000);
    db.execute(
        "CREATE INDEX grid_sidx ON grid(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    let sql = "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
               'grid', 'geom', 'grid', 'geom', 'intersect', 2, 0))";
    db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let profile = db.last_profile().unwrap();
    let op = profile.root.find("TABLE FUNCTION SCAN SPATIAL_JOIN").unwrap();
    let slaves: Vec<_> = op.children.iter().filter(|c| c.name.starts_with("slave")).collect();
    assert_eq!(slaves.len(), 2, "dop=2 must report two slave operators");
    let sum = |metric: &str| -> u64 {
        let on =
            |s: &&OpProfile| s.metric(metric).unwrap_or_else(|| panic!("{metric}: {}", s.name));
        slaves.iter().map(on).sum()
    };

    let inst = db.index_instance("grid_sidx").unwrap();
    let tree = inst.read().as_any().downcast_ref::<RTreeSpatialIndex>().unwrap().tree_snapshot();
    let threshold = SpatialJoinConfig::default().split_threshold;
    let (mut splits, mut children) = (0u64, 0u64);
    let mut tasks = vec![(tree.root_id(), tree.root_id())];
    while let Some((l, r)) = tasks.pop() {
        if estimate_pair_work(&tree, &tree, l, r) > threshold {
            if let Some(kids) = split_pair(&tree, &tree, JoinPredicate::Intersects, l, r) {
                splits += 1;
                children += kids.len() as u64;
                tasks.extend(kids);
            }
        }
    }
    assert!(sum("tasks_split") >= 1, "the root task must be split");
    assert_eq!(sum("tasks_split"), splits);
    assert_eq!(sum("tasks_executed"), 1 + children, "the seeded task plus every child");
    assert_eq!(op.rows, db.execute(sql).unwrap().count().unwrap() as u64);
}

/// `n` 256-vertex circles of radius 0.45 on the grid of [`load_grid`]:
/// circle `i` is centred in square `i`.
fn load_circles(db: &Database, table: &str, n: usize) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for i in 0..n {
        let (x, y) = ((i % 200) as f64 + 0.5, (i / 200) as f64 + 0.5);
        let ring = (0..256).map(|k| {
            let t = k as f64 / 256.0 * std::f64::consts::TAU;
            Point::new(x + 0.45 * t.cos(), y + 0.45 * t.sin())
        });
        let circle = Geometry::Polygon(Polygon::from_exterior(Ring::new(ring.collect()).unwrap()));
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(circle)]).unwrap();
    }
}

#[test]
fn exact_filter_reports_the_segment_indexes_it_builds() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_grid(&db, "squares", 300);
    load_grid(&db, "squares_twin", 300);
    load_circles(&db, "circles", 300);
    let shapes_built = |left: &str, right: &str, engine: &str| {
        let n = db
            .execute(&format!(
                "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
                 '{left}', 'geom', '{right}', 'geom', 'intersect', 2))"
            ))
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(n, 300, "{left} x {right}: each shape meets its twin only");
        let profile = db.last_profile().unwrap();
        let op = profile.root.find("TABLE FUNCTION SCAN SPATIAL_JOIN").unwrap();
        assert!(op.attrs.iter().any(|(k, v)| k == "method_chosen" && v == engine), "{engine}");
        let filter = op.find("exact filter").expect("the join profiles its filter");
        assert!(filter.metric("shapes_built").is_some(), "shapes_built renders even at zero");
        op.metric_sum("shapes_built")
    };
    for engine in ["partition", "rtree"] {
        if engine == "rtree" {
            for table in ["squares", "squares_twin", "circles"] {
                db.execute(&format!(
                    "CREATE INDEX {table}_sidx ON {table}(geom) INDEXTYPE IS SPATIAL_INDEX \
                     PARAMETERS ('tree_fanout=8')"
                ))
                .unwrap();
            }
        }
        // Small polygons meet on their stored rings: no segment index.
        assert_eq!(shapes_built("squares", "squares_twin", engine), 0, "{engine}");
        // A 256-vertex side takes the indexed kernel, which builds them.
        assert!(shapes_built("squares", "circles", engine) > 0, "{engine}");
    }
}

#[test]
fn mbr_tests_counter_matches_kernel_tests() {
    // `Counters::mbr_tests` counts MBR-vs-MBR tests, so a join's delta
    // must equal the kernel tests its profile reports — not the number
    // of candidates, and not zero for the partition method.
    let db = session_with_tables();
    for (method, suffix) in [("rtree", "table"), ("partition", "twin")] {
        for dop in [1, 2] {
            let before = db.counters().snapshot();
            db.execute(&format!(
                "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
                 'city_{suffix}', 'geom', 'river_{suffix}', 'geom', 'intersect', {dop}))"
            ))
            .unwrap();
            let delta = db.counters().diff(&before).get("mbr_tests").unwrap_or(0);
            let kernel_tests = db.last_profile().unwrap().root.metric_sum("kernel_tests");
            assert!(kernel_tests > 0, "{method} dop={dop}: the join ran MBR tests");
            assert_eq!(delta, kernel_tests, "{method} dop={dop}");
        }
    }
}

/// A window probe charges `mbr_tests` with the entries the R-tree's
/// kernel actually tests, on all three window operators: a window
/// outside the root MBR tests exactly the root's entries, and the count
/// for a fixed window does not grow with rows added far from it.
#[test]
fn window_probes_count_the_entries_the_kernel_tests() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_grid(&db, "g", 600);
    db.execute(
        "CREATE INDEX g_sidx ON g(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    let index = db.index_instance("g_sidx").expect("index");
    let tree_shape = || {
        let idx = index.read();
        let rt = idx.as_any().downcast_ref::<sdo_core::RTreeSpatialIndex>().expect("R-tree");
        let tree = rt.tree().read();
        (tree.node(tree.root_id()).entries.len() as u64, u64::from(tree.height()))
    };
    let mbr_tests = |pred: &str| {
        let before = db.counters().snapshot();
        db.execute(&format!("SELECT id FROM g WHERE {pred} = 'TRUE'")).unwrap();
        db.counters().diff(&before).get("mbr_tests").unwrap_or(0)
    };
    let outside = "SDO_GEOMETRY('POLYGON ((-50 -50, -40 -50, -40 -40, -50 -40, -50 -50))')";
    let (root_entries, _) = tree_shape();
    for pred in [
        format!("SDO_FILTER(geom, {outside})"),
        format!("SDO_RELATE(geom, {outside}, 'ANYINTERACT')"),
        format!("SDO_WITHIN_DISTANCE(geom, {outside}, 'distance=5')"),
    ] {
        assert_eq!(mbr_tests(&pred), root_entries, "{pred}");
    }

    let window = "SDO_FILTER(geom, SDO_GEOMETRY('POLYGON ((20 0, 26 0, 26 2, 20 2, 20 0))'))";
    let small = mbr_tests(window);
    for i in 0..10_000i64 {
        let (x, y) = (5_000.0 + (i % 100) as f64, 5_000.0 + (i / 100) as f64);
        let sq = Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + 0.5, y + 0.5)));
        db.insert_row("g", vec![Value::Integer(100_000 + i), Value::geometry(sq)]).unwrap();
    }
    let grown = mbr_tests(window);
    let (_, height) = tree_shape();
    // At most one more fanout's worth of entries per level of growth.
    assert!(grown <= small + 8 * height, "{small} -> {grown}");
}

/// The wire benchmark's window statement over an analyzed 20 000-row
/// indexed table fetches its few dozen hits by index scan: no heap
/// scan and, at dop 2 with the default morsel size, no exchange.
/// `EXPLAIN ANALYZE` stamps the planner's estimate beside the actual
/// rows and their q-error.
#[test]
fn window_query_plans_an_index_scan_with_estimate_beside_actual() {
    let _morsel = morsel_rows(4096);
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_grid(&db, "bg", 20_000);
    db.execute("CREATE INDEX bg_sidx ON bg(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("ANALYZE TABLE bg").unwrap();
    db.execute("ALTER SESSION SET parallel_dop = 2").unwrap();
    let sql = "SELECT id, geom FROM bg WHERE SDO_RELATE(geom, \
               SDO_GEOMETRY('POLYGON ((50 20, 56 20, 56 26, 50 26, 50 20))'), 'ANYINTERACT') = 'TRUE'";

    let plan: Vec<String> = db
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect();
    let text = plan.join("\n");
    assert!(text.contains("INDEX SCAN BG (SDO_RELATE via BG_SIDX)"), "{text}");
    assert!(!text.contains("TABLE SCAN"), "{text}");
    assert!(!text.contains("EXCHANGE"), "{text}");

    let analyzed = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let text: Vec<String> =
        analyzed.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
    assert!(text.iter().any(|l| l.contains("INDEX SCAN") && l.contains("qerror=")), "{text:?}");
    let profile = db.last_profile().unwrap();
    let scan = profile.root.find("INDEX SCAN BG").expect("index scan node");
    assert_eq!(scan.rows, 36, "a 6 x 6 block of squares");
    let attr = |k: &str| scan.attrs.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    let est: f64 = attr("est_rows").expect("est_rows").parse().unwrap();
    let qerror: f64 = attr("qerror").expect("qerror").parse().unwrap();
    let want = (est.max(1.0) / 36.0).max(36.0 / est.max(1.0));
    assert!((qerror - want).abs() < 0.01, "qerror {qerror} for est {est} vs 36 rows");
    // The index's candidates and the hits are fetched; nothing else is.
    assert!(scan.metric("row_fetches").unwrap_or(0) <= 2 * 36 + 16, "{:?}", scan.metrics);
}

/// Every join's engine is chosen automatically from its inputs'
/// indexes, and the function's scan operator carries the choice and
/// the rule that fired: the tree join on the R-tree tables, the
/// partition join on their unindexed twins.
#[test]
fn method_chosen_covers_rtree_and_auto_with_reason() {
    let db = session_with_tables();
    for (suffix, engine, reason) in
        [("table", "rtree", "two R-tree indexes"), ("twin", "partition", "no spatial index")]
    {
        db.execute(&format!(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
             'city_{suffix}', 'geom', 'river_{suffix}', 'geom', 'intersect', 2))"
        ))
        .unwrap();
        let profile = db.last_profile().unwrap();
        let op = profile.root.find("TABLE FUNCTION SCAN SPATIAL_JOIN").unwrap();
        assert!(
            op.attrs.iter().any(|(k, v)| k == "method_chosen" && v == engine),
            "{suffix}: {:?}",
            op.attrs
        );
        assert!(
            op.attrs.iter().any(|(k, v)| k == "method_reason" && v.contains(reason)),
            "{suffix}: the reason names the rule that fired: {:?}",
            op.attrs
        );
    }
}

/// The indexes pick the engine: `method_chosen` names it,
/// `method_reason` names the rule that fired, and every engine returns
/// the brute-force pair set.
#[test]
fn join_engine_follows_the_indexes() {
    let rtree = "";
    let quadtree = "PARAMETERS ('sdo_level=7')";
    let cases: [(Option<&str>, Option<&str>, usize, &str); 6] = [
        (Some(rtree), Some(rtree), 1, "rtree"),
        (Some(rtree), Some(rtree), 2, "rtree"),
        (None, None, 2, "partition"),
        (Some(rtree), Some(quadtree), 1, "partition"),
        (Some(quadtree), Some(quadtree), 1, "partition"),
        (Some(quadtree), Some(quadtree), 2, "partition"),
    ];
    let (a, b) = (counties::generate(40, &US_EXTENT, 5), counties::generate(40, &US_EXTENT, 6));
    let mut want = Vec::new();
    for (i, ga) in a.iter().enumerate() {
        for (j, gb) in b.iter().enumerate() {
            if sdo_geom::relate(ga, gb, sdo_geom::RelateMask::AnyInteract) {
                want.push((i as u64, j as u64));
            }
        }
    }
    assert!(!want.is_empty());
    for (lix, rix, dop, engine) in cases {
        let db = Database::new();
        sdo_core::register_spatial(&db);
        load_counties(&db, "l", 40, 5);
        load_counties(&db, "r", 40, 6);
        for (t, ix) in [("l", lix), ("r", rix)] {
            if let Some(params) = ix {
                db.execute(&format!(
                    "CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX {params}"
                ))
                .unwrap();
            }
        }
        let ctx = format!("{lix:?} x {rix:?} at dop {dop}");
        let res = db
            .execute(&format!(
                "SELECT rid1, rid2 FROM TABLE( \
                 SPATIAL_JOIN('l','geom','r','geom','intersect', {dop}))"
            ))
            .unwrap();
        let mut got: Vec<(u64, u64)> = res
            .rows
            .iter()
            .map(|r| (r[0].as_rowid().unwrap().as_u64(), r[1].as_rowid().unwrap().as_u64()))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "{ctx}");

        let profile = db.last_profile().unwrap();
        let attr =
            |key: &str| {
                profile.root.walk().into_iter().find_map(|(_, n)| {
                    n.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
                })
            };
        assert_eq!(attr("method_chosen").as_deref(), Some(engine), "{ctx}");
        assert!(attr("method_reason").is_some_and(|r| !r.is_empty()), "{ctx}");
    }
}

#[test]
fn nested_loop_profile_reports_strategy_and_counters() {
    let db = session_with_tables();
    let res = db
        .execute(
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'",
        )
        .unwrap();
    let profile = db.last_profile().unwrap();
    let nl = profile
        .root
        .find("NESTED LOOP JOIN")
        .expect("two-table spatial predicate takes the nested-loop strategy");
    assert_eq!(nl.rows, res.rows.len() as u64);
    assert!(
        nl.metric("exact_tests").unwrap_or(0) > 0,
        "work-counter deltas ride on the join operator"
    );
}

/// An unindexed `DELETE … WHERE id = ?` is one `TABLE SCAN` leaf with
/// the predicate pushed into it: it examines every live row once
/// (`rows_scanned`), outputs the one row that matches, fetches no row
/// by rowid, and there is no separate `FILTER` node. Tombstones are not
/// examined rows.
#[test]
fn unindexed_delete_scans_each_live_row_once_with_the_filter_in_the_scan() {
    let db = Database::new();
    load_grid(&db, "grid", 300);
    db.execute("DELETE FROM grid WHERE id >= 290").unwrap();
    let live = 290;
    db.execute("PREPARE d AS DELETE FROM grid WHERE id = ?").unwrap();
    let out = db.execute("EXPLAIN ANALYZE EXECUTE d(17)").unwrap();
    let text: Vec<String> = out.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
    let profile = db.last_profile().unwrap();
    let scan = profile.root.find("TABLE SCAN GRID").expect("a table scan leaf");
    assert_eq!(scan.rows, 1, "one output row: {text:?}");
    assert_eq!(scan.metric("rows_scanned"), Some(live), "{:?}", scan.metrics);
    assert_eq!(scan.metric("row_fetches").unwrap_or(0), 0, "{:?}", scan.metrics);
    assert!(
        scan.attrs.iter().any(|(k, v)| k == "filter" && v == "ID = 17"),
        "the pushed predicate renders on the scan: {:?}",
        scan.attrs
    );
    assert!(profile.root.find("FILTER").is_none(), "no separate filter node: {text:?}");
    let left = db.execute("SELECT COUNT(*) FROM grid WHERE id = 17").unwrap();
    assert_eq!(left.rows, vec![vec![Value::Integer(0)]]);
}

/// `(depth, label)` of each node of an `EXPLAIN` plan, in pre-order.
fn plan_skeleton(db: &Database, select: &str) -> Vec<(usize, String)> {
    let out = db.execute(&format!("EXPLAIN {select}")).unwrap();
    let node = |r: &Vec<Value>| {
        let line = r[0].as_text().unwrap();
        let label = line.trim_start();
        let cut = label.find(" (rows=").unwrap_or_else(|| panic!("no estimates in {line:?}"));
        ((line.len() - label.len()) / 2, label[..cut].to_string())
    };
    out.rows.iter().map(node).collect()
}

/// `(depth, label)` of each operator `EXPLAIN ANALYZE <statement>` ran,
/// in pre-order and one level up: the statement root is skipped, and so
/// are the nodes only a run has (a parallel function's slaves, an
/// exchange's workers, the spatial join's phases), with their subtrees.
fn run_skeleton(db: &Database, statement: &str) -> Vec<(usize, String)> {
    db.execute(&format!("EXPLAIN ANALYZE {statement}")).unwrap();
    let profile = db.last_profile().unwrap();
    operators(&profile.root).into_iter().map(|(depth, n)| (depth - 1, n.name.clone())).collect()
}

/// The plan operators of a run's profile, `(depth, node)` in pre-order
/// below the statement root, without the nodes only a run has (a
/// parallel function's slaves, an exchange's workers, the spatial
/// join's phases) and their subtrees: those time parts of their
/// operator's work.
fn operators(root: &OpProfile) -> Vec<(usize, &OpProfile)> {
    let run_time_only = |name: &str| {
        name.starts_with("slave ")
            || name.starts_with("worker ")
            || ["mbr join", "candidate sort", "geometry fetch", "exact filter"].contains(&name)
    };
    let mut out = Vec::new();
    let mut skip_below = usize::MAX;
    for (depth, n) in root.walk().into_iter().skip(1) {
        if depth > skip_below {
            continue;
        }
        skip_below = usize::MAX;
        if run_time_only(&n.name) {
            skip_below = depth;
            continue;
        }
        out.push((depth, n));
    }
    out
}

/// Each operator's `wall` is its own work, not its inputs': a blocking
/// `SORT` does not time its input's drain, a nested-loop join does not
/// time its build side's, and `AGGREGATE COUNT(*)` does not time the
/// count of its input. So in a serial plan, whose operators run one at
/// a time on one thread, their walls add up to no more than the
/// statement took.
#[test]
fn operator_walls_are_self_time_and_sum_within_the_statement() {
    let db = session_with_tables();
    let cases = [
        // Unindexed twins: the join builds its inner side from a scan.
        (
            "SELECT a.id, b.id FROM city_twin a, river_twin b \
          WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE' ORDER BY a.id, b.id",
            ["SORT", "NESTED LOOP JOIN"],
        ),
        (
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
          'city_table', 'geom', 'river_table', 'geom', 'intersect', 1))",
            ["AGGREGATE COUNT(*)", "TABLE FUNCTION SCAN SPATIAL_JOIN"],
        ),
    ];
    for (sql, names) in cases {
        let t0 = Instant::now();
        let text = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let elapsed = t0.elapsed();
        let profile = db.last_profile().unwrap();
        let ops = operators(&profile.root);
        for name in names {
            assert!(ops.iter().any(|(_, n)| n.name.starts_with(name)), "{name} in {text:#?}");
        }
        let walls: Duration = ops.iter().map(|(_, n)| n.wall).sum();
        assert!(walls <= elapsed, "operator walls {walls:?} > elapsed {elapsed:?}: {text:#?}");
    }
}

/// Plain `EXPLAIN` draws the operator tree `EXPLAIN ANALYZE` runs. For
/// one table read by a table scan, the conjuncts and their estimate
/// notes render on the `TABLE SCAN` node, with no `FILTER` above it.
#[test]
fn explain_draws_the_tree_explain_analyze_runs() {
    let db = Database::new();
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    load_grid(&db, "p2", 40);
    for sql in [
        "SELECT COUNT(*) FROM p2 WHERE id = -1",
        "SELECT COUNT(*) FROM p2 WHERE id < 5 AND SDO_AREA(geom) > 0.1",
        "SELECT COUNT(*) FROM p2",
    ] {
        let want = vec![(0, "AGGREGATE COUNT(*)".to_string()), (1, "TABLE SCAN P2".to_string())];
        assert_eq!(plan_skeleton(&db, sql), want, "EXPLAIN {sql}");
        assert_eq!(run_skeleton(&db, sql), want, "EXPLAIN ANALYZE {sql}");
    }
    let plan = db.execute("EXPLAIN SELECT COUNT(*) FROM p2 WHERE id = -1").unwrap();
    let plan: Vec<&str> = plan.rows.iter().map(|r| r[0].as_text().unwrap()).collect();
    assert!(
        plan[1].contains("filter=ID = -1; 1 residual conjunct(s) sel=0.333 each"),
        "the conjunct and its estimate render on the scan: {plan:#?}"
    );
}

/// One plan per statement: for every shape the planner draws, `EXPLAIN`
/// and `EXPLAIN ANALYZE` show the same operators in the same tree, at
/// dop 1 and at dop 4 with 8-row morsels (where the exchanges appear).
/// A `DELETE` runs the plan of the `SELECT *` with its WHERE clause.
#[test]
fn explain_and_explain_analyze_draw_one_skeleton() {
    let _morsel = morsel_rows(8);
    let window = "SDO_RELATE(geom, SDO_GEOMETRY('POLYGON ((-110 30, -90 30, -90 45, -110 45, \
                  -110 30))'), 'ANYINTERACT') = 'TRUE'";
    let pairs = |dop: usize| {
        format!(
            "SPATIAL_JOIN(CURSOR(SELECT lnode, rnode FROM TABLE( \
             SUBTREE_PAIRS('city_sidx', 'river_sidx', 1, 'intersect'))), \
             'city_table', 'geom', 'river_table', 'geom', 'intersect', {dop})"
        )
    };
    let selects = [
        "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
         'city_table', 'geom', 'river_table', 'geom', 'intersect', 2))"
            .to_string(),
        "SELECT COUNT(*) FROM city_table WHERE id > 0".to_string(),
        // kNN pushdown
        "SELECT id FROM city_table ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)) LIMIT 5"
            .to_string(),
        // nested loop: index probe, then build
        "SELECT a.id, b.id FROM city_table a, river_table b \
         WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'"
            .to_string(),
        "SELECT a.id, b.id FROM city_twin a, river_twin b \
         WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE' AND a.id < 30"
            .to_string(),
        // cartesian product
        "SELECT a.id, b.id FROM city_twin a, river_twin b WHERE a.id = b.id".to_string(),
        // rowid-pair semijoins: over a function, and over a scan whose
        // plan depends on the dop
        "SELECT a.id, b.id FROM city_table a, river_table b WHERE (a.rowid, b.rowid) IN \
         (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
          'city_table', 'geom', 'river_table', 'geom', 'intersect'))) AND a.id < 50"
            .to_string(),
        "SELECT a.id, b.id FROM city_twin a, city_twin b WHERE (a.rowid, b.rowid) IN \
         (SELECT rowid, rowid FROM city_twin WHERE id >= 3)"
            .to_string(),
        // exchange scan and exchange sort (serial at dop 1)
        "SELECT id FROM city_table WHERE id >= 0".to_string(),
        "SELECT id FROM city_twin WHERE id >= 0 ORDER BY id DESC LIMIT 3".to_string(),
        format!("SELECT id FROM city_table WHERE {window} ORDER BY id LIMIT 4"),
        // CURSOR(...) argument, serial and parallel join
        format!("SELECT COUNT(*) FROM TABLE({})", pairs(1)),
        format!("SELECT COUNT(*) FROM TABLE({})", pairs(2)),
    ];
    for dop in [1, 4] {
        let db = session_with_tables();
        db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        for sql in &selects {
            let plan = plan_skeleton(&db, sql);
            assert_eq!(run_skeleton(&db, sql), plan, "dop {dop}: {sql}");
        }
        // The index scan a DELETE collects its rows through.
        let scan =
            plan_skeleton(&db, &format!("SELECT * FROM city_table WHERE {window} AND id < 20"));
        assert!(scan[0].1.starts_with("INDEX SCAN CITY_TABLE"), "dop {dop}: {scan:?}");
        let delete = format!("DELETE FROM city_table WHERE {window} AND id < 20");
        assert_eq!(run_skeleton(&db, &delete), scan, "dop {dop}: {delete}");
    }
}

/// A morsel-parallel scan renders as an EXCHANGE with per-worker
/// children whose tallies reconcile exactly: worker rows sum to the
/// statement cardinality, morsels_executed sums to the morsel count,
/// and morsels_stolen renders even when a worker stole nothing.
#[test]
fn parallel_scan_exchange_profile_reports_worker_breakdown() {
    let _morsel = morsel_rows(8);
    let db = session_with_tables();
    db.execute("ALTER SESSION SET parallel_dop = 4").unwrap();
    let sql = "SELECT id FROM city_table WHERE id >= 0";

    // Plain EXPLAIN already shows the exchange and its dop reasoning.
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let text: Vec<String> = plan.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
    assert!(text.iter().any(|l| l.contains("EXCHANGE")), "plan renders the exchange: {text:?}");
    assert!(text.iter().any(|l| l.contains("dop")), "plan names the chosen dop: {text:?}");

    let n = db.execute(sql).unwrap().rows.len() as u64;
    assert_eq!(n, 60);
    let profile = db.last_profile().unwrap();
    let ex = profile.root.find("EXCHANGE").expect("60 rows at morsel 8 fan out");
    assert!(ex.attrs.iter().any(|(k, v)| k == "dop" && v == "4"), "{:?}", ex.attrs);
    assert!(
        ex.attrs.iter().any(|(k, _)| k == "plan_reason"),
        "the planner's dop reasoning rides on the exchange: {:?}",
        ex.attrs
    );

    let workers: Vec<_> = ex.children.iter().filter(|c| c.name.starts_with("worker")).collect();
    assert_eq!(workers.len(), 4, "dop=4 must report four workers");
    assert_eq!(workers.iter().map(|w| w.rows).sum::<u64>(), n, "worker rows sum to the result");
    let executed: u64 = workers.iter().map(|w| w.metric("morsels_executed").unwrap()).sum();
    assert_eq!(executed, 60u64.div_ceil(8), "every morsel executed exactly once");
    for w in &workers {
        // set_metric: a worker that stole nothing still renders a zero.
        w.metric("morsels_stolen").expect("morsels_stolen renders even at zero");
    }
}

/// The parallel semijoin probe fetches each block's distinct base rows
/// once per side, so each worker fetches at most two rows per pair it
/// probed, every fetch is charged to the statement's `row_fetches`,
/// and the parallel run returns the serial rows.
#[test]
fn parallel_semijoin_worker_cache_accounting_balances() {
    let _morsel = morsel_rows(8);
    let db = session_with_tables();
    let sql = "SELECT a.id, b.id FROM city_table a, river_table b \
               WHERE (a.rowid, b.rowid) IN \
               (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
                'city_table', 'geom', 'river_table', 'geom', 'intersect')))";

    let serial = db.execute(sql).unwrap();
    db.execute("ALTER SESSION SET parallel_dop = 4").unwrap();
    let par = db.execute(sql).unwrap();
    assert_eq!(par.rows, serial.rows, "parallel probe is bit-identical to serial");
    let n = par.rows.len() as u64;
    assert!(n > 0);

    let profile = db.last_profile().unwrap();
    let ex = profile.root.find("EXCHANGE").expect("the probe fans out at dop 4");
    assert!(ex.attrs.iter().any(|(k, v)| k == "dop" && v == "4"), "{:?}", ex.attrs);
    let workers: Vec<_> = ex.children.iter().filter(|c| c.name.starts_with("worker")).collect();
    assert_eq!(workers.len(), 4);
    assert_eq!(workers.iter().map(|w| w.rows).sum::<u64>(), n, "worker rows sum to the result");

    let (mut probed_total, mut fetched_total) = (0, 0);
    for w in &workers {
        let probed = w.metric("pairs_probed").expect("pairs_probed renders even at zero");
        let fetched = w.metric("rows_fetched").expect("rows_fetched renders even at zero");
        assert!(fetched <= 2 * probed, "{fetched} rows for {probed} pairs ({})", w.name);
        assert_eq!(fetched > 0, probed > 0, "probed pairs are fetched ({})", w.name);
        fetched_total += fetched;
        w.metric("morsels_executed").unwrap();
        w.metric("morsels_stolen").unwrap();
        probed_total += probed;
    }
    // Pairs are distinct (the wave dedups them), and every surviving
    // pair was probed by exactly one worker.
    assert_eq!(probed_total, n, "distinct pairs probed once each");
    // The exchange's counter delta also holds the subquery's join
    // fetches, so the workers' own fetches are a part of it.
    assert!(fetched_total <= ex.metric("row_fetches").unwrap(), "{:?}", ex.metrics);
}

#[test]
fn transaction_and_wal_counters_surface_on_the_statement_profile() {
    let dir = std::env::temp_dir().join(format!("sdo-ea-txn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();

    // An autocommit INSERT is one transaction: its profile root carries
    // the commit plus the WAL traffic it caused.
    db.execute("EXPLAIN ANALYZE INSERT INTO t VALUES (1)").unwrap();
    let profile = db.last_profile().unwrap();
    assert_eq!(profile.root.metric("txn_commits"), Some(1), "autocommit = one commit");
    assert!(profile.root.metric("wal_bytes_written").unwrap_or(0) > 0, "DML reaches the WAL");
    assert!(profile.root.metric("wal_fsyncs").unwrap_or(0) >= 1, "fsync durability syncs");

    // COMMIT of an explicit transaction carries the commit; the DML
    // statements inside carried only their WAL bytes.
    db.execute("BEGIN").unwrap();
    db.execute("EXPLAIN ANALYZE INSERT INTO t VALUES (2)").unwrap();
    let mid = db.last_profile().unwrap();
    assert_eq!(mid.root.metric("txn_commits"), None, "no commit mid-transaction");
    assert!(mid.root.metric("wal_bytes_written").unwrap_or(0) > 0);
    db.execute("EXPLAIN ANALYZE COMMIT").unwrap();
    let commit = db.last_profile().unwrap();
    assert_eq!(commit.root.name, "COMMIT");
    assert_eq!(commit.root.metric("txn_commits"), Some(1));

    // ROLLBACK counts as an abort.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    db.execute("EXPLAIN ANALYZE ROLLBACK").unwrap();
    let rb = db.last_profile().unwrap();
    assert_eq!(rb.root.metric("txn_aborts"), Some(1));
    assert_eq!(rb.root.metric("heap_versions_pruned"), Some(1), "the aborted insert is pruned");

    // Inserting leaves nothing dead; an UPDATE leaves the old version,
    // pruned as its statement ends since nothing older is pinned. The
    // count shows beside the commit.
    db.execute("EXPLAIN ANALYZE INSERT INTO t VALUES (4)").unwrap();
    assert_eq!(db.last_profile().unwrap().root.metric("heap_versions_pruned"), None);
    let rows = db.execute("EXPLAIN ANALYZE UPDATE t SET id = 10 WHERE id = 1").unwrap().rows;
    let root = rows[0][0].as_text().unwrap().to_string();
    assert!(root.contains("txn_commits=1"), "{root}");
    assert!(root.contains("heap_versions_pruned=1"), "{root}");

    // An open transaction holds the pruning back until it ends.
    let reader = db.begin();
    db.execute("EXPLAIN ANALYZE DELETE FROM t WHERE id = 2").unwrap();
    assert_eq!(db.last_profile().unwrap().root.metric("heap_versions_pruned"), None);
    let before = db.counters().snapshot();
    reader.commit().unwrap();
    assert_eq!(db.counters().diff(&before).get("heap_versions_pruned"), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn counters_snapshot_diff_tracks_txn_and_wal_activity() {
    let dir = std::env::temp_dir().join(format!("sdo-ea-cnt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();

    let before = db.counters().snapshot();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    db.execute("ROLLBACK").unwrap();
    let delta = db.counters().diff(&before);

    assert_eq!(delta.get("txn_commits"), Some(1));
    assert_eq!(delta.get("txn_aborts"), Some(1));
    assert!(delta.get("wal_bytes_written").unwrap_or(0) > 0);
    assert!(delta.get("wal_fsyncs").unwrap_or(0) >= 1, "the COMMIT fsynced");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The domain index is the primary filter only: an index scan fetches
/// each candidate the index returns once, at the statement snapshot,
/// and runs the one exact test on it. A window whose four candidates
/// all hit costs four row fetches and four exact tests.
#[test]
fn index_scan_fetches_and_tests_each_candidate_once() {
    let _morsel = morsel_rows(4096);
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_grid(&db, "g4", 400);
    db.execute("CREATE INDEX g4_sidx ON g4(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let sql = "SELECT id FROM g4 WHERE SDO_RELATE(geom, \
               SDO_GEOMETRY('POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'), 'ANYINTERACT') = 'TRUE'";
    let out = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let text: Vec<String> = out.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
    let profile = db.last_profile().unwrap();
    let scan = profile.root.find("INDEX SCAN G4").unwrap_or_else(|| panic!("{text:?}"));
    assert_eq!(scan.rows, 4, "{text:?}");
    assert_eq!(scan.metric("row_fetches"), Some(4), "{:?}", scan.metrics);
    assert_eq!(scan.metric("exact_tests"), Some(4), "{:?}", scan.metrics);
    assert!(
        !scan.attrs.iter().any(|(k, _)| k == "filter"),
        "the index predicate stays in the label: {:?}",
        scan.attrs
    );
}
