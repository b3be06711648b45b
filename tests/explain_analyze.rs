//! `EXPLAIN ANALYZE` integration: the operator profile's row counts
//! must agree with the cardinality of the plain query, including the
//! per-slave breakdown of a parallel table function.

use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use sdo_storage::Value;

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
        .find("PIPELINED COUNT")
        .expect("COUNT(*) over TABLE() takes the pipelined fast path");
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
    let op = profile.root.find("PIPELINED COUNT").unwrap();
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

    // GeomCache accuracy: the secondary filter fetches exactly one
    // geometry per side per surviving MBR candidate, so per slave
    // hits + misses == 2 × the mbr-join phase's candidate rows.
    let mut executed_total = 0;
    for s in &slaves {
        let mbr = s.find("mbr join").expect("partition slaves share the join phase names");
        let hits = s.metric("geom_cache_hits").unwrap_or(0);
        let misses = s.metric("geom_cache_misses").unwrap_or(0);
        assert_eq!(
            hits + misses,
            2 * mbr.rows,
            "cache lookups must track candidates exactly (slave {})",
            s.name
        );
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
    let op = profile.root.find("PIPELINED COUNT").unwrap();
    for s in op.children.iter().filter(|c| c.name.starts_with("slave")) {
        assert_eq!(
            s.metric("geom_cache_hits").unwrap_or(0) + s.metric("geom_cache_misses").unwrap_or(0),
            0,
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
        let op = profile.root.find("PIPELINED COUNT").unwrap();
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

/// Every join's engine is chosen automatically from its inputs'
/// indexes, and the `PIPELINED COUNT` operator carries the choice and
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
        let op = profile.root.find("PIPELINED COUNT").unwrap();
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

/// A morsel-parallel scan renders as an EXCHANGE with per-worker
/// children whose tallies reconcile exactly: worker rows sum to the
/// statement cardinality, morsels_executed sums to the morsel count,
/// and morsels_stolen renders even when a worker stole nothing.
#[test]
fn parallel_scan_exchange_profile_reports_worker_breakdown() {
    sdo_dbms::set_morsel_rows(8);
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

/// The parallel semijoin probe fetches base rows through one private
/// row cache per worker; each worker's cache accounting must balance
/// exactly — both sides are probed unconditionally, so
/// hits + misses == 2 × pairs_probed — and the parallel run returns
/// the serial rows.
#[test]
fn parallel_semijoin_worker_cache_accounting_balances() {
    sdo_dbms::set_morsel_rows(8);
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

    let mut probed_total = 0;
    for w in &workers {
        let probed = w.metric("pairs_probed").expect("pairs_probed renders even at zero");
        let hits = w.metric("geom_cache_hits").unwrap();
        let misses = w.metric("geom_cache_misses").unwrap();
        assert_eq!(
            hits + misses,
            2 * probed,
            "cache lookups must track probed pairs exactly ({})",
            w.name
        );
        w.metric("morsels_executed").unwrap();
        w.metric("morsels_stolen").unwrap();
        probed_total += probed;
    }
    // Pairs are distinct (the wave dedups them), and every surviving
    // pair was probed by exactly one worker.
    assert_eq!(probed_total, n, "distinct pairs probed once each");
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
