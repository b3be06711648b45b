//! Per-layer probes: each layer's public functions timed from the
//! harness on the workload's own generated data, with the counts the
//! engine already exports beside the times. No instrumentation inside
//! the program. Every probe runs on every workload, so a layer's cost
//! on *this* data is always a measured number.

use crate::gen::{self, Poly, Rng};
use crate::stats::median;
use crate::workloads::{bbox_of, create_and_load, geometries, join_side, Env, Stmt, Workload};
use sdo_core::join::{ExactPredicate, SpatialJoin, SpatialJoinConfig};
use sdo_core::SpatialIndexParams;
use sdo_dbms::sql::{self, Statement};
use sdo_dbms::Database;
use sdo_geom::{Geometry, PreparedGeometry, Rect, RelateMask};
use sdo_rtree::{JoinCursor, JoinPredicate, RTree, RTreeParams};
use sdo_server::Client;
use sdo_storage::{Counters, RowId, Value, Wal, WalRecord};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Tiling level of the tessellation and quadtree-build probes.
const PROBE_LEVEL: u32 = 8;
const REPEATS: usize = 3;

fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median seconds of [`REPEATS`] runs of `f`.
fn median_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    median(&(0..REPEATS).map(|_| secs(|| black_box(f())).0).collect::<Vec<_>>())
}

fn mbr_items(polys: &[Poly]) -> Vec<(Rect, RowId)> {
    polys.iter().enumerate().map(|(i, p)| (bbox_of(p), RowId(i as u64))).collect()
}

fn count(session: &sdo_dbms::Session, sql: &str) -> i64 {
    session.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).count().expect("COUNT(*)")
}

pub type Metrics = Vec<(&'static str, f64)>;

pub fn probe(w: &dyn Workload, env: &Env, scratch: &Path) -> Metrics {
    let mut m: Metrics = Vec::new();
    let inputs = w.probe_inputs();
    let (left, right) = (inputs.left, inputs.right);
    let (lgeoms, rgeoms) = (geometries(left), geometries(right));

    // -- server::wire ------------------------------------------------
    let mut c = Client::connect(env.server.addr()).expect("connect for ping");
    let rtt: Vec<f64> = (0..15).map(|_| secs(|| c.ping().expect("ping")).0 * 1e6).collect();
    let _ = c.close();
    m.push(("wire.rtt_us", median(&rtt)));

    // -- dbms::sql ---------------------------------------------------
    let prepared: HashMap<&str, String> = w.prepared().into_iter().collect();
    let texts: Vec<String> = w
        .op(0, 0)
        .into_iter()
        .map(|s| match s {
            Stmt::Text(sql) => sql,
            Stmt::Prepared { name, .. } => prepared[name.as_str()].clone(),
        })
        .collect();
    let reps = 200;
    let (t, _) = secs(|| {
        for _ in 0..reps {
            for sql in &texts {
                black_box(sql::parse(sql).expect("parse"));
            }
        }
    });
    m.push(("sql.parse_us", t * 1e6 / (reps * texts.len()) as f64));

    // -- core: index creation on the probe tables --------------------
    let db = Arc::new(Database::new());
    sdo_core::register_spatial(&db);
    create_and_load(&db, "pl", (0..).zip(&lgeoms));
    create_and_load(&db, "pr", (0..).zip(&rgeoms));
    let (pl, pr) = (db.table("pl").expect("pl"), db.table("pr").expect("pr"));
    let rparams = SpatialIndexParams::default();
    m.push((
        "core.create_rtree_ms",
        1e3 * median_secs(|| {
            sdo_core::create::build_rtree(&pr, 1, &rparams, 2, Arc::clone(db.counters()))
                .expect("rtree")
        }),
    ));
    let qparams = SpatialIndexParams {
        sdo_level: PROBE_LEVEL,
        extent: Some(gen::EXTENT),
        ..SpatialIndexParams::default()
    };
    m.push((
        "core.create_quadtree_ms",
        1e3 * median_secs(|| {
            sdo_core::create::build_quadtree(&pl, 1, &qparams, 2, Arc::clone(db.counters()))
                .expect("quadtree")
        }),
    ));
    for (table, index) in [("pl", "pl_sidx"), ("pr", "pr_sidx")] {
        db.execute(&format!("CREATE INDEX {index} ON {table}(geom) INDEXTYPE IS SPATIAL_INDEX"))
            .expect("index");
        db.execute(&format!("ANALYZE TABLE {table}")).expect("analyze");
    }

    // -- planner -----------------------------------------------------
    let mut rng = Rng::new(w.data_hash());
    let side = (gen::EXTENT.area() / right.len() as f64).sqrt() * 3.0;
    let windows: Vec<Rect> = (0..200).map(|_| gen::window(&gen::EXTENT, side, &mut rng)).collect();
    let wkt = sdo_geom::wkt::to_wkt(&gen::to_geometry(&gen::rect_poly(&windows[0])));
    let select = sql::parse(&format!(
        "SELECT id FROM pr WHERE SDO_RELATE(geom, SDO_GEOMETRY('{wkt}'), 'ANYINTERACT') = 'TRUE'"
    ))
    .expect("window select");
    let Statement::Select(sel) = select else { unreachable!("parsed a SELECT") };
    let explain = Statement::Explain(sel);
    let (t, _) = secs(|| {
        for _ in 0..50 {
            black_box(sdo_dbms::exec::execute(&db, &explain).expect("EXPLAIN"));
        }
    });
    m.push(("sql.plan_us", t * 1e6 / 50.0));

    // -- rtree -------------------------------------------------------
    let ritems = mbr_items(right);
    m.push((
        "rtree.bulk_load_ms",
        1e3 * median_secs(|| RTree::bulk_load(ritems.clone(), RTreeParams::default())),
    ));
    let counters = Arc::new(Counters::new());
    let rtree =
        RTree::bulk_load(ritems, RTreeParams::default()).with_counters(Arc::clone(&counters));
    let (t, hits) = secs(|| windows.iter().map(|w| rtree.query_window(w).len()).sum::<usize>());
    black_box(hits);
    m.push(("rtree.window_us", t * 1e6 / windows.len() as f64));
    m.push((
        "rtree.node_reads_per_query",
        Counters::get(&counters.rtree_node_reads) as f64 / windows.len() as f64,
    ));
    let mut scratch_tree = rtree.clone();
    let extra: Vec<(Rect, RowId)> = (0..2000)
        .map(|i| (gen::window(&gen::EXTENT, side / 3.0, &mut rng), RowId(10_000_000 + i)))
        .collect();
    let (t, _) = secs(|| extra.iter().for_each(|(r, id)| scratch_tree.insert(*r, *id)));
    m.push(("rtree.insert_us", t * 1e6 / extra.len() as f64));
    let (t, gone) = secs(|| extra.iter().filter(|(r, id)| scratch_tree.delete(r, id)).count());
    assert_eq!(gone, extra.len(), "the probe deletes what it inserted");
    m.push(("rtree.delete_us", t * 1e6 / extra.len() as f64));

    let ltree = RTree::bulk_load(mbr_items(left), RTreeParams::default());
    let join_counters = Arc::new(Counters::new());
    let run_join = || {
        JoinCursor::new(&ltree, &rtree, JoinPredicate::Intersects)
            .with_counters(Arc::clone(&join_counters))
            .collect_all()
    };
    m.push(("rtree.join_ms", 1e3 * median_secs(run_join)));
    join_counters.reset();
    let cands = run_join();
    m.push(("rtree.kernel_tests", Counters::get(&join_counters.mbr_tests) as f64));
    m.push(("rtree.candidates", cands.len() as f64));

    // -- geom --------------------------------------------------------
    // Preparation is lazy, so the first pass over the candidates pays
    // it and the second does not; the difference is its cost.
    let cands = &cands[..cands.len().min(20_000)];
    let mut lp: HashMap<RowId, PreparedGeometry> = HashMap::new();
    let mut rp: HashMap<RowId, PreparedGeometry> = HashMap::new();
    for (_, a, _, b) in cands {
        lp.entry(*a)
            .or_insert_with(|| PreparedGeometry::from_arc(Arc::clone(&lgeoms[a.0 as usize])));
        rp.entry(*b)
            .or_insert_with(|| PreparedGeometry::from_arc(Arc::clone(&rgeoms[b.0 as usize])));
    }
    let relate_all = || {
        cands.iter().filter(|(_, a, _, b)| lp[a].relate(&rp[b], RelateMask::AnyInteract)).count()
    };
    let (cold, hits) = secs(relate_all);
    let warm = median_secs(relate_all);
    m.push(("geom.prepare_us", (cold - warm).max(0.0) * 1e6 / (lp.len() + rp.len()) as f64));
    m.push(("geom.relate_us", warm * 1e6 / cands.len() as f64));
    m.push(("geom.filter_hit_ratio", hits as f64 / cands.len() as f64));

    // -- quadtree ----------------------------------------------------
    let (t, tiles) = secs(|| {
        lgeoms
            .iter()
            .map(|g| sdo_quadtree::tessellate(g, &gen::EXTENT, PROBE_LEVEL).len())
            .sum::<usize>()
    });
    m.push(("quadtree.tessellate_us", t * 1e6 / lgeoms.len() as f64));
    m.push(("quadtree.tiles_per_geom", tiles as f64 / lgeoms.len() as f64));

    // -- core: the join, embedded ------------------------------------
    m.push((
        "core.join_ms",
        1e3 * median_secs(|| {
            let mut j = SpatialJoin::new(
                join_side(&db, "pl_sidx"),
                join_side(&db, "pr_sidx"),
                ExactPredicate::Masks(vec![RelateMask::AnyInteract]),
                SpatialJoinConfig::default(),
                Arc::clone(db.counters()),
            );
            sdo_tablefunc::collect_all(&mut j, 4096).expect("join").len()
        }),
    ));
    let session = db.session();
    let join = |dop: usize| {
        format!("FROM TABLE(SPATIAL_JOIN('pl', 'geom', 'pr', 'geom', 'ANYINTERACT', {dop}))")
    };
    m.push((
        "core.join_first_batch_ms",
        1e3 * median_secs(|| {
            session.execute(&format!("SELECT * {} LIMIT 1", join(2))).expect("first row")
        }),
    ));

    // -- tablefunc ---------------------------------------------------
    let dop1 = median_secs(|| count(&session, &format!("SELECT COUNT(*) {}", join(1))));
    let dop2 = median_secs(|| count(&session, &format!("SELECT COUNT(*) {}", join(2))));
    let profile = session.last_profile().expect("profile of the dop-2 join");
    m.push(("tf.dop2_speedup", dop1 / dop2));
    m.push(("tf.tasks_executed", profile.root.metric_sum("tasks_executed") as f64));
    m.push(("tf.tasks_stolen", profile.root.metric_sum("tasks_stolen") as f64));
    let pool = sdo_tablefunc::pool::global().stats();
    m.push(("tf.pool_jobs", pool.jobs_submitted as f64));
    m.push(("tf.pool_workers", pool.workers_spawned as f64));

    // -- obs ---------------------------------------------------------
    let analyzed = median_secs(|| {
        session.execute(&format!("EXPLAIN ANALYZE SELECT COUNT(*) {}", join(2))).expect("analyze")
    });
    m.push(("obs.profile_overhead_ratio", analyzed / dop2));

    // -- storage::wal + txn ------------------------------------------
    wal_probes(&mut m, &rgeoms, scratch);
    m
}

/// Log append and sync on a scratch log with the record sizes a
/// transaction on this data writes, then the same through a durable
/// engine: bytes logged per user byte, syncs per commit, commit time.
fn wal_probes(m: &mut Metrics, geoms: &[Arc<Geometry>], scratch: &Path) {
    let rows: Vec<Vec<Value>> = geoms
        .iter()
        .take(40)
        .enumerate()
        .map(|(i, g)| vec![Value::Integer(i as i64), Value::Geometry(Arc::clone(g))])
        .collect();
    let path = scratch.join("probe.wal");
    let _ = std::fs::remove_file(&path);
    let wal = Wal::open(&path, Arc::new(Counters::new())).expect("scratch log");
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    for (i, row) in rows.iter().enumerate() {
        let rec = WalRecord::Insert {
            txid: i as u64 + 1,
            table: "T".into(),
            rid: RowId(i as u64),
            row: row.clone(),
        };
        let (t, lsn) = secs(|| wal.append(&rec).expect("append"));
        appends.push(t * 1e6);
        syncs.push(secs(|| wal.sync_to(lsn).expect("sync")).0 * 1e6);
    }
    m.push(("wal.append_us", median(&appends)));
    m.push(("wal.sync_us", median(&syncs)));

    let dir = scratch.join("probe-db");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Database::open(&dir).expect("durable probe database"));
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)").expect("create");
    let session = db.session();
    session.prepare("ins", "INSERT INTO t VALUES (?, ?)").expect("prepare");
    let before = db.counters().snapshot();
    let mut commits = Vec::new();
    let mut user_bytes = 0usize;
    for row in &rows {
        user_bytes += 8 + sdo_geom::wkt::to_wkt(row[1].as_geometry().expect("geometry")).len();
        session.execute("BEGIN").expect("begin");
        session.execute_prepared("ins", row).expect("insert");
        commits.push(secs(|| session.execute("COMMIT").expect("commit")).0 * 1e6);
    }
    let delta = db.counters().diff(&before);
    m.push(("txn.commit_us", median(&commits)));
    m.push((
        "wal.bytes_per_user_byte",
        delta.get("wal_bytes_written").unwrap_or(0) as f64 / user_bytes as f64,
    ));
    m.push((
        "wal.fsyncs_per_commit",
        delta.get("wal_fsyncs").unwrap_or(0) as f64 / rows.len() as f64,
    ));
}
