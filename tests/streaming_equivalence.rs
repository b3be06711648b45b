//! Streaming executor regression suite.
//!
//! The streaming batch pipeline must (1) return exactly the rows a
//! brute-force evaluation over the loaded geometries gives, (2) keep
//! pipeline memory bounded by batches in flight rather than result
//! cardinality, and (3) make `LIMIT` terminate the producing spatial
//! join early.

use proptest::prelude::*;
use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::{Geometry, Point, RelateMask};
use sdo_storage::Value;

/// The `(id, geometry)` rows a county table is loaded from.
fn county_rows(n: usize, seed: u64) -> Vec<(i64, Geometry)> {
    counties::generate(n, &US_EXTENT, seed)
        .into_iter()
        .enumerate()
        .map(|(i, g)| (i as i64, g))
        .collect()
}

fn load_counties(db: &Database, table: &str, n: usize, seed: u64) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (id, g) in county_rows(n, seed) {
        db.insert_row(table, vec![Value::Integer(id), Value::geometry(g)]).unwrap();
    }
}

/// `(table, rows, seed)`; `plain_table` is deliberately unindexed.
const CITY: (&str, usize, u64) = ("city_table", 60, 1);
const RIVER: (&str, usize, u64) = ("river_table", 60, 2);
const PLAIN: (&str, usize, u64) = ("plain_table", 40, 3);

fn session_with_tables() -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    for (table, n, seed) in [CITY, RIVER, PLAIN] {
        load_counties(&db, table, n, seed);
    }
    for (idx, table) in [("city_sidx", CITY.0), ("river_sidx", RIVER.0)] {
        db.execute(&format!(
            "CREATE INDEX {idx} ON {table}(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=8')"
        ))
        .unwrap();
    }
    db
}

fn row_keys(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// One corpus query: its SQL, whether row order is part of the answer,
/// and the answer computed by brute force from the loaded rows with
/// `sdo_geom` alone — no index, planner or `sdo-dbms` evaluator.
struct Case {
    sql: String,
    ordered: bool,
    want: Vec<Vec<Value>>,
}

fn case(sql: &str, ordered: bool, want: Vec<Vec<Value>>) -> Case {
    Case { sql: sql.into(), ordered, want }
}

/// One-column `id` rows for the rows that pass `keep`.
fn ids_where(rows: &[(i64, Geometry)], keep: impl Fn(i64, &Geometry) -> bool) -> Vec<Vec<Value>> {
    rows.iter().filter(|(id, g)| keep(*id, g)).map(|(id, _)| vec![Value::Integer(*id)]).collect()
}

fn count(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    vec![vec![Value::Integer(rows.len() as i64)]]
}

/// Ids ranked by distance to `q`, ties broken by id.
fn by_distance(rows: &[(i64, Geometry)], q: &Geometry) -> Vec<i64> {
    let mut ranked: Vec<(f64, i64)> =
        rows.iter().map(|(id, g)| (sdo_geom::distance(g, q), *id)).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().map(|(_, id)| id).collect()
}

fn id_rows(ids: impl IntoIterator<Item = i64>) -> Vec<Vec<Value>> {
    ids.into_iter().map(|id| vec![Value::Integer(id)]).collect()
}

/// Every query shape the planner knows, with its brute-force answer.
fn corpus() -> Vec<Case> {
    let city = county_rows(CITY.1, CITY.2);
    let river = county_rows(RIVER.1, RIVER.2);
    let plain = county_rows(PLAIN.1, PLAIN.2);
    let window =
        sdo_geom::wkt::parse_wkt("POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))").unwrap();
    let point = Geometry::Point(Point::new(-95.0, 35.0));
    let intersects =
        |a: &Geometry, b: &Geometry| sdo_geom::relate::relate_any(a, b, &[RelateMask::AnyInteract]);
    let join_pairs: Vec<Vec<Value>> = city
        .iter()
        .flat_map(|(a, ga)| {
            river
                .iter()
                .filter(move |(_, gb)| intersects(ga, gb))
                .map(move |(b, _)| vec![Value::Integer(*a), Value::Integer(*b)])
        })
        .collect();
    let in_window = |_: i64, g: &Geometry| intersects(g, &window);
    let near = |_: i64, g: &Geometry| sdo_geom::within_distance(g, &point, 5.0);
    vec![
        // Nested-loop spatial join via the inner index.
        case(
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'",
            false,
            join_pairs.clone(),
        ),
        // Table-function join (rowid-pair semijoin), serial and dop 2.
        case(
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect')))",
            false,
            join_pairs.clone(),
        ),
        case(
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect', 2)))",
            false,
            join_pairs.clone(),
        ),
        // Indexed window query.
        case(
            "SELECT id FROM city_table WHERE SDO_RELATE(geom, \
             SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))'), \
             'intersect') = 'TRUE'",
            false,
            ids_where(&city, in_window),
        ),
        // Unindexed window query (functional evaluation).
        case(
            "SELECT id FROM plain_table WHERE SDO_RELATE(geom, \
             SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))'), \
             'intersect') = 'TRUE'",
            false,
            ids_where(&plain, in_window),
        ),
        // A spatial operator compared to 'FALSE' is a residual filter.
        case(
            "SELECT id FROM city_table WHERE SDO_RELATE(geom, \
             SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))'), \
             'intersect') = 'FALSE'",
            false,
            ids_where(&city, |id, g| !in_window(id, g)),
        ),
        // Within-distance, indexed and unindexed.
        case(
            "SELECT COUNT(*) FROM city_table \
             WHERE SDO_WITHIN_DISTANCE(geom, SDO_POINT(-95, 35), 5) = 'TRUE'",
            false,
            count(&ids_where(&city, near)),
        ),
        case(
            "SELECT COUNT(*) FROM plain_table \
             WHERE SDO_WITHIN_DISTANCE(geom, SDO_POINT(-95, 35), 5) = 'TRUE'",
            false,
            count(&ids_where(&plain, near)),
        ),
        // A scalar SDO_* function compared in WHERE is an ordinary
        // comparison, not a spatial operator.
        case(
            "SELECT id FROM city_table WHERE SDO_DISTANCE(geom, SDO_POINT(-95, 35)) < 5",
            false,
            ids_where(&city, |_, g| sdo_geom::distance(g, &point) < 5.0),
        ),
        // k-NN ranking, indexed and unindexed.
        case(
            "SELECT id FROM city_table WHERE SDO_NN(geom, SDO_POINT(-95, 35), 7) = 'TRUE'",
            false,
            id_rows(by_distance(&city, &point).into_iter().take(7)),
        ),
        case(
            "SELECT id FROM plain_table WHERE SDO_NN(geom, SDO_POINT(-95, 35), 5) = 'TRUE'",
            false,
            id_rows(by_distance(&plain, &point).into_iter().take(5)),
        ),
        // ORDER BY + LIMIT over an expression key.
        case(
            "SELECT id FROM city_table \
             ORDER BY SDO_DISTANCE(geom, SDO_POINT(-95, 35)) LIMIT 5",
            true,
            id_rows(by_distance(&city, &point).into_iter().take(5)),
        ),
        case(
            "SELECT id FROM city_table WHERE id < 20 ORDER BY id DESC",
            true,
            id_rows((0..20).rev()),
        ),
        // Residual comparisons, equi-style cross join, star projection.
        case("SELECT id FROM city_table WHERE id > 30", false, ids_where(&city, |id, _| id > 30)),
        case(
            "SELECT a.id, b.id FROM city_table a, river_table b WHERE a.id = b.id",
            false,
            (0..CITY.1.min(RIVER.1) as i64)
                .map(|id| vec![Value::Integer(id), Value::Integer(id)])
                .collect(),
        ),
        case(
            "SELECT * FROM river_table WHERE id < 5",
            false,
            river[..5]
                .iter()
                .map(|(id, g)| vec![Value::Integer(*id), Value::geometry(g.clone())])
                .collect(),
        ),
        // Table-function scan with a residual (defeats the COUNT fast
        // path, so the scan + filter pipeline drives it).
        case(
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
             'city_table', 'geom', 'river_table', 'geom', 'intersect')) WHERE 1 = 1",
            false,
            count(&join_pairs),
        ),
        // Scalar-function projection.
        case(
            "SELECT SDO_AREA(geom) shape_area FROM city_table WHERE id < 10 ORDER BY id",
            true,
            city[..10].iter().map(|(_, g)| vec![Value::Double(g.area())]).collect(),
        ),
    ]
}

/// The corpus, answered by the streaming pipeline exactly as brute
/// force answers it. Row order is compared exactly for ORDER BY
/// queries and as a multiset otherwise.
#[test]
fn corpus_matches_brute_force() {
    let db = session_with_tables();
    for Case { sql, ordered, want } in corpus() {
        let got = db.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        let (mut gk, mut wk) = (row_keys(&got), row_keys(&want));
        if !ordered {
            gk.sort();
            wk.sort();
        }
        assert_eq!(gk, wk, "rows diverge from brute force for {sql}");
    }
}

/// A large `TABLE(SPATIAL_JOIN)` self-join scan: the streaming executor
/// must keep its resident footprint at batch scale while producing tens
/// of thousands of rows, and a `LIMIT 10` on the same scan must do a
/// small fraction of the R-tree work (the limit closes the pipeline,
/// which stops the join mid-traversal).
#[test]
fn scan_is_batch_bounded_and_limit_stops_the_join() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_counties(&db, "grid", 4000, 7);
    db.execute("CREATE INDEX grid_sidx ON grid(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let scan = "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
                'grid', 'geom', 'grid', 'geom', 'intersect'))";

    let before = db.counters().snapshot();
    let full = db.execute(scan).unwrap();
    let full_work = db.counters().diff(&before).total();
    // A jittered county grid gives each cell roughly 8 touching
    // neighbours plus itself.
    assert!(full.rows.len() > 16_384, "expected a large join, got {}", full.rows.len());

    let profile = db.last_profile().unwrap();
    let peak = profile.root.metric("peak_resident_rows").expect("statement reports peak");
    assert!(
        peak > 0 && peak <= 4 * 1024,
        "peak resident rows {peak} must be O(batch), not O(result = {})",
        full.rows.len()
    );

    let before = db.counters().snapshot();
    let limited = db.execute(&format!("{scan} LIMIT 10")).unwrap();
    let limited_work = db.counters().diff(&before).total();
    assert_eq!(limited.rows.len(), 10);
    assert_eq!(limited.rows, full.rows[..10].to_vec(), "LIMIT must be a prefix of the scan");
    // One batch of pairs plus join start-up costs a few percent of the
    // full traversal; without early close the limited query would do
    // ~100% of it.
    assert!(
        (limited_work as f64) < (full_work as f64) * 0.25,
        "LIMIT 10 did {limited_work} of {full_work} work units; \
         early termination should stop the traversal"
    );
}

/// LIMIT through the rowid-pair semijoin, serial and parallel: early
/// close must propagate through the table function (joining slave
/// threads at dop 2) and still produce correct rows.
#[test]
fn limit_terminates_semijoin_cleanly() {
    let db = session_with_tables();
    for dop in ["", ", 2"] {
        let sql = format!(
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect'{dop}))) LIMIT 10"
        );
        let res = db.execute(&sql).unwrap();
        assert_eq!(res.rows.len(), 10, "dop '{dop}'");
    }
}

/// The `max_resident_rows` budget replaces the old hard-coded cross
/// product cap: exceeding it fails with the operator's name, raising it
/// lets the query through.
#[test]
fn max_resident_rows_budget_is_enforced() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE a (id NUMBER)").unwrap();
    db.execute("CREATE TABLE b (id NUMBER)").unwrap();
    for i in 0..200 {
        db.insert_row("a", vec![Value::Integer(i)]).unwrap();
        db.insert_row("b", vec![Value::Integer(i)]).unwrap();
    }
    db.execute("ALTER SESSION SET max_resident_rows = 5000").unwrap();
    let err = db.execute("SELECT COUNT(*) FROM a, b").unwrap_err().to_string();
    assert!(err.contains("MAX_RESIDENT_ROWS"), "budget error should name the option, got: {err}");
    db.execute("ALTER SESSION SET max_resident_rows = 100000").unwrap();
    let n = db.execute("SELECT COUNT(*) FROM a, b").unwrap().count().unwrap();
    assert_eq!(n, 200 * 200);
}

#[test]
fn session_options_and_limit_validation() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();
    for i in 0..10 {
        db.insert_row("t", vec![Value::Integer(i)]).unwrap();
    }

    // Option round-trips.
    db.execute("ALTER SESSION SET max_resident_rows = 1234").unwrap();
    assert_eq!(db.options().max_resident_rows, 1234);

    // Rejected values and options; there is one SELECT executor, so
    // the old `materialize` switch is unknown.
    assert!(db.execute("ALTER SESSION SET max_resident_rows = 0").is_err());
    assert!(db.execute("ALTER SESSION SET max_resident_rows = banana").is_err());
    for opt in ["materialize = on", "no_such_option = 1"] {
        let err = db.execute(&format!("ALTER SESSION SET {opt}")).unwrap_err().to_string();
        assert!(err.contains("unknown session option"), "{opt}: {err}");
    }

    // LIMIT wiring: negative rejected at parse, 0 and n honored.
    assert!(db.execute("SELECT id FROM t LIMIT -1").is_err());
    assert_eq!(db.execute("SELECT id FROM t LIMIT 0").unwrap().rows.len(), 0);
    let res = db.execute("SELECT id FROM t ORDER BY id LIMIT 3").unwrap();
    let ids: Vec<i64> = res.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    assert_eq!(ids, vec![0, 1, 2]);
}

/// The full corpus must return *bit-identical* rows — order included —
/// at parallel_dop 1, 2, and 4. The morsel size is shrunk so the
/// 60-row tables actually fan out; the exchange's morsel-ordered merge
/// is what makes this hold. The one exception is the table function
/// running with its *own* slave dop: its pair stream is unordered at
/// the source (two TF slaves race to emit), so that entry is compared
/// as a multiset — the exchange cannot restore an order the producer
/// never had.
#[test]
fn corpus_is_dop_invariant() {
    sdo_dbms::set_morsel_rows(8);
    let db = session_with_tables();
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    let corpus = corpus();
    let baseline: Vec<_> = corpus.iter().map(|c| db.execute(&c.sql).unwrap()).collect();
    for dop in [2usize, 4] {
        db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        for (Case { sql, .. }, base) in corpus.iter().zip(&baseline) {
            let res = db.execute(sql).unwrap();
            assert_eq!(res.columns, base.columns, "columns diverge at dop {dop} for {sql}");
            if sql.contains("'intersect', 2") {
                let (mut rk, mut bk) = (row_keys(&res.rows), row_keys(&base.rows));
                rk.sort();
                bk.sort();
                assert_eq!(rk, bk, "row multiset diverges at dop {dop} for {sql}");
            } else {
                assert_eq!(res.rows, base.rows, "rows diverge at dop {dop} for {sql}");
            }
        }
    }
}

/// Parallelism must not loosen the resident-row budget: with the
/// morsel size shrunk and a tight (but sufficient) budget, the same
/// query respects `max_resident_rows` at every dop, and the profiled
/// peak stays within the budget.
#[test]
fn resident_budget_holds_at_every_dop() {
    sdo_dbms::set_morsel_rows(8);
    let db = session_with_tables();
    db.execute("ALTER SESSION SET max_resident_rows = 200").unwrap();
    for dop in [1usize, 2, 4] {
        db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        let res = db.execute("SELECT id FROM city_table WHERE id >= 0 ORDER BY id").unwrap();
        assert_eq!(res.rows.len(), 60, "dop {dop}");
        let profile = db.last_profile().unwrap();
        let peak = profile.root.metric("peak_resident_rows").expect("peak reported");
        assert!(peak <= 200, "dop {dop}: peak {peak} exceeds the session budget");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel sort and top-k must match the serial plan bit for bit,
    /// tie-breaks included: coordinates are drawn from a tiny grid so
    /// duplicate geometries (equal distances) are common, and the
    /// serial executor breaks those ties by stable-sort scan order.
    #[test]
    fn parallel_sort_and_topk_match_serial_bit_for_bit(
        coords in proptest::collection::vec((0i64..10, 0i64..10), 24..120),
        k in 1usize..24,
    ) {
        sdo_dbms::set_morsel_rows(8);
        let db = Database::new();
        sdo_core::register_spatial(&db);
        db.execute("CREATE TABLE pts (id NUMBER, geom SDO_GEOMETRY)").unwrap();
        for (i, (x, y)) in coords.iter().enumerate() {
            let g = sdo_geom::wkt::parse_wkt(&format!("POINT ({x} {y})")).unwrap();
            db.insert_row("pts", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
        }
        let queries = [
            "SELECT id FROM pts ORDER BY SDO_DISTANCE(geom, SDO_POINT(5, 5))".to_string(),
            format!("SELECT id FROM pts ORDER BY SDO_DISTANCE(geom, SDO_POINT(5, 5)) LIMIT {k}"),
            format!(
                "SELECT id FROM pts ORDER BY SDO_DISTANCE(geom, SDO_POINT(5, 5)) DESC LIMIT {k}"
            ),
        ];
        db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
        let serial: Vec<_> = queries.iter().map(|q| db.execute(q).unwrap().rows).collect();
        for dop in [2usize, 4] {
            db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
            for (q, s) in queries.iter().zip(&serial) {
                let par = db.execute(q).unwrap().rows;
                prop_assert_eq!(&par, s, "dop {} diverges for {}", dop, q);
            }
        }
    }
}

/// `parallel_dop` validation: zero and out-of-range rejected with the
/// legal range in the message, garbage rejected, valid values
/// round-trip — consistent with `max_resident_rows` handling.
#[test]
fn parallel_dop_option_is_validated() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("ALTER SESSION SET parallel_dop = 4").unwrap();
    assert_eq!(db.options().parallel_dop, 4);
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    assert_eq!(db.options().parallel_dop, 1);

    let err = db.execute("ALTER SESSION SET parallel_dop = 0").unwrap_err().to_string();
    assert!(err.contains("between 1 and 64"), "zero must name the range: {err}");
    let err = db.execute("ALTER SESSION SET parallel_dop = 65").unwrap_err().to_string();
    assert!(err.contains("between 1 and 64"), "overflow must name the range: {err}");
    let err = db.execute("ALTER SESSION SET parallel_dop = banana").unwrap_err().to_string();
    assert!(err.contains("invalid value"), "garbage must be rejected: {err}");
    // Failed SETs leave the option untouched.
    assert_eq!(db.options().parallel_dop, 1);
}

/// EXECUTE of a prepared statement re-resolves the dop from the
/// session options at execution time: the same prepared SELECT runs
/// parallel after `SET parallel_dop = 4` and serial after `= 1`,
/// observable through the EXPLAIN ANALYZE profile.
#[test]
fn execute_reresolves_dop_from_session_options() {
    sdo_dbms::set_morsel_rows(8);
    let db = session_with_tables();
    db.execute("PREPARE q AS SELECT id FROM city_table WHERE id >= 0").unwrap();

    db.execute("ALTER SESSION SET parallel_dop = 4").unwrap();
    let par = db.execute("EXECUTE q").unwrap();
    assert_eq!(par.rows.len(), 60);
    let profile = db.last_profile().unwrap();
    assert!(
        profile.root.find("EXCHANGE").is_some(),
        "dop 4 EXECUTE must run through the exchange:\n{}",
        profile.render_text()
    );

    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    let ser = db.execute("EXECUTE q").unwrap();
    assert_eq!(ser.rows, par.rows, "dop must not change results");
    let profile = db.last_profile().unwrap();
    assert!(
        profile.root.find("EXCHANGE").is_none(),
        "dop 1 EXECUTE must stay serial:\n{}",
        profile.render_text()
    );
}

#[path = "common/unindexed.rs"]
#[allow(dead_code)] // the MVCC suite uses the rest
mod unindexed;

/// Unindexed `SELECT`, `COUNT(*)`, `UPDATE` and `DELETE` under each
/// WHERE clause the scan evaluates in place (see `common/unindexed.rs`),
/// in autocommit at dop 1 and 4 with 8-row morsels, so the exchange's
/// morsel scan runs too: every answer, and the table after each write,
/// equals the brute-force oracle.
#[test]
fn unindexed_scans_match_brute_force_in_autocommit_at_every_dop() {
    sdo_dbms::set_morsel_rows(8);
    let fresh = |dop: usize| {
        let db = std::sync::Arc::new(Database::new());
        sdo_core::register_spatial(&db);
        let s = db.session();
        s.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        let model = unindexed::load(&s);
        (s, model)
    };
    let (s, base) = fresh(4);
    let plan = s.execute("EXPLAIN ANALYZE SELECT id FROM u WHERE score < 5").unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(plan.iter().any(|l| l.contains("EXCHANGE")), "dop 4 runs the exchange: {plan:?}");
    for dop in [1, 4] {
        for w in unindexed::wheres(&base) {
            let (s, mut model) = fresh(dop);
            let ctx = format!("dop {dop}");
            unindexed::check_reads(&s, &w, &model, &ctx);
            unindexed::update(&s, &w, &mut model, &ctx);
            unindexed::check_table(&s, &model, &ctx);
            unindexed::check_reads(&s, &w, &model, &ctx);
            unindexed::delete(&s, &w, &mut model, &ctx);
            unindexed::check_table(&s, &model, &ctx);
            unindexed::check_reads(&s, &w, &model, &ctx);
        }
    }
}
