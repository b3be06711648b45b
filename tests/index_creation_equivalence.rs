//! Parallel index creation must produce indexes indistinguishable from
//! serially created ones (paper §5: the parallel build is a pure
//! performance optimization).

use sdo_datagen::{block_groups, US_EXTENT};
use sdo_dbms::Database;
use sdo_storage::Value;

fn fresh_session(n: usize) -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE bg (id NUMBER, geom SDO_GEOMETRY)").unwrap();
    for (i, g) in block_groups::generate(n, &US_EXTENT, 5).into_iter().enumerate() {
        db.insert_row("bg", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
    db
}

const WINDOWS: [&str; 3] = [
    "SDO_GEOMETRY('POLYGON ((-120 30, -110 30, -110 40, -120 40, -120 30))')",
    "SDO_GEOMETRY('POLYGON ((-90 25, -70 25, -70 49, -90 49, -90 25))')",
    "SDO_GEOMETRY('POINT (-100 35)')",
];

fn query_fingerprint(db: &Database) -> Vec<Vec<i64>> {
    WINDOWS
        .iter()
        .map(|w| {
            let mut ids: Vec<i64> = db
                .execute(&format!(
                    "SELECT id FROM bg WHERE SDO_RELATE(geom, {w}, 'ANYINTERACT') = 'TRUE'"
                ))
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_integer().unwrap())
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

fn fingerprint_with(params: &str, parallel: usize, n: usize) -> Vec<Vec<i64>> {
    let db = fresh_session(n);
    db.execute(&format!(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('{params}') PARALLEL {parallel}"
    ))
    .unwrap();
    query_fingerprint(&db)
}

#[test]
fn rtree_creation_dop_equivalence() {
    let n = 150;
    let serial = fingerprint_with("tree_fanout=16", 1, n);
    for dop in [2, 4] {
        assert_eq!(fingerprint_with("tree_fanout=16", dop, n), serial, "dop={dop}");
    }
}

#[test]
fn quadtree_creation_dop_equivalence() {
    let n = 120;
    let params = "sdo_level=7, extent=-125:24:-66:50";
    let serial = fingerprint_with(params, 1, n);
    for dop in [2, 4] {
        assert_eq!(fingerprint_with(params, dop, n), serial, "dop={dop}");
    }
}

#[test]
fn creation_metadata_records_dop_and_kind() {
    let db = fresh_session(40);
    db.execute(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('sdo_level=6, extent=-125:24:-66:50') PARALLEL 4",
    )
    .unwrap();
    let meta = db.catalog().index_metadata("bg_x").unwrap();
    assert_eq!(meta.kind, sdo_storage::IndexKind::Quadtree);
    assert_eq!(meta.create_dop, 4);
    assert_eq!(meta.tiling_level, Some(6));
    assert_eq!(meta.table_name, "BG");
}

/// The one dynamic insert policy (quadratic split) and the STR bulk
/// load build different trees over the same rows; both answer alike.
#[test]
fn inserted_and_bulk_built_rtrees_answer_identically() {
    let n = 100;
    let bulk = fingerprint_with("tree_fanout=8", 1, n);
    let db = fresh_session(0);
    db.execute(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    for (i, g) in block_groups::generate(n, &US_EXTENT, 5).into_iter().enumerate() {
        db.insert_row("bg", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
    assert_eq!(query_fingerprint(&db), bulk);
}

/// `split`, `reinsert` and `index_type` are gone: a statement naming
/// one fails, and so does recovering an image that recorded one.
#[test]
fn removed_index_parameters_are_unknown() {
    let db = fresh_session(10);
    for (key, value) in [("split", "rstar"), ("reinsert", "true"), ("index_type", "RTREE")] {
        let err = db
            .execute(&format!(
                "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX \
                 PARAMETERS ('{key}={value}')"
            ))
            .unwrap_err();
        assert!(err.to_string().contains(&format!("unknown index parameter '{key}'")), "{err}");
    }
    db.execute(
        "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX PARAMETERS ('tree_fanout=8')",
    )
    .unwrap();
    // An older image's index parameters, in place (same length).
    let mut image = db.save_snapshot().to_vec();
    let at = image.windows(13).position(|w| w == b"tree_fanout=8").unwrap();
    image[at..at + 13].copy_from_slice(b"reinsert=true");
    let restored = Database::new();
    sdo_core::register_spatial(&restored);
    let err = restored.load_snapshot(&image[..]).unwrap_err();
    assert!(err.to_string().contains("unknown index parameter 'reinsert'"), "{err}");
}

// ---------------------------------------------------------------------------
// Edge cases of the parallel build stages, at every dop from 1 to 4
// ---------------------------------------------------------------------------

mod edge_cases {
    use parking_lot::RwLock;
    use sdo_core::create::{build_quadtree, build_rtree};
    use sdo_core::params::IndexKindParam;
    use sdo_core::SpatialIndexParams;
    use sdo_geom::{Geometry, LineString, Point, Polygon, Rect};
    use sdo_storage::{Counters, DataType, RowId, Schema, Snapshot, Table, Value};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    const LEVEL: u32 = 5;

    /// A table of `n` rows; row `i` holds `geom(i)` (`None` is NULL),
    /// and the rows `deleted` picks are then deleted, leaving their
    /// slots as tombstones.
    fn table(
        n: usize,
        geom: impl Fn(usize) -> Option<Geometry>,
        deleted: impl Fn(usize) -> bool,
    ) -> Arc<RwLock<Table>> {
        let mut t =
            Table::new("T", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
        for i in 0..n {
            let g = geom(i).map_or(Value::Null, Value::geometry);
            t.insert(vec![Value::Integer(i as i64), g]).unwrap();
        }
        for i in (0..n).filter(|&i| deleted(i)) {
            t.delete(RowId::new(i as u64)).unwrap();
        }
        Arc::new(RwLock::new(t))
    }

    /// Squares, points and lines spread over `[0, 100]²`.
    fn mixed(i: usize) -> Geometry {
        let (x, y) = (((i * 37) % 97) as f64, ((i * 61) % 89) as f64);
        match i % 3 {
            0 => Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + 3.0, y + 2.0))),
            1 => Geometry::Point(Point::new(x + 0.5, y + 0.5)),
            _ => Geometry::LineString(
                LineString::new(vec![Point::new(x, y), Point::new(x + 2.0, y + 4.0)]).unwrap(),
            ),
        }
    }

    /// Every row has this one MBR, so ties fall at every slice boundary.
    fn same(_: usize) -> Geometry {
        Geometry::Polygon(Polygon::from_rect(&Rect::new(40.0, 40.0, 42.0, 43.0)))
    }

    /// `(name, table)` for each edge case.
    fn cases() -> Vec<(&'static str, Arc<RwLock<Table>>)> {
        vec![
            ("every row has the same MBR", table(97, |i| Some(same(i)), |_| false)),
            ("NULL geometries", table(120, |i| (i % 3 != 1).then(|| mixed(i)), |_| false)),
            ("tombstones", table(130, |i| Some(mixed(i)), |i| i % 4 == 2 || i > 120)),
            ("one row", table(1, |i| Some(mixed(i)), |_| false)),
            ("three rows, one deleted", table(3, |i| Some(mixed(i)), |i| i == 1)),
            ("no live rows", table(5, |i| Some(mixed(i)), |_| true)),
        ]
    }

    /// The live rows' `(rowid, geometry)`, by a plain scan.
    fn rows(t: &Arc<RwLock<Table>>) -> Vec<(RowId, Geometry)> {
        let mut out = Vec::new();
        t.read().scan_range_at(0, usize::MAX, &Snapshot::LATEST, |rid, row| {
            if let Some(g) = row[1].as_geometry() {
                out.push((rid, (**g).clone()));
            }
        });
        out
    }

    fn windows() -> Vec<Rect> {
        vec![
            Rect::new(0.0, 0.0, 100.0, 100.0),
            Rect::new(10.0, 10.0, 45.0, 41.0),
            Rect::new(41.0, 42.0, 41.5, 42.5),
            Rect::new(60.0, 5.0, 99.0, 30.0),
            Rect::new(200.0, 200.0, 201.0, 201.0),
        ]
    }

    fn key(r: &Rect) -> [u64; 4] {
        [r.min_x, r.min_y, r.max_x, r.max_y].map(f64::to_bits)
    }

    #[test]
    fn rtree_holds_every_live_row_and_answers_windows_like_a_scan() {
        let params = SpatialIndexParams { tree_fanout: 4, ..Default::default() };
        for (case, t) in cases() {
            let live = rows(&t);
            let want: BTreeSet<(RowId, [u64; 4])> =
                live.iter().map(|(rid, g)| (*rid, key(&g.bbox()))).collect();
            for dop in 1..=4 {
                let ctx = format!("{case} at dop {dop}");
                let (tree, stats) =
                    build_rtree(&t, 1, &params, dop, Arc::new(Counters::new())).unwrap();
                tree.check_invariants().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                // Also with no live rows, so inserts after the build
                // split at the fanout the statement asked for.
                assert_eq!(tree.params().max_entries, 4, "{ctx}");
                assert_eq!(tree.len(), live.len(), "{ctx}");
                let got: BTreeSet<_> = tree.iter_items().map(|(r, rid)| (*rid, key(&r))).collect();
                assert_eq!(got, want, "{ctx}");
                assert_eq!(stats.stage_rows, live.len(), "{ctx}");
                assert_eq!(stats.partition_sizes.len(), dop, "{ctx}");
                let hwm = t.read().high_water_mark();
                assert_eq!(stats.partition_sizes.iter().sum::<usize>(), hwm, "{ctx}");
                for w in windows() {
                    let mut got: Vec<RowId> =
                        tree.query_window(&w).into_iter().map(|(_, rid)| rid).collect();
                    got.sort_unstable();
                    let brute: Vec<RowId> = live
                        .iter()
                        .filter(|(_, g)| g.bbox().intersects(&w))
                        .map(|(rid, _)| *rid)
                        .collect();
                    assert_eq!(got, brute, "{ctx}, window {w}");
                }
            }
        }
    }

    #[test]
    fn quadtree_holds_every_live_rows_tiles_and_answers_windows_like_a_scan() {
        let world = Rect::new(-1.0, -1.0, 101.0, 101.0);
        let params = SpatialIndexParams {
            kind: IndexKindParam::Quadtree,
            sdo_level: LEVEL,
            extent: Some(world),
            ..Default::default()
        };
        for (case, t) in cases() {
            let live = rows(&t);
            let tiles = |g: &Geometry| -> BTreeSet<u64> {
                sdo_quadtree::tessellate(g, &world, LEVEL).into_iter().map(|t| t.code).collect()
            };
            let want: BTreeSet<(u64, RowId)> = live
                .iter()
                .flat_map(|(rid, g)| tiles(g).into_iter().map(move |c| (c, *rid)))
                .collect();
            for dop in 1..=4 {
                let ctx = format!("{case} at dop {dop}");
                let (index, stats) =
                    build_quadtree(&t, 1, &params, dop, Arc::new(Counters::new())).unwrap();
                let got: BTreeSet<(u64, RowId)> = index.iter_entries().collect();
                assert_eq!(got, want, "{ctx}");
                assert_eq!(stats.stage_rows, want.len(), "{ctx}");
                assert_eq!(stats.partition_sizes.len(), dop, "{ctx}");
                for w in windows() {
                    let wg = Geometry::Polygon(Polygon::from_rect(&w));
                    let probe = tiles(&wg);
                    let brute: Vec<RowId> = live
                        .iter()
                        .filter(|(_, g)| !tiles(g).is_disjoint(&probe))
                        .map(|(rid, _)| *rid)
                        .collect();
                    assert_eq!(index.query_window(&wg), brute, "{ctx}, window {w}");
                }
            }
        }
    }
}

/// A geometry outside an explicit quadtree extent fails `CREATE INDEX`
/// at every dop, whichever slave's slot range it falls in, and leaves
/// no index behind.
#[test]
fn out_of_extent_row_fails_the_parallel_build_at_every_dop() {
    let db = fresh_session(60);
    for (at, dop) in [(0, 1), (59, 2), (30, 3), (45, 4), (7, 4)] {
        db.execute(&format!("UPDATE bg SET geom = SDO_GEOMETRY('POINT (-60 40)') WHERE id = {at}"))
            .unwrap();
        let err = db
            .execute(&format!(
                "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX \
                 PARAMETERS ('sdo_level=6, extent=-125:24:-66:50') PARALLEL {dop}"
            ))
            .unwrap_err();
        assert!(
            err.to_string().contains("outside the quadtree extent"),
            "row {at}, dop {dop}: {err}"
        );
        assert!(db.index_on("bg", "geom").is_none(), "row {at}, dop {dop}: no index left");
        db.execute(&format!(
            "UPDATE bg SET geom = SDO_GEOMETRY('POINT (-100 40)') WHERE id = {at}"
        ))
        .unwrap();
    }
}
