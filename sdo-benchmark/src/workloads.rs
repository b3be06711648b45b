//! The four workloads: what each generates, sets up, sends, expects,
//! and how its work below `execute` is replayed layer by layer.
//!
//! An *actor* is one closed-loop stream of operations: a client
//! connection, or the embedded session that replays a client's
//! operations in a traced run (actor = clients + client). Operation
//! `i` of an actor is a pure function of `(seed, actor, i)`, and so is
//! the answer it must get.

use crate::gen::{self, Poly, Rng};
use crate::json::{obj, Json};
use crate::oracle::{self, Mbr};
use crate::trace::{SpanId, Tracer};
use sdo_core::index::{QuadtreeSpatialIndex, RTreeSpatialIndex};
use sdo_core::join::{ExactPredicate, JoinSide, SpatialJoin, SpatialJoinConfig};
use sdo_core::SpatialIndexParams;
use sdo_dbms::sql::{self, Statement};
use sdo_dbms::Database;
use sdo_geom::{Geometry, PreparedGeometry, Rect, RelateMask};
use sdo_rtree::{JoinCursor, JoinPredicate, RTree, RTreeParams};
use sdo_server::wire::{req, Encoder};
use sdo_server::{serve, ServerConfig, ServerHandle};
use sdo_storage::{RowId, Value, Wal, WalRecord};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// One request as the client sends it.
#[derive(Debug, Clone)]
pub enum Stmt {
    Text(String),
    Prepared { name: String, params: Vec<Value> },
}

impl Stmt {
    /// The request frame payload `sdo_server::Client` puts on the wire
    /// for this statement.
    pub fn frame(&self) -> Vec<u8> {
        match self {
            Stmt::Text(sql) => {
                let mut e = Encoder::new(req::EXECUTE);
                e.str32(sql);
                e.finish()
            }
            Stmt::Prepared { name, params } => {
                let mut e = Encoder::new(req::EXEC_PREPARED);
                e.str16(name);
                e.u16(params.len() as u16);
                for p in params {
                    e.value(p);
                }
                e.finish()
            }
        }
    }
}

/// A running engine with the server bound in front of it.
pub struct Env {
    pub db: Arc<Database>,
    pub server: ServerHandle,
}

/// Workload sizes. `FULL` is frozen: changing it changes what every
/// recorded number means. `QUICK` only has to touch every code path.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub window_rows: usize,
    pub window_pool: usize,
    pub join_counties: usize,
    pub join_block_groups: usize,
    pub build_rtree_rows: usize,
    pub build_quadtree_rows: usize,
    pub build_quadtree_level: u32,
    pub dml_base_rows: usize,
    /// A row is updated this many transactions after its insert and
    /// deleted as many again later, so each actor keeps twice this
    /// many rows live.
    pub dml_lag: i64,
    pub vertices: (usize, usize),
}

pub const FULL: Sizes = Sizes {
    window_rows: 20_000,
    window_pool: 256,
    join_counties: 3230,
    join_block_groups: 20_000,
    build_rtree_rows: 50_000,
    build_quadtree_rows: 5_000,
    build_quadtree_level: 8,
    dml_base_rows: 4_000,
    dml_lag: 50,
    vertices: (12, 30),
};

pub const QUICK: Sizes = Sizes {
    window_rows: 1_500,
    window_pool: 32,
    join_counties: 120,
    join_block_groups: 600,
    build_rtree_rows: 2_000,
    build_quadtree_rows: 400,
    build_quadtree_level: 6,
    dml_base_rows: 300,
    dml_lag: 5,
    vertices: (12, 30),
};

impl Sizes {
    pub fn to_json(self) -> Json {
        obj([
            ("window_rows", self.window_rows.into()),
            ("window_pool", self.window_pool.into()),
            ("join_counties", self.join_counties.into()),
            ("join_block_groups", self.join_block_groups.into()),
            ("build_rtree_rows", self.build_rtree_rows.into()),
            ("build_quadtree_rows", self.build_quadtree_rows.into()),
            ("build_quadtree_level", (self.build_quadtree_level as u64).into()),
            ("dml_base_rows", self.dml_base_rows.into()),
            ("dml_lag", (self.dml_lag as u64).into()),
            ("vertices_min", self.vertices.0.into()),
            ("vertices_max", self.vertices.1.into()),
        ])
    }
}

/// Geometry tables the layer probes run on: the workload's own data,
/// cut to a size the probes can afford.
pub struct ProbeInputs<'a> {
    pub left: &'a [Poly],
    pub right: &'a [Poly],
}

/// Mutable state a replaying actor carries between operations.
#[derive(Default)]
pub struct ReplayState {
    tree: Option<RTree<RowId>>,
    wal: Option<Wal>,
}

pub trait Workload: Send + Sync {
    fn name(&self) -> &'static str;
    fn clients(&self) -> usize;
    /// FNV-1a of every generated coordinate.
    fn data_hash(&self) -> u64;
    /// Engine-side set-up: create, load, index, analyze, bind.
    fn setup(&self, scratch: &Path) -> Env;
    /// Statements every connection prepares before its first operation.
    fn prepared(&self) -> Vec<(&'static str, String)>;
    fn op(&self, actor: usize, i: u64) -> Vec<Stmt>;
    /// Is `rows` the right answer to statement `stmt` of operation `i`?
    fn check(&self, env: &Env, actor: usize, i: u64, stmt: usize, rows: &[Vec<Value>]) -> bool;
    /// Replay the work below `exec` through the layers' own functions.
    fn replay_below(&self, r: &mut Replay<'_>, stmt: usize, s: &Stmt);
    /// A whole-table check once the clients are done.
    fn verify_final(&self, _env: &Env) -> bool {
        true
    }
    fn probe_inputs(&self) -> ProbeInputs<'_>;
    /// Workload-specific facts for the record (flush policy and such).
    fn facts(&self) -> Json {
        obj([])
    }
}

/// What `replay_below` gets to work with.
pub struct Replay<'a> {
    pub env: &'a Env,
    pub tracer: &'a mut Tracer,
    /// The `exec.execute` span the replays hang under.
    pub exec: SpanId,
    pub actor: usize,
    pub i: u64,
    pub state: &'a mut ReplayState,
    pub scratch: &'a Path,
}

pub fn build(name: &str, seed: u64, sizes: Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "wire_window" => Box::new(WireWindow::generate(seed, sizes)),
        "wire_join" => Box::new(WireJoin::generate(seed, sizes)),
        "index_build" => Box::new(IndexBuild::generate(seed, sizes)),
        "wire_dml" => Box::new(WireDml::generate(seed, sizes)),
        _ => return None,
    })
}

pub const NAMES: [&str; 4] = ["wire_window", "wire_join", "index_build", "wire_dml"];

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

fn new_engine() -> Arc<Database> {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    Arc::new(db)
}

fn bind(db: Arc<Database>) -> Env {
    let server = serve(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind the server on a loopback port");
    Env { db, server }
}

/// The engine's form of generated polygons, shared: loading a row
/// clones the `Arc`, not the vertices.
pub fn geometries(polys: &[Poly]) -> Vec<Arc<Geometry>> {
    polys.iter().map(|p| Arc::new(gen::to_geometry(p))).collect()
}

/// Create `table (id, geom)` and load `rows` into it.
pub fn create_and_load<'a>(
    db: &Database,
    table: &str,
    rows: impl IntoIterator<Item = (i64, &'a Arc<Geometry>)>,
) {
    run(db, &format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)"));
    for (id, g) in rows {
        db.insert_row(table, vec![Value::Integer(id), Value::Geometry(Arc::clone(g))])
            .expect("load a generated row");
    }
}

fn run(db: &Database, sql: &str) {
    db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
}

fn with_rtree<T>(db: &Database, index: &str, f: impl FnOnce(&RTreeSpatialIndex) -> T) -> Option<T> {
    let inst = db.index_instance(index)?;
    let guard = inst.read();
    guard.as_any().downcast_ref::<RTreeSpatialIndex>().map(f)
}

fn ids_of(rows: &[Vec<Value>]) -> Option<Vec<i64>> {
    let mut ids: Vec<i64> = rows.iter().map(|r| r.first()?.as_integer()).collect::<Option<_>>()?;
    ids.sort_unstable();
    Some(ids)
}

fn one_integer(rows: &[Vec<Value>], expect: i64) -> bool {
    matches!(rows, [row] if matches!(row.as_slice(), [Value::Integer(n)] if *n == expect))
}

pub fn bbox_of(p: &Poly) -> Rect {
    let m = oracle::mbr(p);
    Rect::new(m[0], m[1], m[2], m[3])
}

/// `EXPLAIN` of a parsed (and bound) SELECT: the planner alone.
fn plan_only(db: &Database, stmt: &Statement) {
    if let Statement::Select(sel) = stmt {
        sdo_dbms::exec::execute(db, &Statement::Explain(sel.clone())).expect("EXPLAIN");
    }
}

/// A window query replayed below the executor: index probe, heap
/// fetch of the candidates, exact test of each.
fn replay_window(r: &mut Replay<'_>, index: &str, window: &Arc<Geometry>) {
    let db = Arc::clone(&r.env.db);
    with_rtree(&db, index, |rt| {
        let bbox = window.bbox();
        let (_, cands) =
            r.tracer.child("rtree.primary_filter", r.exec, || rt.tree().read().query_window(&bbox));
        let col = rt.geometry_column();
        let (_, geoms) = r.tracer.child("heap.fetch", r.exec, || {
            let table = rt.table().read();
            cands
                .iter()
                .filter_map(|(_, rid)| table.get(*rid).ok()?[col].as_geometry().cloned())
                .collect::<Vec<_>>()
        });
        r.tracer.child("geom.exact_filter", r.exec, || {
            let w = PreparedGeometry::from_arc(Arc::clone(window));
            geoms
                .into_iter()
                .filter(|g| {
                    PreparedGeometry::from_arc(Arc::clone(g)).relate(&w, RelateMask::AnyInteract)
                })
                .count()
        });
    });
}

// ---------------------------------------------------------------------------
// wire_window
// ---------------------------------------------------------------------------

const WINDOW_SQL: &str =
    "SELECT id, geom FROM bg WHERE SDO_RELATE(geom, ?, 'ANYINTERACT') = 'TRUE'";

pub struct WireWindow {
    seed: u64,
    bg: Vec<Poly>,
    geoms: Vec<Arc<Geometry>>,
    windows: Vec<Arc<Geometry>>,
    answers: Vec<Vec<i64>>,
    select: Statement,
}

impl WireWindow {
    fn generate(seed: u64, sizes: Sizes) -> Self {
        let mut rng = Rng::new(seed);
        let bg = gen::block_groups(sizes.window_rows, sizes.vertices, &mut rng);
        let mbrs: Vec<Mbr> = bg.iter().map(oracle::mbr).collect();
        // Three cell widths across: a few dozen rows per window.
        let side = (gen::EXTENT.area() / sizes.window_rows as f64).sqrt() * 3.0;
        let pool: Vec<Poly> = (0..sizes.window_pool)
            .map(|_| gen::rect_poly(&gen::window(&gen::EXTENT, side, &mut rng)))
            .collect();
        WireWindow {
            seed,
            geoms: geometries(&bg),
            answers: pool.iter().map(|w| oracle::window_hits(&bg, &mbrs, w)).collect(),
            windows: pool.iter().map(|w| Arc::new(gen::to_geometry(w))).collect(),
            bg,
            select: sql::parse(WINDOW_SQL).expect("window statement parses"),
        }
    }

    fn pick(&self, actor: usize, i: u64) -> usize {
        Rng::stream(self.seed, (actor as u64) << 40 | i).below(self.windows.len())
    }
}

impl Workload for WireWindow {
    fn name(&self) -> &'static str {
        "wire_window"
    }
    fn clients(&self) -> usize {
        2
    }
    fn data_hash(&self) -> u64 {
        gen::data_hash(&[&self.bg])
    }
    fn setup(&self, _scratch: &Path) -> Env {
        let db = new_engine();
        create_and_load(&db, "bg", (0..).zip(&self.geoms));
        run(&db, "CREATE INDEX bg_sidx ON bg(geom) INDEXTYPE IS SPATIAL_INDEX");
        run(&db, "ANALYZE TABLE bg");
        bind(db)
    }
    fn prepared(&self) -> Vec<(&'static str, String)> {
        vec![("w", WINDOW_SQL.into())]
    }
    fn op(&self, actor: usize, i: u64) -> Vec<Stmt> {
        let w = Arc::clone(&self.windows[self.pick(actor, i)]);
        vec![Stmt::Prepared { name: "w".into(), params: vec![Value::Geometry(w)] }]
    }
    fn check(&self, _env: &Env, actor: usize, i: u64, _stmt: usize, rows: &[Vec<Value>]) -> bool {
        // The right ids, and every geometry back vertex for vertex
        // after its trip through WKT.
        ids_of(rows).as_ref() == Some(&self.answers[self.pick(actor, i)])
            && rows.iter().all(|r| {
                let id = r[0].as_integer().unwrap_or(-1);
                matches!((r.get(1).and_then(Value::as_geometry), self.geoms.get(id as usize)),
                    (Some(got), Some(want)) if **got == **want)
            })
    }
    fn replay_below(&self, r: &mut Replay<'_>, _stmt: usize, s: &Stmt) {
        let Stmt::Prepared { params, .. } = s else { return };
        let db = Arc::clone(&r.env.db);
        r.tracer.child("sql.plan", r.exec, || {
            plan_only(&db, &sql::bind_statement(&self.select, params).expect("bind"))
        });
        let window = Arc::clone(params[0].as_geometry().expect("window parameter"));
        replay_window(r, "bg_sidx", &window);
    }
    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs { left: &self.bg[..self.bg.len().min(2000)], right: &self.bg }
    }
}

// ---------------------------------------------------------------------------
// wire_join
// ---------------------------------------------------------------------------

const JOIN_SQL: &str = "SELECT COUNT(*) FROM TABLE(\
     SPATIAL_JOIN('counties', 'geom', 'bg', 'geom', 'ANYINTERACT', 2))";

pub struct WireJoin {
    counties: Vec<Poly>,
    bg: Vec<Poly>,
    county_geoms: Vec<Arc<Geometry>>,
    bg_geoms: Vec<Arc<Geometry>>,
    answer: oracle::JoinAnswer,
}

impl WireJoin {
    fn generate(seed: u64, sizes: Sizes) -> Self {
        let mut rng = Rng::new(seed);
        let counties = gen::counties(sizes.join_counties, &mut rng);
        let bg = gen::block_groups(sizes.join_block_groups, sizes.vertices, &mut rng);
        let answer = oracle::join_answer(&counties, &bg);
        WireJoin {
            county_geoms: geometries(&counties),
            bg_geoms: geometries(&bg),
            counties,
            bg,
            answer,
        }
    }
}

pub fn join_side(db: &Database, index: &str) -> JoinSide {
    with_rtree(db, index, |rt| JoinSide {
        table: Arc::clone(rt.table()),
        column: rt.geometry_column(),
        tree: rt.tree_snapshot(),
    })
    .expect("R-tree index present")
}

impl Workload for WireJoin {
    fn name(&self) -> &'static str {
        "wire_join"
    }
    fn clients(&self) -> usize {
        1
    }
    fn data_hash(&self) -> u64 {
        gen::data_hash(&[&self.counties, &self.bg])
    }
    fn setup(&self, _scratch: &Path) -> Env {
        let db = new_engine();
        create_and_load(&db, "counties", (0..).zip(&self.county_geoms));
        create_and_load(&db, "bg", (0..).zip(&self.bg_geoms));
        run(&db, "CREATE INDEX counties_sidx ON counties(geom) INDEXTYPE IS SPATIAL_INDEX");
        run(&db, "CREATE INDEX bg_sidx ON bg(geom) INDEXTYPE IS SPATIAL_INDEX");
        run(&db, "ANALYZE TABLE counties");
        run(&db, "ANALYZE TABLE bg");
        bind(db)
    }
    fn prepared(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
    fn op(&self, _actor: usize, _i: u64) -> Vec<Stmt> {
        vec![Stmt::Text(JOIN_SQL.into())]
    }
    fn check(&self, _env: &Env, _actor: usize, _i: u64, _stmt: usize, rows: &[Vec<Value>]) -> bool {
        one_integer(rows, self.answer.exact_pairs as i64)
    }
    fn replay_below(&self, r: &mut Replay<'_>, _stmt: usize, s: &Stmt) {
        let Stmt::Text(text) = s else { return };
        let db = Arc::clone(&r.env.db);
        let (_, parsed) = r.tracer.child("sql.parse", r.exec, || sql::parse(text).expect("parse"));
        r.tracer.child("sql.plan", r.exec, || plan_only(&db, &parsed));
        // The per-join copy of both R-trees the table function takes.
        let (_, (left, right)) = r.tracer.child("core.snapshot_trees", r.exec, || {
            (join_side(&db, "counties_sidx"), join_side(&db, "bg_sidx"))
        });
        let (ltree, rtree) = (Arc::clone(&left.tree), Arc::clone(&right.tree));
        let (ltable, rtable, lcol, rcol) =
            (Arc::clone(&left.table), Arc::clone(&right.table), left.column, right.column);
        let exact = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
        let (join, _) = r.tracer.child("core.spatial_join", r.exec, || {
            let mut j = SpatialJoin::new(
                left,
                right,
                exact,
                SpatialJoinConfig::default(),
                Arc::clone(db.counters()),
            );
            sdo_tablefunc::collect_all(&mut j, 4096).expect("serial join").len()
        });
        let (_, cands) = r.tracer.child("rtree.primary_filter", join, || {
            JoinCursor::new(&*ltree, &*rtree, JoinPredicate::Intersects).collect_all()
        });
        let (_, geoms) = r.tracer.child("heap.fetch", join, || {
            let fetch = |table: &sdo_storage::Table, col: usize, rid: RowId| {
                table.get(rid).ok().and_then(|row| row[col].as_geometry().cloned())
            };
            let (lt, rt) = (ltable.read(), rtable.read());
            let mut l: HashMap<RowId, Arc<Geometry>> = HashMap::new();
            let mut rr: HashMap<RowId, Arc<Geometry>> = HashMap::new();
            for (_, a, _, b) in &cands {
                l.entry(*a).or_insert_with(|| fetch(&lt, lcol, *a).expect("left row"));
                rr.entry(*b).or_insert_with(|| fetch(&rt, rcol, *b).expect("right row"));
            }
            (l, rr)
        });
        r.tracer.child("geom.exact_filter", join, || {
            let prepare = |m: HashMap<RowId, Arc<Geometry>>| -> HashMap<RowId, PreparedGeometry> {
                m.into_iter().map(|(k, g)| (k, PreparedGeometry::from_arc(g))).collect()
            };
            let (l, rr) = (prepare(geoms.0), prepare(geoms.1));
            cands.iter().filter(|(_, a, _, b)| l[a].relate(&rr[b], RelateMask::AnyInteract)).count()
        });
    }
    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs { left: &self.counties, right: &self.bg }
    }
    fn facts(&self) -> Json {
        obj([
            ("oracle_mbr_pairs", self.answer.mbr_pairs.into()),
            ("oracle_exact_pairs", self.answer.exact_pairs.into()),
        ])
    }
}

// ---------------------------------------------------------------------------
// index_build
// ---------------------------------------------------------------------------

pub struct IndexBuild {
    bg: Vec<Poly>,
    geoms: Vec<Arc<Geometry>>,
    slice_rows: usize,
    level: u32,
    /// Tile rows a quadtree over the slice must hold, by brute force.
    tile_rows: usize,
}

impl IndexBuild {
    fn generate(seed: u64, sizes: Sizes) -> Self {
        let mut rng = Rng::new(seed);
        let bg = gen::block_groups(sizes.build_rtree_rows, sizes.vertices, &mut rng);
        let (slice_rows, level) =
            (sizes.build_quadtree_rows.min(bg.len()), sizes.build_quadtree_level);
        let tile_rows = bg[..slice_rows].iter().map(|p| tiles_touched(p, level)).sum();
        IndexBuild { geoms: geometries(&bg), bg, slice_rows, level, tile_rows }
    }

    fn statements(&self) -> [String; 4] {
        let e = gen::EXTENT;
        [
            "CREATE INDEX bg_r ON bg(geom) INDEXTYPE IS SPATIAL_INDEX PARALLEL 2".into(),
            "DROP INDEX bg_r".into(),
            format!(
                "CREATE INDEX slice_q ON bg_slice(geom) INDEXTYPE IS SPATIAL_INDEX \
                 PARAMETERS ('sdo_level={}, extent={}:{}:{}:{}') PARALLEL 2",
                self.level, e.min_x, e.min_y, e.max_x, e.max_y
            ),
            "DROP INDEX slice_q".into(),
        ]
    }
}

/// Level-`level` tiles of [`gen::EXTENT`] that `p` interacts with.
fn tiles_touched(p: &Poly, level: u32) -> usize {
    let n = (1u64 << level) as f64;
    let (w, h) = (gen::EXTENT.width() / n, gen::EXTENT.height() / n);
    let m = oracle::mbr(p);
    let cell = |v: f64, origin: f64, size: f64| {
        (((v - origin) / size).floor().max(0.0) as u64).min(n as u64 - 1)
    };
    let (x0, x1) = (cell(m[0], gen::EXTENT.min_x, w), cell(m[2], gen::EXTENT.min_x, w));
    let (y0, y1) = (cell(m[1], gen::EXTENT.min_y, h), cell(m[3], gen::EXTENT.min_y, h));
    let mut count = 0;
    for x in x0..=x1 {
        for y in y0..=y1 {
            let tile = Rect::new(
                gen::EXTENT.min_x + x as f64 * w,
                gen::EXTENT.min_y + y as f64 * h,
                gen::EXTENT.min_x + (x + 1) as f64 * w,
                gen::EXTENT.min_y + (y + 1) as f64 * h,
            );
            count += usize::from(oracle::any_interact(p, &gen::rect_poly(&tile)));
        }
    }
    count
}

impl Workload for IndexBuild {
    fn name(&self) -> &'static str {
        "index_build"
    }
    fn clients(&self) -> usize {
        1
    }
    fn data_hash(&self) -> u64 {
        gen::data_hash(&[&self.bg])
    }
    fn setup(&self, _scratch: &Path) -> Env {
        let db = new_engine();
        create_and_load(&db, "bg", (0..).zip(&self.geoms));
        create_and_load(&db, "bg_slice", (0..).zip(&self.geoms[..self.slice_rows]));
        bind(db)
    }
    fn prepared(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
    fn op(&self, _actor: usize, _i: u64) -> Vec<Stmt> {
        self.statements().into_iter().map(Stmt::Text).collect()
    }
    fn check(&self, env: &Env, _actor: usize, _i: u64, stmt: usize, _rows: &[Vec<Value>]) -> bool {
        let db = &env.db;
        match stmt {
            0 => with_rtree(db, "bg_r", |rt| rt.tree().read().len()) == Some(self.bg.len()),
            2 => db.index_instance("slice_q").is_some_and(|inst| {
                let guard = inst.read();
                guard.as_any().downcast_ref::<QuadtreeSpatialIndex>().is_some_and(|q| {
                    let idx = q.index().read();
                    idx.len() == self.slice_rows && idx.tile_entries() == self.tile_rows
                })
            }),
            _ => db.index_instance("bg_r").is_none() && db.index_instance("slice_q").is_none(),
        }
    }
    fn replay_below(&self, r: &mut Replay<'_>, stmt: usize, s: &Stmt) {
        let Stmt::Text(text) = s else { return };
        let db = Arc::clone(&r.env.db);
        r.tracer.child("sql.parse", r.exec, || sql::parse(text).expect("parse"));
        let column = 1;
        match stmt {
            0 => {
                let table = db.table("bg").expect("bg");
                let params = SpatialIndexParams::default();
                let (build, _) = r.tracer.child("core.build_rtree", r.exec, || {
                    sdo_core::create::build_rtree(
                        &table,
                        column,
                        &params,
                        2,
                        Arc::clone(db.counters()),
                    )
                    .expect("build_rtree")
                    .0
                    .len()
                });
                let (_, items) = r.tracer.child("geom.bbox", build, || {
                    let t = table.read();
                    t.scan()
                        .filter_map(|(rid, row)| Some((row[column].as_geometry()?.bbox(), rid)))
                        .collect::<Vec<_>>()
                });
                r.tracer.child("rtree.bulk_load", build, || {
                    RTree::bulk_load(items, RTreeParams::with_fanout(params.tree_fanout)).len()
                });
            }
            2 => {
                let table = db.table("bg_slice").expect("bg_slice");
                let params = SpatialIndexParams {
                    sdo_level: self.level,
                    extent: Some(gen::EXTENT),
                    ..SpatialIndexParams::default()
                };
                let (build, _) = r.tracer.child("core.build_quadtree", r.exec, || {
                    sdo_core::create::build_quadtree(
                        &table,
                        column,
                        &params,
                        2,
                        Arc::clone(db.counters()),
                    )
                    .expect("build_quadtree")
                    .0
                    .len()
                });
                r.tracer.child("quadtree.tessellate", build, || {
                    let t = table.read();
                    t.scan()
                        .filter_map(|(_, row)| {
                            Some(
                                sdo_quadtree::tessellate(
                                    row[column].as_geometry()?,
                                    &gen::EXTENT,
                                    self.level,
                                )
                                .len(),
                            )
                        })
                        .sum::<usize>()
                });
            }
            _ => {}
        }
    }
    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            left: &self.bg[..self.slice_rows.min(2000)],
            right: &self.bg[..self.bg.len().min(20_000)],
        }
    }
    fn facts(&self) -> Json {
        obj([("oracle_quadtree_tile_rows", self.tile_rows.into())])
    }
}

// ---------------------------------------------------------------------------
// wire_dml
// ---------------------------------------------------------------------------

/// Actors the table is laid out for: two clients and their two
/// replaying sessions. Each owns an id range and a vertical strip of
/// the extent, so no two ever touch the same row (first-updater-wins
/// never fires) and an actor's window sees only the static base rows
/// and its own.
const DML_ACTORS: usize = 4;
const DML_SELECT: &str = "SELECT id FROM parcels WHERE SDO_RELATE(geom, ?, 'ANYINTERACT') = 'TRUE'";

pub struct WireDml {
    seed: u64,
    base: Vec<Poly>,
    base_mbrs: Vec<Mbr>,
    /// What set-up loads: the static rows, then every actor's rows
    /// live before its first transaction, as `(id, geometry)`.
    initial: Vec<(i64, Arc<Geometry>)>,
    lag: i64,
    select: Statement,
}

#[derive(Clone, Copy)]
enum Draw {
    Inserted = 1,
    Updated = 2,
    Window = 3,
}

impl WireDml {
    fn generate(seed: u64, sizes: Sizes) -> Self {
        let base = gen::block_groups(sizes.dml_base_rows, sizes.vertices, &mut Rng::new(seed));
        let mut w = WireDml {
            seed,
            base_mbrs: base.iter().map(oracle::mbr).collect(),
            base,
            initial: Vec::new(),
            lag: sizes.dml_lag,
            select: sql::parse(DML_SELECT).expect("select parses"),
        };
        w.initial = (0..).zip(geometries(&w.base)).collect();
        for actor in 0..DML_ACTORS {
            for j in -2 * w.lag..0 {
                let g = gen::to_geometry(&w.live_geom(actor, j, -1));
                w.initial.push((w.id(actor, j), Arc::new(g)));
            }
        }
        w
    }

    fn strip(actor: usize) -> Rect {
        let w = gen::EXTENT.width() / DML_ACTORS as f64;
        let x = gen::EXTENT.min_x + actor as f64 * w;
        Rect::new(x + 1.0, gen::EXTENT.min_y + 1.0, x + w - 1.0, gen::EXTENT.max_y - 1.0)
    }

    /// The square drawn for `(actor, j, what)`: a parcel's geometry as
    /// inserted or as updated, or transaction `j`'s query window.
    fn square(&self, actor: usize, j: i64, what: Draw) -> Poly {
        let key = ((actor as u64) << 48) | ((what as u64) << 44) | (j + (1 << 40)) as u64;
        let side = if matches!(what, Draw::Window) { 30.0 } else { 4.0 };
        gen::rect_poly(&gen::window(&Self::strip(actor), side, &mut Rng::stream(self.seed, key)))
    }

    fn id(&self, actor: usize, j: i64) -> i64 {
        (actor as i64 + 1) * 100_000_000 + j + 2 * self.lag
    }

    /// Row `j`'s geometry once transaction `i` has done its writes.
    fn live_geom(&self, actor: usize, j: i64, i: i64) -> Poly {
        self.square(actor, j, if j <= i - self.lag { Draw::Updated } else { Draw::Inserted })
    }

    fn expected_select(&self, actor: usize, i: i64) -> Vec<i64> {
        let w = self.square(actor, i, Draw::Window);
        let mut ids = oracle::window_hits(&self.base, &self.base_mbrs, &w);
        ids.extend(
            (i - 2 * self.lag + 1..=i)
                .filter(|j| oracle::any_interact(&self.live_geom(actor, *j, i), &w))
                .map(|j| self.id(actor, j)),
        );
        ids.sort_unstable();
        ids
    }
}

fn geom_value(p: &Poly) -> Value {
    Value::geometry(gen::to_geometry(p))
}

impl Workload for WireDml {
    fn name(&self) -> &'static str {
        "wire_dml"
    }
    fn clients(&self) -> usize {
        2
    }
    fn data_hash(&self) -> u64 {
        gen::data_hash(&[&self.base])
    }
    fn setup(&self, scratch: &Path) -> Env {
        let dir = scratch.join("db");
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(&dir).expect("open a durable database");
        sdo_core::register_spatial(&db);
        // Load at OS-buffer speed, then checkpoint; the sessions the
        // server opens keep the engine default, durability = fsync.
        db.set_option("durability", "buffered").expect("load unsynced");
        create_and_load(&db, "parcels", self.initial.iter().map(|(id, g)| (*id, g)));
        run(&db, "CREATE INDEX parcels_sidx ON parcels(geom) INDEXTYPE IS SPATIAL_INDEX");
        run(&db, "ANALYZE TABLE parcels");
        db.checkpoint().expect("checkpoint after load");
        bind(Arc::new(db))
    }
    fn prepared(&self) -> Vec<(&'static str, String)> {
        vec![
            ("ins", "INSERT INTO parcels VALUES (?, ?)".into()),
            ("upd", "UPDATE parcels SET geom = ? WHERE id = ?".into()),
            ("del", "DELETE FROM parcels WHERE id = ?".into()),
            ("sel", DML_SELECT.into()),
        ]
    }
    fn op(&self, actor: usize, i: u64) -> Vec<Stmt> {
        let i = i as i64;
        let id = |j| Value::Integer(self.id(actor, j));
        vec![
            Stmt::Text("BEGIN".into()),
            Stmt::Prepared {
                name: "ins".into(),
                params: vec![id(i), geom_value(&self.square(actor, i, Draw::Inserted))],
            },
            Stmt::Prepared {
                name: "upd".into(),
                params: vec![
                    geom_value(&self.square(actor, i - self.lag, Draw::Updated)),
                    id(i - self.lag),
                ],
            },
            Stmt::Prepared { name: "del".into(), params: vec![id(i - 2 * self.lag)] },
            Stmt::Prepared {
                name: "sel".into(),
                params: vec![geom_value(&self.square(actor, i, Draw::Window))],
            },
            Stmt::Text("COMMIT".into()),
        ]
    }
    fn check(&self, _env: &Env, actor: usize, i: u64, stmt: usize, rows: &[Vec<Value>]) -> bool {
        match stmt {
            // Exactly the one row the model says exists.
            2 | 3 => one_integer(rows, 1),
            4 => ids_of(rows) == Some(self.expected_select(actor, i as i64)),
            _ => rows.is_empty(),
        }
    }
    fn replay_below(&self, r: &mut Replay<'_>, stmt: usize, s: &Stmt) {
        let db = Arc::clone(&r.env.db);
        let (actor, i, exec) = (r.actor, r.i as i64, r.exec);
        // A private R-tree and log stand in for the live ones, which
        // the replayed statement itself has just changed.
        let tree = r.state.tree.get_or_insert_with(|| {
            let live = (0..DML_ACTORS).flat_map(|a| (-2 * self.lag..0).map(move |j| (a, j)));
            let mut items: Vec<(Rect, RowId)> =
                self.base.iter().enumerate().map(|(k, p)| (bbox_of(p), RowId(k as u64))).collect();
            items.extend(
                live.map(|(a, j)| {
                    (bbox_of(&self.live_geom(a, j, -1)), RowId(self.id(a, j) as u64))
                }),
            );
            RTree::bulk_load(items, RTreeParams::default())
        });
        let wal = r.state.wal.get_or_insert_with(|| {
            let path = r.scratch.join(format!("replay-{actor}.wal"));
            let _ = std::fs::remove_file(&path);
            Wal::open(path, Arc::new(sdo_storage::Counters::new())).expect("scratch log")
        });
        let rid = |j: i64| RowId(self.id(actor, j) as u64);
        let row = |j: i64, what: Draw| {
            vec![Value::Integer(self.id(actor, j)), geom_value(&self.square(actor, j, what))]
        };
        let table = "PARCELS".to_string();
        let txid = r.i + 1;
        match stmt {
            1 => {
                let bbox = bbox_of(&self.square(actor, i, Draw::Inserted));
                r.tracer.child("rtree.insert", exec, || tree.insert(bbox, rid(i)));
                let rec =
                    WalRecord::Insert { txid, table, rid: rid(i), row: row(i, Draw::Inserted) };
                r.tracer.child("wal.append", exec, || wal.append(&rec).expect("append"));
            }
            2 => {
                let j = i - self.lag;
                let (old, new) = (
                    bbox_of(&self.square(actor, j, Draw::Inserted)),
                    bbox_of(&self.square(actor, j, Draw::Updated)),
                );
                r.tracer.child("rtree.insert", exec, || tree.insert(new, rid(j)));
                r.tracer.child("rtree.delete", exec, || tree.delete(&old, &rid(j)));
                let rec =
                    WalRecord::Update { txid, table, rid: rid(j), row: row(j, Draw::Updated) };
                r.tracer.child("wal.append", exec, || wal.append(&rec).expect("append"));
            }
            3 => {
                let j = i - 2 * self.lag;
                let old = bbox_of(&self.square(actor, j, Draw::Updated));
                r.tracer.child("rtree.delete", exec, || tree.delete(&old, &rid(j)));
                let rec = WalRecord::Delete { txid, table, rid: rid(j) };
                r.tracer.child("wal.append", exec, || wal.append(&rec).expect("append"));
            }
            4 => {
                let Stmt::Prepared { params, .. } = s else { return };
                r.tracer.child("sql.plan", exec, || {
                    plan_only(&db, &sql::bind_statement(&self.select, params).expect("bind"))
                });
                let window = Arc::clone(params[0].as_geometry().expect("window parameter"));
                replay_window(r, "parcels_sidx", &window);
            }
            5 => {
                let (_, lsn) = r.tracer.child("wal.append", exec, || {
                    wal.append(&WalRecord::Commit { txid }).expect("append")
                });
                r.tracer.child("wal.sync", exec, || wal.sync_to(lsn).expect("sync"));
            }
            _ => {}
        }
    }
    fn verify_final(&self, env: &Env) -> bool {
        // Every transaction inserts one row and deletes one.
        let live = self.base.len() as i64 + DML_ACTORS as i64 * 2 * self.lag;
        env.db.execute("SELECT COUNT(*) FROM parcels").is_ok_and(|r| r.count() == Some(live))
    }
    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs { left: &self.base[..self.base.len().min(2000)], right: &self.base }
    }
    fn facts(&self) -> Json {
        obj([
            ("durability", "fsync".into()),
            ("database_directory", "inside the checkout, on whatever file system holds it".into()),
            ("live_rows_per_actor", ((2 * self.lag) as u64).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes a client would put on the wire for the first `n`
    /// operations of every client, hashed.
    fn stream_hash(w: &dyn Workload, n: u64) -> u64 {
        let mut h = gen::Fnv::default();
        for actor in 0..w.clients() {
            for i in 0..n {
                for s in w.op(actor, i) {
                    h.write(&s.frame());
                }
            }
        }
        h.0
    }

    #[test]
    fn same_seed_same_statement_stream_and_data_other_seed_differs() {
        for name in NAMES {
            let (a, b, c) = (
                build(name, 5, QUICK).unwrap(),
                build(name, 5, QUICK).unwrap(),
                build(name, 6, QUICK).unwrap(),
            );
            assert_eq!(a.data_hash(), b.data_hash(), "{name}");
            assert_ne!(a.data_hash(), c.data_hash(), "{name}");
            assert_eq!(stream_hash(&*a, 20), stream_hash(&*b, 20), "{name}");
            // The join and the index cycle send the same text whatever
            // the seed; their data differs, checked above.
            if matches!(name, "wire_window" | "wire_dml") {
                assert_ne!(stream_hash(&*a, 20), stream_hash(&*c, 20), "{name}");
            }
        }
    }

    #[test]
    fn request_frames_are_what_the_server_decodes() {
        let w = build("wire_dml", 1, QUICK).unwrap();
        let frame = w.op(0, 0)[1].frame();
        assert_eq!(frame[0], req::EXEC_PREPARED);
        let mut e = Encoder::new(req::EXECUTE);
        e.str32("BEGIN");
        assert_eq!(w.op(0, 0)[0].frame(), e.finish());
    }

    #[test]
    fn dml_model_keeps_two_lags_of_rows_live_and_moves_them_on_update() {
        let w = WireDml::generate(9, QUICK);
        let lag = w.lag;
        // Row 0 is inserted by transaction 0, moved by transaction
        // `lag`, gone after transaction `2 lag`.
        assert_eq!(w.live_geom(0, 0, lag - 1), w.square(0, 0, Draw::Inserted));
        assert_eq!(w.live_geom(0, 0, lag), w.square(0, 0, Draw::Updated));
        assert_ne!(w.square(0, 0, Draw::Inserted), w.square(0, 0, Draw::Updated));
        // Strips keep actors apart.
        for a in 0..DML_ACTORS {
            let s = WireDml::strip(a);
            for j in -3..3 {
                assert!(s.contains_rect(&bbox_of(&w.square(a, j, Draw::Window))));
            }
        }
        assert!(!WireDml::strip(0).intersects(&WireDml::strip(1)));
    }

    #[test]
    fn quadtree_tile_oracle_matches_a_hand_count() {
        // A square covering exactly tiles (0..=1, 0..=1) at level 2
        // of the 1000 x 500 extent (tiles are 250 x 125), touching the
        // next row and column along its top and right edges.
        let p: Poly = vec![[10.0, 10.0], [500.0, 10.0], [500.0, 250.0], [10.0, 250.0]];
        assert_eq!(tiles_touched(&p, 2), 9);
        let q: Poly = vec![[10.0, 10.0], [490.0, 10.0], [490.0, 240.0], [10.0, 240.0]];
        assert_eq!(tiles_touched(&q, 2), 4);
    }
}
