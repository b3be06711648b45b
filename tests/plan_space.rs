//! Plan-space differential test. Each seeded case draws its data, each
//! table's index, the session's `parallel_dop`, the statistics and a
//! transaction state, then runs every statement family the planner and
//! the two join engines answer: spatial predicates, residual
//! comparisons over NULLs, `COUNT(*)`, `ORDER BY`/`LIMIT`,
//! `SPATIAL_JOIN` in its table, `CURSOR` and rowid-pair semijoin forms,
//! nested-loop and cartesian joins, and `UPDATE`/`DELETE`. Every answer
//! must equal a brute-force oracle over the case's model as a multiset,
//! so a duplicate row fails; an ordered answer must also equal the
//! dop-1 run tie for tie.
//!
//! The oracle has two special cases:
//! - `SDO_FILTER` through a quadtree returns at least the exact
//!   `ANYINTERACT` rows and at most the MBR-test rows: its tiles cover
//!   the geometry, not the geometry's MBR.
//! - `SDO_NN` and `ORDER BY SDO_DISTANCE(…) LIMIT k` are compared by the
//!   multiset (for `ORDER BY`, the sequence) of their k distances, so
//!   ties at the k-th distance pass.
//!
//! A failure prints the seed, the configuration, the SQL and its
//! `EXPLAIN`; a seed that once failed is pinned in [`PINNED`]. The
//! cases must reach everything [`REACH`] lists, or the test fails.
//!
//! The morsel size is process-global: every test in this binary runs
//! with 8-row morsels, so that small tables fan out.

use sdo_datagen::{counties, hotspot};
use sdo_dbms::{Database, Session};
use sdo_geom::relate::relate_any;
use sdo_geom::wkt::{parse_wkt, to_wkt};
use sdo_geom::{Geometry, Point, Polygon, Rect, RelateMask};
use sdo_storage::{RowId, Value};
use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// Seeds that once failed, by the defect they found.
const PINNED: &[(&str, u64)] = &[
    ("tree join emits a row twice after an UPDATE that keeps its R-tree entry", 0x5D0_2009),
    ("the same after an UPDATE that keeps only the geometry's MBR", 0x7000_2721),
    ("primary-only tree join emits rows its snapshot cannot see", 0x5D0_2008),
    ("a geometry function of a NULL geometry fails its statement", 0x5D0_200C),
    ("the kNN pushdown drops the rows without a geometry", 0x5D0_2213),
];

/// Generated cases per run: the debug budget, and more in release.
const CASES: u64 = if cfg!(debug_assertions) { 48 } else { 1000 };

/// What the generated cases must reach: every planner operator, as
/// `EXPLAIN` names it, every exchange site, both join engines and
/// index kinds, dop 1 and above, and both transaction states.
const REACH: &str = "op TABLE SCAN|op INDEX SCAN|op KNN SCAN|op TABLE FUNCTION SCAN|op FILTER|\
    op ROWID-PAIR SEMIJOIN|op NESTED LOOP JOIN|op INDEX PROBE|op CARTESIAN PRODUCT|op SORT|\
    op LIMIT|op AGGREGATE COUNT(*)|exchange scan|exchange sort|exchange probe|engine rtree|\
    engine partition|index rtree|index quadtree|dop 1|dop >1|autocommit|open transaction";

const TABLES: [&str; 2] = ["a", "b"];
const WORLD: Rect = Rect { min_x: 0.0, min_y: 0.0, max_x: 100.0, max_y: 100.0 };
const MASKS: [&str; 8] = [
    "ANYINTERACT",
    "INTERSECT",
    "INSIDE+COVEREDBY",
    "CONTAINS",
    "TOUCH",
    "OVERLAPBDYINTERSECT",
    "EQUAL",
    "COVERS+TOUCH",
];

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
    /// A coordinate in `[lo, hi]` on the quarter grid.
    fn quarter(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + self.unit() * (hi - lo)) * 4.0).round() / 4.0
    }
}

#[derive(Clone, Copy, Debug)]
enum Data {
    /// Points, rectangles, polygons with holes, multi-geometries, lines.
    Mixed,
    /// Points on a `g × g` grid: duplicates and distance ties.
    Grid(usize),
    /// `sdo_datagen` hotspot skew: most rows in one dense cluster.
    Hotspot,
    /// `sdo_datagen` counties: shared borders, so `TOUCH` is common.
    Counties,
}

#[derive(Clone, Copy, Debug)]
enum Index {
    None,
    /// Bulk-built `PARALLEL parallel`, or filled by inserts after an
    /// empty `CREATE INDEX`.
    RTree {
        fanout: usize,
        parallel: usize,
        filled: bool,
    },
    /// `extent` pads the world explicitly; `None` derives it from the
    /// rows, and later writes then stay inside it.
    Quadtree {
        level: u32,
        extent: Option<f64>,
        parallel: usize,
    },
}

#[derive(Clone, Copy, Debug)]
enum Stats {
    Never,
    Fresh,
    /// Analyzed, then written to.
    Stale,
}

#[derive(Debug)]
struct Config {
    data: Data,
    rows: [usize; 2],
    /// Some geometries are NULL.
    nulls: bool,
    /// Rows deleted before the index is built, leaving tombstones.
    tombstones: bool,
    index: [Index; 2],
    dop: usize,
    stats: Stats,
    /// Statements run inside `BEGIN` after the session's own writes,
    /// beside a second session that must not see them.
    txn: bool,
}

impl Config {
    fn draw(rng: &mut Rng) -> Config {
        let data = match rng.below(5) {
            0 | 1 => Data::Mixed,
            2 => Data::Grid(rng.pick(&[1, 3, 10])),
            3 => Data::Hotspot,
            _ => Data::Counties,
        };
        let mut rows = || if rng.chance(0.1) { rng.pick(&[0, 1, 3]) } else { 20 + rng.below(41) };
        let rows = [rows(), rows()];
        let index = |rng: &mut Rng| match rng.below(5) {
            0 => Index::None,
            1 | 2 => Index::RTree {
                fanout: rng.pick(&[4, 8, 16]),
                parallel: 1 + rng.below(4),
                filled: rng.chance(0.3),
            },
            _ => Index::Quadtree {
                level: 3 + rng.below(5) as u32,
                extent: rng.pick(&[None, Some(10.0), Some(60.0)]),
                parallel: 1 + rng.below(4),
            },
        };
        Config {
            data,
            rows,
            nulls: rng.chance(0.2),
            tombstones: rng.chance(0.4),
            index: [index(rng), index(rng)],
            dop: rng.pick(&[1, 2, 4]),
            stats: rng.pick(&[Stats::Never, Stats::Fresh, Stats::Stale]),
            txn: rng.chance(0.5),
        }
    }

    fn quad(&self, t: usize) -> bool {
        matches!(self.index[t], Index::Quadtree { .. })
    }

    /// The engine `SPATIAL_JOIN` over tables `l` and `r` runs.
    fn engine(&self, l: usize, r: usize) -> &'static str {
        let rtree = |t: usize| matches!(self.index[t], Index::RTree { .. });
        if rtree(l) && rtree(r) {
            "rtree"
        } else {
            "partition"
        }
    }
}

// ---------------------------------------------------------------------------
// Model and data
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Row {
    /// Known for the rows loaded before the case's SQL writes.
    rid: Option<RowId>,
    id: i64,
    name: Option<String>,
    score: Option<i64>,
    geom: Option<Geometry>,
}

impl Row {
    fn new(rng: &mut Rng, id: i64, geom: Option<Geometry>) -> Row {
        let name = rng.chance(0.8).then(|| format!("n{}", rng.below(7)));
        Row { rid: None, id, name, score: rng.chance(0.8).then(|| rng.below(12) as i64), geom }
    }

    /// `id, name, score, geom`.
    fn values(&self) -> Vec<Value> {
        vec![
            Value::Integer(self.id),
            self.name.as_deref().map_or(Value::Null, Value::from),
            self.score.map_or(Value::Null, Value::Integer),
            self.geom.clone().map_or(Value::Null, Value::geometry),
        ]
    }
}

/// The rows of tables `a` and `b` one session sees.
type Model = [Vec<Row>; 2];

fn rect_wkt(x0: f64, y0: f64, x1: f64, y1: f64) -> String {
    format!("({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0})")
}

/// One geometry inside `area`, at most `max` across.
fn shape(rng: &mut Rng, area: &Rect, max: f64) -> Geometry {
    let w = (0.5 + rng.unit() * max).min(area.width());
    let h = (0.5 + rng.unit() * max).min(area.height());
    let x = area.min_x + rng.unit() * (area.width() - w);
    let y = area.min_y + rng.unit() * (area.height() - h);
    let (x1, y1) = (x + w, y + h);
    let wkt = match if w < 0.5 || h < 0.5 { 0 } else { rng.below(8) } {
        0 => format!("POINT ({x} {y})"),
        1 | 2 => format!("POLYGON ({})", rect_wkt(x, y, x1, y1)),
        3 => {
            let hole = rect_wkt(x + w / 4.0, y + h / 4.0, x + w * 0.75, y + h * 0.75);
            format!("POLYGON ({}, {hole})", rect_wkt(x, y, x1, y1))
        }
        4 => {
            let right = rect_wkt(x + w * 2.0 / 3.0, y, x1, y1);
            format!("MULTIPOLYGON (({}), ({right}))", rect_wkt(x, y, x + w / 3.0, y1))
        }
        5 => format!("MULTIPOINT ({x} {y}, {x1} {y1})"),
        6 => format!("MULTILINESTRING (({x} {y}, {x1} {y}), ({x} {y1}, {x1} {y1}))"),
        _ => format!("LINESTRING ({x} {y}, {x1} {y1})"),
    };
    parse_wkt(&wkt).unwrap()
}

fn data(rng: &mut Rng, kind: Data, n: usize) -> Vec<Geometry> {
    let cell = |i: usize, g: usize| 100.0 * (i as f64 + 0.5) / g as f64;
    match kind {
        Data::Mixed => (0..n).map(|_| shape(rng, &WORLD, 8.0)).collect(),
        Data::Grid(g) => (0..n)
            .map(|_| Geometry::Point(Point::new(cell(rng.below(g), g), cell(rng.below(g), g))))
            .collect(),
        Data::Hotspot => hotspot::generate(n, &WORLD, 0.6, rng.next()),
        Data::Counties if n > 0 => counties::generate(n, &WORLD, rng.next()),
        Data::Counties => vec![],
    }
}

/// A new geometry for a written row inside `area`: usually near `old`,
/// so that a moved row's old and new index entries meet the same
/// partners, and sometimes NULL when `nulls`.
fn rewrite(rng: &mut Rng, old: Option<&Geometry>, area: &Rect, nulls: bool) -> Option<Geometry> {
    match old {
        Some(g) if rng.chance(0.6) => {
            let b = g.bbox().expanded(0.5);
            let (x0, y0) = (b.min_x.max(area.min_x), b.min_y.max(area.min_y));
            let r = Rect::new(x0, y0, b.max_x.min(area.max_x), b.max_y.min(area.max_y));
            Some(match r.width() > 0.0 && r.height() > 0.0 {
                true => Geometry::Polygon(Polygon::from_rect(&r)),
                false => Geometry::Point(Point::new(x0, y0)),
            })
        }
        _ if nulls && rng.chance(0.1) => None,
        _ => Some(shape(rng, area, 8.0)),
    }
}

/// A query geometry on the quarter grid, over and around the world.
fn window(rng: &mut Rng) -> Geometry {
    let (x, y) = (rng.quarter(-5.0, 90.0), rng.quarter(-5.0, 90.0));
    let (x1, y1) = (x + rng.quarter(2.0, 45.0), y + rng.quarter(2.0, 45.0));
    let wkt = match rng.below(6) {
        0 => format!("POINT ({x} {y})"),
        1 => {
            let hole =
                rect_wkt((3.0 * x + x1) / 4.0, (3.0 * y + y1) / 4.0, (x + x1) / 2.0, y1 - 1.0);
            format!("POLYGON ({}, {hole})", rect_wkt(x, y, x1, y1))
        }
        2 => format!("LINESTRING ({x} {y}, {x1} {y1})"),
        _ => format!("POLYGON ({})", rect_wkt(x, y, x1, y1)),
    };
    parse_wkt(&wkt).unwrap()
}

/// A point on a 1.25-unit grid: `Grid` data ties on distances to it.
fn grid_point(rng: &mut Rng) -> Geometry {
    Geometry::Point(Point::new(rng.quarter(0.0, 20.0) * 5.0, rng.quarter(0.0, 20.0) * 5.0))
}

fn lit(g: &Geometry) -> String {
    format!("SDO_GEOMETRY('{}')", to_wkt(g))
}

// ---------------------------------------------------------------------------
// Conjuncts and their oracle
// ---------------------------------------------------------------------------

type Keep = Rc<dyn Fn(&Row) -> bool>;

/// A WHERE conjunct over one table: its SQL, its binds, and the
/// oracle's verdict on a row. `loose` is set for `SDO_FILTER` through
/// a quadtree: the answer then holds every row `keep` passes (the
/// exact `ANYINTERACT` rows) and only rows `loose` passes (the MBR
/// test).
struct Cond {
    sql: String,
    binds: Vec<Value>,
    keep: Keep,
    loose: Option<Keep>,
}

fn on_geom(f: impl Fn(&Geometry) -> bool + 'static) -> Keep {
    Rc::new(move |r| r.geom.as_ref().is_some_and(&f))
}

fn any() -> Keep {
    Rc::new(|_| true)
}

/// A spatial operator on `col` against a drawn geometry. `quad`: the
/// column has a quadtree; `exact`: draw no `SDO_FILTER` through it.
fn spatial(rng: &mut Rng, col: &str, quad: bool, exact: bool) -> Cond {
    let w = Rc::new(window(rng));
    let g = lit(&w);
    let relate = |m: &'static str| {
        let w = Rc::clone(&w);
        on_geom(move |x| relate_any(x, &w, &RelateMask::parse_list(m).unwrap()))
    };
    let mbr = {
        let w = Rc::clone(&w);
        on_geom(move |x| x.bbox().intersects(&w.bbox()))
    };
    let (sql, keep, loose) = match rng.below(if quad && exact { 4 } else { 5 }) {
        0 | 1 => {
            let m = rng.pick(&MASKS);
            (format!("SDO_RELATE({col}, {g}, 'mask={m}')"), relate(m), None)
        }
        2 => (format!("SDO_RELATE({col}, {g}, 'ANYINTERACT')"), relate("ANYINTERACT"), None),
        3 => {
            let (d, w) = (rng.pick(&[1.5, 4.0, 10.0]), Rc::clone(&w));
            let keep = on_geom(move |x| sdo_geom::within_distance(x, &w, d));
            (format!("SDO_WITHIN_DISTANCE({col}, {g}, 'distance={d}')"), keep, None)
        }
        _ if quad => (format!("SDO_FILTER({col}, {g})"), relate("ANYINTERACT"), Some(mbr)),
        _ => (format!("SDO_FILTER({col}, {g})"), mbr, None),
    };
    Cond { sql: format!("{sql} = 'TRUE'"), binds: vec![], keep, loose }
}

/// A comparison over `id`, the nullable `name` and `score`, a function
/// of the geometry, or the ROWID of one of `rows`, with columns
/// qualified by `q`: a NULL operand fails it.
fn residual(rng: &mut Rng, q: &str, rows: &[Row]) -> Cond {
    let (c, d) = (rng.below(12) as i64, rng.below(60) as i64);
    let score = move |f: fn(i64, i64) -> bool| -> Keep {
        Rc::new(move |r| r.score.is_some_and(|s| f(s, c)))
    };
    let rids: Vec<RowId> = rows.iter().filter_map(|r| r.rid).collect();
    let (sql, binds, keep): (String, Vec<Value>, Keep) = match rng.below(10) {
        0 => (format!("{q}score < {c}"), vec![], score(|s, c| s < c)),
        1 => (format!("{q}score <> ?"), vec![Value::Integer(c)], score(|s, c| s != c)),
        2 => (format!("{q}id > {d}"), vec![], Rc::new(move |r| r.id > d)),
        3 => (format!("{q}score < {q}id"), vec![], Rc::new(|r| r.score.is_some_and(|s| s < r.id))),
        4 => {
            let keep = move |r: &Row| r.score.is_some_and(|s| s >= c) && r.id != d;
            (format!("{q}score >= {c} AND {q}id <> {d}"), vec![], Rc::new(keep))
        }
        5 => {
            let keep = |r: &Row| r.name.as_deref().is_some_and(|n| n != "n2");
            (format!("{q}name <> 'n2'"), vec![], Rc::new(keep))
        }
        6 => {
            let n = format!("n{}", c % 7);
            let bind = vec![Value::from(n.as_str())];
            (format!("{q}name = ?"), bind, Rc::new(move |r| r.name.as_ref() == Some(&n)))
        }
        7 => {
            let a = rng.quarter(0.0, 40.0);
            let keep = on_geom(move |g| g.area() > a);
            (format!("SDO_AREA({q}geom) > ?"), vec![Value::Double(a)], keep)
        }
        8 if !rids.is_empty() => {
            let rid = rng.pick(&rids);
            (format!("{q}ROWID = ?"), vec![Value::RowId(rid)], Rc::new(move |r| r.rid == Some(rid)))
        }
        _ => (format!("{q}score <= ?"), vec![Value::Integer(c)], score(|s, c| s <= c)),
    };
    Cond { sql, binds, keep, loose: None }
}

/// Conjuncts joined by `AND`: the clause, its binds, and the verdict.
fn and(conds: Vec<Cond>) -> (String, Vec<Value>, Keep) {
    let sql = conds.iter().map(|c| c.sql.as_str()).collect::<Vec<_>>().join(" AND ");
    let binds = conds.iter().flat_map(|c| c.binds.clone()).collect();
    let keeps: Vec<Keep> = conds.into_iter().map(|c| c.keep).collect();
    (sql, binds, Rc::new(move |r| keeps.iter().all(|k| k(r))))
}

fn hits<'m>(m: &'m Model, t: usize, keep: &'m Keep) -> impl Iterator<Item = &'m Row> {
    m[t].iter().filter(move |r| keep(r))
}

/// A join interaction: `SDO_RELATE` masks, a distance, or the MBR test.
#[derive(Clone, Copy)]
enum Inter {
    Masks(&'static str),
    Distance(f64),
    Filter,
}

impl Inter {
    /// `filter`: `Inter::Filter` may be drawn.
    fn draw(rng: &mut Rng, filter: bool) -> Inter {
        match rng.below(if filter { 6 } else { 5 }) {
            0 | 1 => Inter::Masks("intersect"),
            2 => Inter::Masks(rng.pick(&MASKS)),
            3 | 4 => Inter::Distance(rng.pick(&[1.0, 2.5])),
            _ => Inter::Filter,
        }
    }

    /// The `SPATIAL_JOIN` interaction argument.
    fn arg(&self) -> String {
        match self {
            Inter::Masks("intersect") => "intersect".into(),
            Inter::Masks(m) => format!("mask={m}"),
            Inter::Distance(d) => format!("distance={d}"),
            Inter::Filter => "FILTER".into(),
        }
    }

    /// The operator over `x.geom` and `y.geom`.
    fn operator(&self) -> String {
        match self {
            Inter::Masks(m) => format!("SDO_RELATE(x.geom, y.geom, 'mask={m}') = 'TRUE'"),
            Inter::Distance(d) => {
                format!("SDO_WITHIN_DISTANCE(x.geom, y.geom, 'distance={d}') = 'TRUE'")
            }
            Inter::Filter => "SDO_FILTER(x.geom, y.geom) = 'TRUE'".into(),
        }
    }

    fn holds(&self, a: &Geometry, b: &Geometry) -> bool {
        match self {
            Inter::Masks(m) => relate_any(a, b, &RelateMask::parse_list(m).unwrap()),
            Inter::Distance(d) => sdo_geom::within_distance(a, b, *d),
            Inter::Filter => a.bbox().intersects(&b.bbox()),
        }
    }
}

/// `(x.id, y.id)` for every pair of live rows `x` of table `l` and `y`
/// of table `r` the interaction joins, where `x` passes `pass[0]` and
/// `y` passes `pass[1]`.
fn pairs(m: &Model, [l, r]: [usize; 2], inter: Inter, pass: &[Keep; 2]) -> Rows {
    let mut out = Vec::new();
    for x in hits(m, l, &pass[0]) {
        for y in hits(m, r, &pass[1]) {
            if let (Some(gx), Some(gy)) = (&x.geom, &y.geom) {
                if inter.holds(gx, gy) {
                    out.push(vec![Value::Integer(x.id), Value::Integer(y.id)]);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

type Rows = Vec<Vec<Value>>;

enum Want {
    /// Exactly these rows, as a multiset.
    Rows(Rows),
    /// Exactly these rows, in this order.
    Ordered(Rows),
    /// `n` rows of this multiset (`LIMIT` without `ORDER BY`).
    Subset(Rows, usize),
    /// A set holding every row of `lo` and only rows of `hi`.
    Between(Rows, Rows),
    /// Ids of table `t` whose distances to `q` are the k smallest (or,
    /// `desc`, largest), in that order when `ordered`.
    Ranked { t: usize, q: Geometry, k: usize, desc: bool, ordered: bool },
    /// An error whose message holds this text.
    Error(&'static str),
}

type WantFn = Box<dyn Fn(&Model) -> Want>;

struct Stmt {
    sql: String,
    binds: Vec<Value>,
    /// The two result columns are rowids of these tables.
    rids: Option<[usize; 2]>,
    /// The engine its `SPATIAL_JOIN` must run.
    engine: Option<&'static str>,
    want: WantFn,
}

fn stmt(sql: String, binds: Vec<Value>, want: impl Fn(&Model) -> Want + 'static) -> Stmt {
    Stmt { sql, binds, rids: None, engine: None, want: Box::new(want) }
}

impl Stmt {
    fn join(self, rids: Option<[usize; 2]>, engine: Option<&'static str>) -> Stmt {
        Stmt { rids, engine, ..self }
    }
}

fn ids<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Rows {
    rows.into_iter().map(|r| vec![Value::Integer(r.id)]).collect()
}

/// A non-negative ORDER BY key as the engine orders it: a NULL after
/// every value; values by their bits, which order non-negative floats.
fn sort_key(v: Option<f64>) -> (bool, u64) {
    (v.is_none(), v.map_or(0, f64::to_bits))
}

fn count(n: usize) -> Rows {
    vec![vec![Value::Integer(n as i64)]]
}

/// The read statements of one case over its loaded rows `base`.
fn statements(rng: &mut Rng, cfg: &Config, base: &Model) -> Vec<Stmt> {
    let mut out = Vec::new();
    for _ in 0..2 {
        single_table(rng, cfg, base, &mut out);
        joins(rng, cfg, base, &mut out);
    }
    out
}

fn single_table(rng: &mut Rng, cfg: &Config, base: &Model, out: &mut Vec<Stmt>) {
    let t = rng.below(2);
    let (tab, quad) = (TABLES[t], cfg.quad(t));
    // Columns bare or qualified by the table's name.
    let q = if rng.chance(0.3) { format!("{tab}.") } else { String::new() };
    let residual = |rng: &mut Rng| residual(rng, &q, &base[t]);
    // A spatial operator, beside a residual unless its answer is bounded.
    let c = spatial(rng, "geom", quad, false);
    let loose = c.loose.clone();
    let mut conds = vec![c];
    if loose.is_none() && rng.chance(0.4) {
        conds.push(residual(rng));
    }
    let (w, binds, keep) = and(conds);
    out.push(stmt(format!("SELECT id FROM {tab} WHERE {w}"), binds, move |m| {
        let lo = ids(hits(m, t, &keep));
        match &loose {
            Some(hi) => Want::Between(lo, ids(hits(m, t, hi))),
            None => Want::Rows(lo),
        }
    }));

    // COUNT(*), ORDER BY id DESC LIMIT n, and LIMIT alone.
    let (w, binds, keep) = and(vec![spatial(rng, "geom", quad, true)]);
    out.push(stmt(format!("SELECT COUNT(*) FROM {tab} WHERE {w}"), binds, move |m| {
        Want::Rows(count(hits(m, t, &keep).count()))
    }));
    let (w, binds, keep) = and(vec![spatial(rng, "geom", quad, true), residual(rng)]);
    let n = 1 + rng.below(6);
    let sql = format!("SELECT id FROM {tab} WHERE {w} ORDER BY id DESC LIMIT {n}");
    out.push(stmt(sql, binds, move |m| {
        let mut hit: Vec<&Row> = hits(m, t, &keep).collect();
        hit.sort_by_key(|r| std::cmp::Reverse(r.id));
        Want::Ordered(ids(hit.into_iter().take(n)))
    }));
    let (w, binds, keep) = and(vec![spatial(rng, "geom", quad, true)]);
    let n = 1 + rng.below(5);
    out.push(stmt(format!("SELECT id FROM {tab} WHERE {w} LIMIT {n}"), binds, move |m| {
        Want::Subset(ids(hits(m, t, &keep)), n)
    }));

    // An operator compared with 'FALSE' is a residual, which a NULL
    // geometry fails; residual comparisons alone.
    let c = spatial(rng, "geom", quad, true);
    let sql = format!("SELECT id FROM {tab} WHERE {}", c.sql.replace("'TRUE'", "'FALSE'"));
    out.push(stmt(sql, vec![], move |m| {
        Want::Rows(ids(m[t].iter().filter(|r| r.geom.is_some() && !(c.keep)(r))))
    }));
    let (w, binds, keep) = and(vec![residual(rng)]);
    out.push(stmt(format!("SELECT id, name, score FROM {tab} WHERE {w}"), binds, move |m| {
        Want::Rows(hits(m, t, &keep).map(|r| r.values()[..3].to_vec()).collect())
    }));
    out.push(stmt(format!("SELECT COUNT(*) FROM {tab}"), vec![], move |m| {
        Want::Rows(count(m[t].len()))
    }));

    // SDO_NN, alone and counted.
    let (q, k) = (grid_point(rng), 1 + rng.below(8));
    let nn = format!("SDO_NN(geom, {}, {k}) = 'TRUE'", lit(&q));
    out.push(stmt(format!("SELECT COUNT(*) FROM {tab} WHERE {nn}"), vec![], move |m| {
        Want::Rows(count(k.min(m[t].iter().filter(|r| r.geom.is_some()).count())))
    }));
    out.push(stmt(format!("SELECT id FROM {tab} WHERE {nn}"), vec![], move |_| Want::Ranked {
        t,
        q: q.clone(),
        k,
        desc: false,
        ordered: false,
    }));

    // ORDER BY a computed key: distance, with ties, and area, made a
    // total order by the id. A NULL geometry has a NULL key.
    let (q, k, desc) = (grid_point(rng), 1 + rng.below(10), rng.chance(0.3));
    let dir = if desc { " DESC" } else { "" };
    let sql =
        format!("SELECT id FROM {tab} ORDER BY SDO_DISTANCE(geom, {}){dir} LIMIT {k}", lit(&q));
    out.push(stmt(sql, vec![], move |_| Want::Ranked { t, q: q.clone(), k, desc, ordered: true }));
    let (w, binds, keep) = and(vec![residual(rng)]);
    let sql =
        format!("SELECT id, SDO_AREA(geom) FROM {tab} WHERE {w} ORDER BY SDO_AREA(geom) DESC, id");
    out.push(stmt(sql, binds, move |m| {
        let area = |r: &Row| r.geom.as_ref().map(|g| g.area());
        let mut hit: Vec<&Row> = hits(m, t, &keep).collect();
        hit.sort_by_key(|r| (std::cmp::Reverse(sort_key(area(r))), r.id));
        let value = |r: &Row| area(r).map_or(Value::Null, Value::Double);
        Want::Ordered(hit.iter().map(|r| vec![Value::Integer(r.id), value(r)]).collect())
    }));

    let n = rng.below(30) as i64;
    out.push(stmt(format!("SELECT * FROM {tab} WHERE id < {n}"), vec![], move |m| {
        Want::Rows(m[t].iter().filter(|r| r.id < n).map(Row::values).collect())
    }));
}

fn joins(rng: &mut Rng, cfg: &Config, base: &Model, out: &mut Vec<Stmt>) {
    // Cartesian products: with the two-row table `s`, and an equi-join.
    let t = rng.below(2);
    let (w, binds, keep) = and(vec![spatial(rng, "x.geom", cfg.quad(t), true)]);
    out.push(stmt(
        format!("SELECT x.id, s.k FROM {} x, s WHERE {w}", TABLES[t]),
        binds,
        move |m| {
            let row = |id: i64, k: i64| vec![Value::Integer(id), Value::Integer(k)];
            Want::Rows(hits(m, t, &keep).flat_map(|r| [row(r.id, 1), row(r.id, 2)]).collect())
        },
    ));
    out.push(stmt("SELECT x.id, y.id FROM a x, b y WHERE x.id = y.id".into(), vec![], |m| {
        let b: BTreeSet<i64> = m[1].iter().map(|r| r.id).collect();
        let both = m[0].iter().filter(|r| b.contains(&r.id));
        Want::Rows(both.map(|r| vec![Value::Integer(r.id); 2]).collect())
    }));

    // A nested loop over a column-column operator, with a constant
    // operator or a residual on either side.
    let jp = Inter::draw(rng, !cfg.quad(0) && !cfg.quad(1));
    let (side, mut pass) = (rng.below(2), [any(), any()]);
    let (extra, binds) = match rng.below(3) {
        0 => (String::new(), vec![]),
        k => {
            let c = match k {
                1 => spatial(rng, ["x.geom", "y.geom"][side], cfg.quad(side), true),
                _ => residual(rng, ["x.", "y."][side], &base[side]),
            };
            pass[side] = c.keep;
            (format!(" AND {}", c.sql), c.binds)
        }
    };
    let sql = format!("SELECT x.id, y.id FROM a x, b y WHERE {}{extra}", jp.operator());
    out.push(stmt(sql, binds, move |m| Want::Rows(pairs(m, [0, 1], jp, &pass))));

    // SPATIAL_JOIN at every interaction, dop and descent level, self-
    // joins included; only the tree join takes a level.
    let (l, r) = (rng.below(2), rng.below(2));
    let (inter, dop) = (Inter::draw(rng, true), rng.pick(&[1, 2, 3, 4, 8]));
    let level = rng.chance(0.3).then(|| rng.below(3));
    let args = format!("'{}','geom','{}','geom','{}'", TABLES[l], TABLES[r], inter.arg());
    let tail = match level {
        Some(lv) => format!(", {dop}, {lv}"),
        None if rng.chance(0.2) => String::new(),
        None => format!(", {dop}"),
    };
    let engine = cfg.engine(l, r);
    let rejected = level.is_some() && engine != "rtree";
    let sql = format!("SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN({args}{tail}))");
    let s = stmt(sql, vec![], move |m| match rejected {
        true => Want::Error("need R-tree indexes"),
        false => Want::Rows(pairs(m, [l, r], inter, &[any(), any()])),
    });
    out.push(s.join(Some([l, r]), (!rejected).then_some(engine)));
    let filtered = if rng.chance(0.5) { " WHERE 1 = 1" } else { "" };
    let sql = format!("SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN({args}, {dop})){filtered}");
    let s = stmt(sql, vec![], move |m| {
        Want::Rows(count(pairs(m, [l, r], inter, &[any(), any()]).len()))
    });
    out.push(s.join(None, Some(engine)));
    // The paper's CURSOR form: subtree pairs flow in from SUBTREE_PAIRS.
    if engine == "rtree" {
        let sql = format!(
            "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN(CURSOR(SELECT lnode, rnode FROM TABLE(\
             SUBTREE_PAIRS('{}_sidx', '{}_sidx', {}, '{}'))), {args}, {dop}))",
            TABLES[l],
            TABLES[r],
            rng.below(3),
            inter.arg()
        );
        let s = stmt(sql, vec![], move |m| Want::Rows(pairs(m, [l, r], inter, &[any(), any()])));
        out.push(s.join(Some([l, r]), Some(engine)));
    }

    // The rowid-pair semijoin with extra conjuncts. A second rowid-pair
    // IN cannot be evaluated and must be rejected.
    let (l, r) = if rng.chance(0.5) { (0, 1) } else { (1, 0) };
    let inter = Inter::draw(rng, true);
    let sub = |i: Inter| {
        format!(
            "(x.rowid, y.rowid) IN (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN(\
             '{}','geom','{}','geom','{}', {dop})))",
            TABLES[l],
            TABLES[r],
            i.arg()
        )
    };
    let mut sql =
        format!("SELECT x.id, y.id FROM {} x, {} y WHERE {}", TABLES[l], TABLES[r], sub(inter));
    let (mut pass, mut binds, mut limit, mut engine) =
        ([any(), any()], vec![], None, Some(cfg.engine(l, r)));
    match rng.below(5) {
        0 => {
            sql += &format!(" AND {}", sub(Inter::draw(rng, true)));
            engine = None;
        }
        1 => {
            let c = residual(rng, "x.", &base[l]);
            sql += &format!(" AND {}", c.sql);
            (pass[0], binds) = (c.keep, c.binds);
        }
        2 => {
            let c = spatial(rng, "y.geom", cfg.quad(r), true);
            sql += &format!(" AND {}", c.sql);
            pass[1] = c.keep;
        }
        3 => {
            let n = 1 + rng.below(8);
            sql += &format!(" LIMIT {n}");
            limit = Some(n);
        }
        _ => {}
    }
    let rejected = engine.is_none();
    let s = stmt(sql, binds, move |m| match (rejected, limit) {
        (true, _) => Want::Error("rowid-pair IN must be the driving predicate"),
        (false, Some(n)) => Want::Subset(pairs(m, [l, r], inter, &pass), n),
        (false, None) => Want::Rows(pairs(m, [l, r], inter, &pass)),
    });
    out.push(s.join(None, engine));
}

// ---------------------------------------------------------------------------
// Running and checking
// ---------------------------------------------------------------------------

/// Run `st` on `s`: its rows, with rowid columns read as ids, and the
/// engine its `SPATIAL_JOIN` ran.
fn run(s: &Session, st: &Stmt) -> (Result<Rows, String>, Option<String>) {
    let res = match st.binds.is_empty() {
        true => s.execute(&st.sql),
        false => s.prepare("q", &st.sql).and_then(|_| s.execute_prepared("q", &st.binds)),
    };
    let engine = s.last_profile().and_then(|p| {
        p.root.walk().into_iter().find_map(|(_, n)| {
            n.attrs.iter().find(|(k, _)| k == "method_chosen").map(|(_, v)| v.clone())
        })
    });
    let rows = res.map_err(|e| e.to_string()).and_then(|r| match st.rids {
        Some(tabs) => as_ids(s, r.rows, tabs),
        None => Ok(r.rows),
    });
    (rows, engine)
}

fn as_ids(s: &Session, mut rows: Rows, tabs: [usize; 2]) -> Result<Rows, String> {
    let maps = tabs.map(|t| {
        let all = s.execute(&format!("SELECT ROWID, id FROM {}", TABLES[t])).unwrap().rows;
        all.iter().map(|r| (r[0].as_rowid().unwrap(), r[1].clone())).collect::<HashMap<RowId, _>>()
    });
    for row in &mut rows {
        for (c, map) in maps.iter().enumerate() {
            let rid = row[c].as_rowid().ok_or("a rowid column holds a non-rowid")?;
            row[c] = map.get(&rid).ok_or(format!("{rid:?} is no live row"))?.clone();
        }
    }
    Ok(rows)
}

fn sorted(rows: &Rows) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    keys.sort();
    keys
}

/// Is `sub` a sub-multiset of `of`? Both are sorted.
fn within(sub: &[String], of: &[String]) -> bool {
    let mut of = of.iter().peekable();
    sub.iter().all(|k| {
        while of.next_if(|o| *o < k).is_some() {}
        of.next_if(|o| *o == k).is_some()
    })
}

fn verdict(got: &Result<Rows, String>, want: &Want, m: &Model) -> Result<(), String> {
    let rows = match (got, want) {
        (Err(e), Want::Error(msg)) if e.contains(msg) => return Ok(()),
        (Err(e), _) => return Err(format!("error: {e}")),
        (Ok(rows), Want::Error(msg)) => return Err(format!("{} rows, want '{msg}'", rows.len())),
        (Ok(rows), _) => rows,
    };
    let ok = match want {
        Want::Rows(w) => sorted(rows) == sorted(w),
        Want::Ordered(w) => rows == w,
        Want::Subset(w, n) => rows.len() == (*n).min(w.len()) && within(&sorted(rows), &sorted(w)),
        Want::Between(lo, hi) => {
            let got = sorted(rows);
            let dup = got.windows(2).any(|p| p[0] == p[1]);
            !dup && within(&sorted(lo), &got) && within(&got, &sorted(hi))
        }
        Want::Ranked { t, q, k, desc, ordered } => {
            let key = |r: &Row| sort_key(r.geom.as_ref().map(|g| sdo_geom::distance(g, q)));
            // SDO_NN ranks only the rows that have a geometry.
            let mut want: Vec<_> =
                m[*t].iter().filter(|r| *ordered || r.geom.is_some()).map(key).collect();
            want.sort_unstable();
            if *desc {
                want.reverse();
            }
            want.truncate(*k);
            let by_id: HashMap<i64, &Row> = m[*t].iter().map(|r| (r.id, r)).collect();
            let ids: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap_or(-1)).collect();
            let mut got: Vec<_> =
                ids.iter().filter_map(|id| by_id.get(id).map(|r| key(r))).collect();
            if !ordered {
                got.sort_unstable();
            }
            let distinct = ids.iter().collect::<BTreeSet<_>>().len() == ids.len();
            if got != want || got.len() != ids.len() || !distinct {
                let dist = |k: &[(bool, u64)]| {
                    k.iter().map(|k| (!k.0).then(|| f64::from_bits(k.1))).collect::<Vec<_>>()
                };
                return Err(format!("ids {ids:?} at {:?}, want {:?}", dist(&got), dist(&want)));
            }
            true
        }
        Want::Error(_) => unreachable!(),
    };
    let shown = match want {
        _ if ok => return Ok(()),
        Want::Rows(w) | Want::Ordered(w) | Want::Subset(w, _) => format!("{:?}", sorted(w)),
        Want::Between(lo, hi) => format!("between {:?} and {:?}", sorted(lo), sorted(hi)),
        _ => unreachable!(),
    };
    Err(format!("got  {:?}\nwant {shown}", sorted(rows)))
}

/// What the generated cases reached, in [`REACH`]'s terms.
#[derive(Default)]
struct Coverage(BTreeSet<String>);

impl Coverage {
    fn note(&mut self, what: impl Into<String>) {
        self.0.insert(what.into());
    }

    /// The operators and exchange sites of one `EXPLAIN`.
    fn plan(&mut self, plan: &[String]) {
        for (i, line) in plan.iter().map(|l| l.trim_start()).enumerate() {
            let mut ops = REACH.split('|').filter_map(|k| k.strip_prefix("op "));
            if let Some(op) = ops.find(|op| line.starts_with(&format!("{op} "))) {
                self.note(format!("op {op}"));
            }
            if line.starts_with("EXCHANGE ") {
                let child = plan.get(i + 1).map_or("", |c| c.trim_start());
                let site = match child.split(' ').next() {
                    Some("SORT") => "sort",
                    Some("ROWID-PAIR" | "FILTER") => "probe",
                    _ => "scan",
                };
                self.note(format!("exchange {site}"));
            }
        }
    }

    fn assert_complete(&self) {
        let missed: Vec<&str> = REACH.split('|').filter(|w| !self.0.contains(*w)).collect();
        assert!(missed.is_empty(), "the generated cases never reached {missed:?}");
    }
}

/// One generated case: its configuration and database.
struct Case {
    seed: u64,
    cfg: Config,
    rng: Rng,
    db: Arc<Database>,
    /// Where each table's later writes may land: inside a derived
    /// quadtree extent.
    bounds: [Rect; 2],
    next_id: i64,
}

impl Case {
    /// The case's database, loaded and indexed, and its model.
    fn new(seed: u64) -> (Case, Model) {
        let mut rng = Rng(seed);
        let mut cfg = Config::draw(&mut rng);
        let db = Arc::new(Database::new());
        sdo_core::register_spatial(&db);
        for sql in
            ["CREATE TABLE s (k NUMBER)", "INSERT INTO s VALUES (1)", "INSERT INTO s VALUES (2)"]
        {
            db.execute(sql).unwrap();
        }
        let (mut model, mut bounds): (Model, _) = ([vec![], vec![]], [WORLD; 2]);
        for t in 0..2 {
            let tab = TABLES[t];
            db.execute(&format!(
                "CREATE TABLE {tab} (id NUMBER, name VARCHAR2, score NUMBER, geom SDO_GEOMETRY)"
            ))
            .unwrap();
            let filled = matches!(cfg.index[t], Index::RTree { filled: true, .. });
            if filled {
                create_index(&db, t, cfg.index[t]);
            }
            for (i, g) in data(&mut rng, cfg.data, cfg.rows[t]).into_iter().enumerate() {
                let geom = (!cfg.nulls || rng.chance(0.85)).then_some(g);
                let mut row = Row::new(&mut rng, i as i64, geom);
                row.rid = Some(db.insert_row(tab, row.values()).unwrap());
                model[t].push(row);
            }
            if cfg.tombstones {
                for id in (0..cfg.rows[t] as i64).filter(|i| i % 7 == 3) {
                    db.execute(&format!("DELETE FROM {tab} WHERE id = {id}")).unwrap();
                }
                model[t].retain(|r| r.id % 7 != 3);
            }
            if let Index::Quadtree { extent: extent @ None, .. } = &mut cfg.index[t] {
                let geoms = model[t].iter().filter_map(|r| r.geom.as_ref());
                let bb = geoms.fold(Rect::EMPTY, |b, g| b.union(&g.bbox()));
                match bb.width() > 1.0 && bb.height() > 1.0 {
                    true => bounds[t] = bb,
                    false => *extent = Some(10.0),
                }
            }
            if !filled {
                create_index(&db, t, cfg.index[t]);
            }
        }
        if !matches!(cfg.stats, Stats::Never) {
            for tab in TABLES {
                db.execute(&format!("ANALYZE TABLE {tab}")).unwrap();
            }
        }
        (Case { seed, cfg, rng, db, bounds, next_id: 1000 }, model)
    }

    fn fail(&self, s: &Session, phase: &str, st: &Stmt, msg: &str) -> ! {
        let plan = match st.binds.is_empty() {
            true => explain(s, &st.sql).join("\n"),
            false => "(not shown for a statement with binds)".into(),
        };
        panic!(
            "seed {:#x} ({phase})\nconfig {:?}\nSQL {}\nbinds {:?}\n{msg}\nEXPLAIN:\n{plan}",
            self.seed, self.cfg, st.sql, st.binds
        );
    }

    /// Run `st` on `s` and check it against `m`; an ordered answer at
    /// dop > 1 must also equal the dop-1 run. `cov` notes what it ran.
    fn check(&self, s: &Session, phase: &str, st: &Stmt, m: &Model, cov: Option<&mut Coverage>) {
        let (got, chosen) = run(s, st);
        let want = (st.want)(m);
        if let Err(msg) = verdict(&got, &want, m) {
            self.fail(s, phase, st, &msg);
        }
        let engine = st.engine.filter(|_| got.is_ok());
        if engine.is_some_and(|e| chosen.as_deref() != Some(e)) {
            self.fail(s, phase, st, &format!("engine {chosen:?}, want {engine:?}"));
        }
        if let Some(cov) = cov {
            engine.inspect(|e| cov.note(format!("engine {e}")));
            if st.binds.is_empty() {
                cov.plan(&explain(s, &st.sql));
            }
        }
        let dop = self.cfg.dop;
        if dop > 1 && matches!(want, Want::Ordered(_) | Want::Ranked { ordered: true, .. }) {
            s.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
            let (serial, _) = run(s, st);
            s.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
            if serial != got {
                self.fail(s, phase, st, &format!("dop 1 ran {serial:?}\ndop {dop} ran {got:?}"));
            }
        }
    }

    /// Inserts, geometry and score updates and deletes on both tables
    /// through `s`, applied to `m`.
    fn writes(&mut self, s: &Session, m: &mut Model) {
        let one = |sql: String, binds: Vec<Value>| {
            s.prepare("w", &sql).unwrap();
            let n = s.execute_prepared("w", &binds).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let want = if sql.starts_with("INSERT") { vec![] } else { count(1) };
            assert_eq!(n.rows, want, "{sql} {binds:?}");
        };
        let (rng, nulls) = (&mut self.rng, self.cfg.nulls);
        for (t, tab) in TABLES.into_iter().enumerate() {
            for _ in 0..1 + rng.below(4) {
                let geom = rewrite(rng, None, &self.bounds[t], nulls);
                let row = Row::new(rng, self.next_id, geom);
                self.next_id += 1;
                one(format!("INSERT INTO {tab} VALUES (?, ?, ?, ?)"), row.values());
                m[t].push(row);
            }
            for _ in 0..rng.below(4).min(m[t].len()) {
                let i = rng.below(m[t].len());
                let row = &mut m[t][i];
                let id = Value::Integer(row.id);
                if rng.chance(0.7) {
                    row.geom = rewrite(rng, row.geom.as_ref(), &self.bounds[t], nulls);
                    let g = row.geom.clone().map_or(Value::Null, Value::geometry);
                    one(format!("UPDATE {tab} SET geom = ? WHERE id = ?"), vec![g, id]);
                } else {
                    let new = Row::new(rng, row.id, None);
                    (row.name, row.score) = (new.name, new.score);
                    let v = row.values();
                    let sql = format!("UPDATE {tab} SET name = ?, score = ? WHERE id = ?");
                    one(sql, vec![v[1].clone(), v[2].clone(), id]);
                }
            }
            for _ in 0..rng.below(3).min(m[t].len()) {
                let row = m[t].remove(rng.below(m[t].len()));
                one(format!("DELETE FROM {tab} WHERE id = ?"), vec![Value::Integer(row.id)]);
            }
        }
    }

    /// `UPDATE` and `DELETE` under drawn spatial operators through `s`,
    /// applied to `m`, each followed by a read of the whole table and a
    /// window query over it.
    fn dml(&mut self, s: &Session, m: &mut Model, cov: &mut Coverage) {
        for verb in ["UPDATE", "DELETE"] {
            let t = self.rng.below(2);
            let tab = TABLES[t];
            let c = spatial(&mut self.rng, "geom", self.cfg.quad(t), true);
            let sql = match verb {
                "UPDATE" => format!("UPDATE {tab} SET score = id, name = 'upd' WHERE {}", c.sql),
                _ => format!("DELETE FROM {tab} WHERE {}", c.sql),
            };
            let n = hits(m, t, &c.keep).count();
            self.check(s, verb, &stmt(sql, vec![], move |_| Want::Rows(count(n))), m, None);
            match verb {
                "UPDATE" => {
                    for r in m[t].iter_mut().filter(|r| (c.keep)(r)) {
                        (r.score, r.name) = (Some(r.id), Some("upd".into()));
                    }
                }
                _ => m[t].retain(|r| !(c.keep)(r)),
            }
            let all = stmt(format!("SELECT id, name, score FROM {tab}"), vec![], move |m| {
                Want::Rows(m[t].iter().map(|r| r.values()[..3].to_vec()).collect())
            });
            self.check(s, &format!("after {verb}"), &all, m, Some(cov));
            let c = spatial(&mut self.rng, "geom", self.cfg.quad(t), true);
            let sql = format!("SELECT id FROM {tab} WHERE {}", c.sql);
            let win = stmt(sql, vec![], move |m| Want::Rows(ids(hits(m, t, &c.keep))));
            self.check(s, &format!("after {verb}"), &win, m, Some(cov));
        }
    }
}

fn create_index(db: &Database, t: usize, index: Index) {
    let tab = TABLES[t];
    let (params, parallel) = match index {
        Index::None => return,
        Index::RTree { fanout, parallel, .. } => (format!("tree_fanout={fanout}"), parallel),
        Index::Quadtree { level, extent, parallel } => {
            let e = extent.map_or(String::new(), |p| {
                format!(", extent={}:{}:{}:{}", -p, -p, 100.0 + p, 100.0 + p)
            });
            (format!("sdo_level={level}{e}"), parallel)
        }
    };
    db.execute(&format!(
        "CREATE INDEX {tab}_sidx ON {tab}(geom) INDEXTYPE IS SPATIAL_INDEX \
         PARAMETERS ('{params}') PARALLEL {parallel}"
    ))
    .unwrap();
}

fn explain(s: &Session, sql: &str) -> Vec<String> {
    match s.execute(&format!("EXPLAIN {sql}")) {
        Ok(r) => r.rows.iter().map(|r| r[0].as_text().unwrap_or_default().to_string()).collect(),
        Err(e) => vec![format!("(EXPLAIN failed: {e})")],
    }
}

/// One case: its statements in autocommit, or inside a transaction
/// beside a second session before and after it ends; then its DML.
fn run_case(seed: u64, cov: &mut Coverage) {
    let (mut case, mut base) = Case::new(seed);
    let dop = case.cfg.dop;
    let set_dop =
        |s: &Session| s.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
    let a = case.db.session();
    set_dop(&a);
    if matches!(case.cfg.stats, Stats::Stale) {
        case.writes(&a, &mut base);
    }
    let stmts = statements(&mut case.rng, &case.cfg, &base);
    cov.note(if dop == 1 { "dop 1" } else { "dop >1" });
    for index in case.cfg.index {
        match index {
            Index::RTree { .. } => cov.note("index rtree"),
            Index::Quadtree { .. } => cov.note("index quadtree"),
            Index::None => {}
        }
    }
    if !case.cfg.txn {
        cov.note("autocommit");
        for st in &stmts {
            case.check(&a, "autocommit", st, &base, Some(cov));
        }
        return case.dml(&a, &mut base, cov);
    }
    cov.note("open transaction");
    let b = case.db.session();
    set_dop(&b);
    a.execute("BEGIN").unwrap();
    let mut mine = base.clone();
    case.writes(&a, &mut mine);
    for (i, st) in stmts.iter().enumerate() {
        case.check(&a, "own uncommitted writes", st, &mine, Some(cov));
        if i % 3 == 0 {
            case.check(&b, "beside an open transaction", st, &base, None);
        }
    }
    // `b` pins a snapshot before `a` ends and keeps it after.
    b.execute("BEGIN").unwrap();
    let some: Vec<&Stmt> = stmts.iter().step_by(4).collect();
    case.check(&b, "pinned reader", some[0], &base, None);
    case.dml(&a, &mut mine, cov);
    let (end, after) = if case.rng.chance(0.5) { ("COMMIT", &mine) } else { ("ROLLBACK", &base) };
    a.execute(end).unwrap();
    for st in &some {
        case.check(&b, &format!("pinned across {end}"), st, &base, None);
    }
    b.execute("COMMIT").unwrap();
    for st in &some {
        case.check(&b, &format!("after {end}"), st, after, None);
    }
}

#[test]
fn generated_plans_equal_brute_force() {
    sdo_dbms::set_morsel_rows(8);
    let mut cov = Coverage::default();
    let generated = (0..CASES).map(|i| 0x5D0_2003 + i);
    for seed in PINNED.iter().map(|&(_, seed)| seed).chain(generated) {
        run_case(seed, &mut cov);
    }
    cov.assert_complete();
}

/// Largest mutated input handed to the parser.
const MAX_FUZZ_LEN: usize = 2048;

/// Seeded byte flips, truncations, token splices and repeated spans of
/// the SQL the generator emits: `parse` returns `Ok` or `Err`, and
/// never panics.
#[test]
fn parser_survives_mutated_generated_sql() {
    let mut corpus = Vec::new();
    for seed in 0..16 {
        let mut rng = Rng(seed);
        let cfg = Config::draw(&mut rng);
        let base = [0, 1].map(|_| (0..3).map(|i| Row::new(&mut rng, i, None)).collect());
        corpus.extend(statements(&mut rng, &cfg, &base).into_iter().map(|s| s.sql));
    }
    let tokens: Vec<&str> = corpus.iter().flat_map(|s| s.split(' ')).collect();
    let mut rng = Rng(0xF022);
    for sql in &corpus {
        for _ in 0..24 {
            let mut bytes = sql.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(bytes.len() + 1);
                match rng.below(4) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes.truncate(at),
                    2 => drop(bytes.splice(at..at, rng.pick(&tokens).bytes().chain([b' ']))),
                    _ => {
                        let span = bytes[at..(at + rng.below(16)).min(bytes.len())].to_vec();
                        drop(bytes.splice(at..at, span));
                    }
                }
            }
            bytes.truncate(MAX_FUZZ_LEN);
            let input = String::from_utf8_lossy(&bytes).into_owned();
            let outcome = catch_unwind(AssertUnwindSafe(|| sdo_dbms::sql::parse(&input).is_ok()));
            assert!(outcome.is_ok(), "parse panicked on {input:?}");
        }
    }
}
