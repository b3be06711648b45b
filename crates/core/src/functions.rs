//! Registration of the spatial indextype and table functions.

use crate::index::{QuadtreeSpatialIndex, RTreeSpatialIndex, SpatialIndexType};
use crate::join::{ExactPredicate, JoinSide, SpatialJoin, SpatialJoinConfig};
use crate::partjoin::{PartitionJoin, PartitionState};
use sdo_dbms::db::{IndexHandle, TfInstance, MAX_PARALLEL_DOP};
use sdo_dbms::{Database, DbError, TfArg};
use sdo_rtree::{NodeId, RTree};
use sdo_storage::{RowId, Snapshot, Value};
use sdo_tablefunc::parallel::ParallelTableFunction;
use sdo_tablefunc::table_function::BufferedFn;
use sdo_tablefunc::{TableFunction, TaskQueue};
use std::sync::Arc;

/// Register everything the paper's SQL uses into a session:
///
/// * the `SPATIAL_INDEX` indextype,
/// * `SPATIAL_JOIN(left_table, left_col, right_table, right_col,
///   interaction [, dop [, level]])` — the pipelined (and, with
///   `dop > 1`, parallel) spatial join table function. The indexes on
///   the two inputs pick the engine: two R-trees run the paper's tree
///   join, and anything else runs the grid partition join, which
///   needs no index. Parallel slaves pull tasks from one shared
///   work-stealing queue; `dop` is capped at [`MAX_PARALLEL_DOP`]. A
///   negative `level` means "choose automatically" (the SQL dialect
///   has no NULL literal, so `-1` is the explicit don't-care).
///   `interaction` is `'intersect'`/`'mask=...'`/`'distance=d'`. A leading
///   `CURSOR(SELECT * FROM TABLE(SUBTREE_PAIRS(...)))` argument
///   supplies explicit subtree-pair tasks, matching the paper's
///   cursor-driven form; it and a `level >= 0` need two R-trees,
/// * `SUBTREE_ROOT(index_name, levels_down)` — subtree roots of an
///   R-tree index at a level,
/// * `SUBTREE_PAIRS(left_index, right_index, levels_down,
///   interaction)` — the MBR-filtered cross product of subtree roots
///   (Figure 1),
/// * `TESSELLATE(table_name, column, level)` — the quadtree
///   tessellation as a standalone table function (Figure 2's middle
///   stage).
pub fn register_spatial(db: &Database) {
    db.register_indextype("SPATIAL_INDEX", Arc::new(SpatialIndexType));

    db.register_table_function("SPATIAL_JOIN", spatial_join_factory);
    // Oracle's production name for the same function.
    db.register_table_function("SDO_JOIN", spatial_join_factory);
    db.register_table_function("SUBTREE_ROOT", subtree_root_factory);
    db.register_table_function("SUBTREE_PAIRS", subtree_pairs_factory);
    db.register_table_function("TESSELLATE", tessellate_factory);
}

/// Pick the subtree descent depth: "we descend both trees as far below
/// as to get appropriate number of subtree-joins" — the shallowest
/// level producing at least `4 * dop` tasks.
pub fn choose_descent_level(
    left: &RTree<RowId>,
    right: &RTree<RowId>,
    exact: &ExactPredicate,
    dop: usize,
) -> (u32, Vec<(NodeId, NodeId)>) {
    let max_down = left.height().min(right.height()).saturating_sub(1);
    let mut best = (0, SpatialJoin::parallel_tasks(left, right, exact, 0));
    for level in 1..=max_down {
        let tasks = SpatialJoin::parallel_tasks(left, right, exact, level);
        let enough = tasks.len() >= 4 * dop;
        best = (level, tasks);
        if enough {
            break;
        }
    }
    best
}

/// A SQL descent-level argument as a tree level count: negatives mean
/// zero, and values past `u32::MAX` saturate instead of wrapping.
fn levels_down(level: i64) -> u32 {
    u32::try_from(level.max(0)).unwrap_or(u32::MAX)
}

/// The engine one `SPATIAL_JOIN` runs on, with the index snapshots it
/// reads already taken.
enum Engine {
    /// Both inputs carry R-trees: the paper's synchronized traversal.
    Tree(JoinSide, JoinSide),
    /// Anything else: the grid partition join, which needs no index.
    Partition,
}

fn is_index<I: 'static>(inst: &IndexHandle) -> bool {
    inst.read().as_any().is::<I>()
}

/// Snapshot a side already classified as R-tree-indexed.
fn rtree_side(inst: &IndexHandle) -> JoinSide {
    let guard = inst.read();
    let rt = guard.as_any().downcast_ref::<RTreeSpatialIndex>().expect("an R-tree index");
    JoinSide {
        table: Arc::clone(rt.table()),
        column: rt.geometry_column(),
        tree: rt.tree_snapshot(),
    }
}

/// Pick the join engine from the indexes that exist, snapshotting each
/// index the engine reads exactly once. Two R-trees run the tree join
/// and anything else runs the partition join. Returns the engine and
/// the rule that fired, which `EXPLAIN ANALYZE` shows as
/// `method_reason`.
fn resolve_engine(db: &Database, lt: &str, lc: &str, rt: &str, rc: &str) -> (Engine, &'static str) {
    let index = |table: &str, column: &str| db.index_on(table, column).map(|(_, inst)| inst);
    let (Some(left), Some(right)) = (index(lt, lc), index(rt, rc)) else {
        return (Engine::Partition, "an input has no spatial index");
    };
    if is_index::<RTreeSpatialIndex>(&left) && is_index::<RTreeSpatialIndex>(&right) {
        return (Engine::Tree(rtree_side(&left), rtree_side(&right)), "two R-tree indexes");
    }
    if is_index::<QuadtreeSpatialIndex>(&left) && is_index::<QuadtreeSpatialIndex>(&right) {
        return (Engine::Partition, "two quadtree indexes");
    }
    (Engine::Partition, "the inputs' index kinds differ")
}

fn spatial_join_factory(
    db: &Database,
    snap: Snapshot,
    args: Vec<TfArg>,
) -> Result<TfInstance, DbError> {
    let columns = vec!["RID1".to_string(), "RID2".to_string()];
    // Optional leading cursor of (lnode, rnode) subtree pairs. The ids
    // are client input: `tree_join_func` checks them against the trees.
    type TaskSplit<'a> = (Option<Vec<(i64, i64)>>, &'a [TfArg]);
    let (explicit_tasks, rest): TaskSplit<'_> = match args.first() {
        Some(TfArg::Cursor(rows)) => {
            let pairs = rows
                .iter()
                .map(|r| {
                    let l = r.first().and_then(|v| v.as_integer());
                    let rr = r.get(1).and_then(|v| v.as_integer());
                    match (l, rr) {
                        (Some(l), Some(rr)) => Ok((l, rr)),
                        _ => Err(DbError::Plan(
                            "SPATIAL_JOIN cursor must supply (lnode, rnode) pairs".into(),
                        )),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            (Some(pairs), &args[1..])
        }
        _ => (None, &args[..]),
    };
    if rest.len() < 5 {
        return Err(DbError::Plan(
            "SPATIAL_JOIN(left_table, left_col, right_table, right_col, interaction, ...)".into(),
        ));
    }
    if rest.len() > 7 {
        return Err(DbError::Plan(
            "SPATIAL_JOIN's options argument was removed; \
             the inputs' indexes pick the join engine"
                .into(),
        ));
    }
    let lt = rest[0].text()?;
    let lc = rest[1].text()?;
    let rt = rest[2].text()?;
    let rc = rest[3].text()?;
    let exact = ExactPredicate::parse(rest[4].text()?).map_err(DbError::from)?;
    let dop = rest.get(5).map(|a| a.integer()).transpose()?.unwrap_or(1).max(1);
    if dop > MAX_PARALLEL_DOP as i64 {
        return Err(DbError::Plan(format!(
            "SPATIAL_JOIN degree of parallelism {dop} exceeds the maximum of {MAX_PARALLEL_DOP}"
        )));
    }
    let dop = dop as usize;
    // A negative level means "choose automatically": the SQL dialect
    // has no NULL literal, so `-1` is the explicit don't-care.
    let forced_level = rest.get(6).map(|a| a.integer()).transpose()?.filter(|&l| l >= 0);
    let forced_level = forced_level.map(levels_down);
    // The join reads the heap at the calling statement's snapshot, so
    // it delivers one consistent view no matter what commits while it
    // runs (inside a transaction, the session's own view). The index
    // snapshots taken below hold every entry that view needs: a commit
    // retires the entries of the versions it superseded only once no
    // pinned snapshot predates it, and the statement's pin is older.
    let config = SpatialJoinConfig { snapshot: snap, ..Default::default() };
    let counters = Arc::clone(db.counters());

    let (engine, reason) = resolve_engine(db, lt, lc, rt, rc);
    let mut metrics: Vec<(&'static str, u64)> = Vec::new();
    let (func, chosen): (Box<dyn TableFunction>, &str) = match engine {
        Engine::Tree(left, right) => {
            let func = tree_join_func(
                left,
                right,
                exact,
                dop,
                explicit_tasks,
                forced_level,
                config,
                counters,
            )?;
            (func, "rtree")
        }
        Engine::Partition if explicit_tasks.is_some() || forced_level.is_some() => {
            return Err(DbError::Plan(format!(
                "SPATIAL_JOIN subtree tasks and descent levels need R-tree indexes on \
                 both inputs ({reason})"
            )));
        }
        Engine::Partition => {
            let (func, state) =
                partition_join_func(db, lt, lc, rt, rc, &exact, dop, &config, &counters)?;
            metrics.push(("partition_tiles", state.partition_tiles));
            metrics.push(("tile_max_occupancy", state.tile_max_occupancy));
            (func, "partition")
        }
    };
    let attrs = vec![("method_chosen", chosen.to_string()), ("method_reason", reason.to_string())];
    Ok(TfInstance {
        func: Box::new(TaggedJoin { inner: func, attrs, metrics, node: None }),
        columns,
    })
}

/// Build the partitioned join: resolve base tables and geometry
/// columns (no index needed), build the shared [`PartitionState`],
/// and spin up `dop` slave instances over its task queue.
#[allow(clippy::too_many_arguments)]
fn partition_join_func(
    db: &Database,
    lt: &str,
    lc: &str,
    rt: &str,
    rc: &str,
    exact: &ExactPredicate,
    dop: usize,
    config: &SpatialJoinConfig,
    counters: &Arc<sdo_storage::Counters>,
) -> Result<(Box<dyn TableFunction>, Arc<PartitionState>), DbError> {
    let resolve = |table: &str, column: &str| -> Result<_, DbError> {
        let t = db.table(table)?;
        let col = t
            .read()
            .schema()
            .column_index(column)
            .ok_or_else(|| DbError::Plan(format!("no column {column} on {table}")))?;
        Ok((t, col))
    };
    let (ltab, lcol) = resolve(lt, lc)?;
    let (rtab, rcol) = resolve(rt, rc)?;
    let state = PartitionState::build(&ltab, lcol, &rtab, rcol, exact, dop, &config.snapshot);
    let mut instances: Vec<Box<dyn TableFunction>> = (0..dop)
        .map(|worker| {
            Box::new(PartitionJoin::new(
                Arc::clone(&state),
                Arc::clone(&ltab),
                lcol,
                Arc::clone(&rtab),
                rcol,
                exact.clone(),
                config.clone(),
                Arc::clone(counters),
                worker,
            )) as Box<dyn TableFunction>
        })
        .collect();
    let func = if dop > 1 {
        Box::new(ParallelTableFunction::new(instances)) as Box<dyn TableFunction>
    } else {
        instances.remove(0)
    };
    Ok((func, state))
}

/// The paper's synchronized R-tree traversal: serial from the root
/// pair (or from explicit subtree tasks), or `dop` work-stealing
/// slaves over the subtree pairs at the chosen descent level.
#[allow(clippy::too_many_arguments)]
fn tree_join_func(
    left: JoinSide,
    right: JoinSide,
    exact: ExactPredicate,
    dop: usize,
    explicit_tasks: Option<Vec<(i64, i64)>>,
    forced_level: Option<u32>,
    config: SpatialJoinConfig,
    counters: Arc<sdo_storage::Counters>,
) -> Result<Box<dyn TableFunction>, DbError> {
    let tasks: Vec<(NodeId, NodeId)> = match (explicit_tasks, forced_level) {
        (Some(t), _) => {
            let node = |tree: &RTree<RowId>, id: i64| {
                NodeId::try_from(id).ok().filter(|&n| tree.has_node(n)).ok_or_else(|| {
                    DbError::Plan(format!("SPATIAL_JOIN cursor node id {id} is not in the index"))
                })
            };
            t.into_iter()
                .map(|(l, r)| Ok((node(&left.tree, l)?, node(&right.tree, r)?)))
                .collect::<Result<_, DbError>>()?
        }
        (None, Some(level)) => SpatialJoin::parallel_tasks(&left.tree, &right.tree, &exact, level),
        (None, None) if dop > 1 => choose_descent_level(&left.tree, &right.tree, &exact, dop).1,
        // Serial: single root pair.
        (None, None) => {
            return Ok(Box::new(SpatialJoin::new(left, right, exact, config, counters)))
        }
    };

    if dop <= 1 {
        return Ok(Box::new(SpatialJoin::with_stack(left, right, exact, config, counters, tasks)));
    }

    // Parallel: dop slave instances share one work-stealing task queue —
    // slaves pull on demand and steal across shards, so a dense cluster
    // cannot pin a single slave.
    let queue = TaskQueue::seed_round_robin(tasks, dop);
    let instances: Vec<Box<dyn TableFunction>> = (0..dop)
        .map(|worker| {
            Box::new(SpatialJoin::with_shared_tasks(
                left.clone(),
                right.clone(),
                exact.clone(),
                config.clone(),
                Arc::clone(&counters),
                Arc::clone(&queue),
                worker,
            )) as Box<dyn TableFunction>
        })
        .collect();
    Ok(Box::new(ParallelTableFunction::new(instances)))
}

/// Wraps a join engine to stamp planner verdicts (`method_chosen`,
/// `method_reason`) and partition-build metrics onto the operator's
/// profile node — the executor-attached node when there is one, else
/// the ambient profile session's current node.
struct TaggedJoin {
    inner: Box<dyn TableFunction>,
    attrs: Vec<(&'static str, String)>,
    metrics: Vec<(&'static str, u64)>,
    node: Option<sdo_obs::ProfileNode>,
}

impl TableFunction for TaggedJoin {
    fn start(&mut self) -> Result<(), sdo_tablefunc::TfError> {
        if let Some(node) = self.node.clone().or_else(sdo_obs::current) {
            for (k, v) in self.attrs.drain(..) {
                node.set_attr(k, v);
            }
            for (k, v) in self.metrics.drain(..) {
                node.set_metric(k, v);
            }
        }
        self.inner.start()
    }

    fn fetch(
        &mut self,
        max_rows: usize,
    ) -> Result<Vec<sdo_tablefunc::Row>, sdo_tablefunc::TfError> {
        self.inner.fetch(max_rows)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn attach_profile(&mut self, node: &sdo_obs::ProfileNode) {
        self.node = Some(node.clone());
        self.inner.attach_profile(node);
    }
}

fn subtree_root_factory(
    db: &Database,
    _snap: Snapshot,
    args: Vec<TfArg>,
) -> Result<TfInstance, DbError> {
    if args.len() != 2 {
        return Err(DbError::Plan("SUBTREE_ROOT(index_name, levels_down)".into()));
    }
    let index_name = args[0].text()?.to_string();
    let levels = levels_down(args[1].integer()?);
    let inst = db
        .index_instance(&index_name)
        .ok_or_else(|| DbError::Index(format!("no such index {index_name}")))?;
    let guard = inst.read();
    let rt = guard
        .as_any()
        .downcast_ref::<RTreeSpatialIndex>()
        .ok_or_else(|| DbError::Index("SUBTREE_ROOT requires an R-tree index".into()))?;
    let tree = rt.tree_snapshot();
    let rows: Vec<sdo_tablefunc::Row> = tree
        .subtree_roots(levels)
        .into_iter()
        .map(|s| {
            vec![
                Value::Integer(s.node as i64),
                Value::Integer(s.level as i64),
                Value::Double(s.mbr.min_x),
                Value::Double(s.mbr.min_y),
                Value::Double(s.mbr.max_x),
                Value::Double(s.mbr.max_y),
            ]
        })
        .collect();
    Ok(TfInstance {
        func: Box::new(BufferedFn::new(move || Ok(rows))),
        columns: vec![
            "NODE".into(),
            "NODE_LEVEL".into(),
            "MIN_X".into(),
            "MIN_Y".into(),
            "MAX_X".into(),
            "MAX_Y".into(),
        ],
    })
}

fn subtree_pairs_factory(
    db: &Database,
    _snap: Snapshot,
    args: Vec<TfArg>,
) -> Result<TfInstance, DbError> {
    if args.len() != 4 {
        return Err(DbError::Plan(
            "SUBTREE_PAIRS(left_index, right_index, levels_down, interaction)".into(),
        ));
    }
    let exact = ExactPredicate::parse(args[3].text()?).map_err(DbError::from)?;
    let levels = levels_down(args[2].integer()?);
    let mut trees = Vec::new();
    for a in &args[..2] {
        let name = a.text()?;
        let inst = db
            .index_instance(name)
            .ok_or_else(|| DbError::Index(format!("no such index {name}")))?;
        let guard = inst.read();
        let rt = guard
            .as_any()
            .downcast_ref::<RTreeSpatialIndex>()
            .ok_or_else(|| DbError::Index("SUBTREE_PAIRS requires R-tree indexes".into()))?;
        trees.push(rt.tree_snapshot());
    }
    let pairs = SpatialJoin::parallel_tasks(&trees[0], &trees[1], &exact, levels);
    let rows: Vec<sdo_tablefunc::Row> = pairs
        .into_iter()
        .map(|(l, r)| vec![Value::Integer(l as i64), Value::Integer(r as i64)])
        .collect();
    Ok(TfInstance {
        func: Box::new(BufferedFn::new(move || Ok(rows))),
        columns: vec!["LNODE".into(), "RNODE".into()],
    })
}

fn tessellate_factory(
    db: &Database,
    snap: Snapshot,
    args: Vec<TfArg>,
) -> Result<TfInstance, DbError> {
    if args.len() < 3 {
        return Err(DbError::Plan("TESSELLATE(table, column, level)".into()));
    }
    let table = db.table(args[0].text()?)?;
    let column = args[1].text()?.to_string();
    let level = u32::try_from(args[2].integer()?)
        .ok()
        .filter(|l| (1..=sdo_quadtree::MAX_LEVEL).contains(l))
        .ok_or_else(|| {
            DbError::Plan(format!("sdo_level must be in 1..={}", sdo_quadtree::MAX_LEVEL))
        })?;
    let col = table
        .read()
        .schema()
        .column_index(&column)
        .ok_or_else(|| DbError::Plan(format!("no column {column}")))?;
    let params = crate::params::SpatialIndexParams { sdo_level: level, ..Default::default() };
    let world = crate::create::world_extent_of(&table, col, &params, snap)?;
    let counters = Arc::clone(db.counters());
    let cursor = sdo_tablefunc::source::TableCursor::full(Arc::clone(&table))
        .with_projection(vec![col])
        .at_snapshot(snap);
    let func = sdo_tablefunc::pipeline::CursorFn::new(cursor, move |row| {
        crate::create::tessellate_row(&row, &world, level, &counters)
    });
    Ok(TfInstance {
        func: Box::new(func),
        columns: vec!["TILE_CODE".into(), "RID".into(), "INTERIOR".into()],
    })
}
