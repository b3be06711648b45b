//! Registration of the spatial indextype and table functions.

use crate::index::{QuadtreeSpatialIndex, RTreeSpatialIndex, SpatialIndexType};
use crate::join::{
    ExactPredicate, JoinMethod, JoinSide, QtJoinSide, QuadtreeJoin, SpatialJoin, SpatialJoinConfig,
};
use crate::partjoin::{PartitionJoin, PartitionState};
use crate::FetchOrder;
use sdo_dbms::db::{TfInstance, MAX_PARALLEL_DOP};
use sdo_dbms::extensible::{param, parse_params};
use sdo_dbms::{Database, DbError, TfArg};
use sdo_rtree::{NodeId, RTree};
use sdo_storage::{RowId, Value};
use sdo_tablefunc::parallel::ParallelTableFunction;
use sdo_tablefunc::table_function::BufferedFn;
use sdo_tablefunc::{TableFunction, TaskQueue};
use std::sync::Arc;

/// Register everything the paper's SQL uses into a session:
///
/// * the `SPATIAL_INDEX` indextype,
/// * `SPATIAL_JOIN(left_table, left_col, right_table, right_col,
///   interaction [, dop [, level [, options]]])` — the pipelined
///   (and, with `dop > 1`, parallel) spatial join table function.
///   Parallel slaves pull subtree-pair tasks from one shared
///   work-stealing queue; `dop` is capped at [`MAX_PARALLEL_DOP`].
///   A negative `level` means "choose automatically" (the SQL dialect
///   has no NULL literal, so `-1` is the explicit don't-care).
///   `interaction` is `'intersect'`/`'mask=...'`/`'distance=d'`;
///   `options` is `'fetch_order=arrival, candidates=N, cache=N,
///   method=rtree|partition|auto'` (`method` selects the tree
///   traversal, the two-layer grid partition join — which needs no
///   index — or a stats-driven automatic choice).
///   A leading `CURSOR(SELECT * FROM TABLE(SUBTREE_PAIRS(...)))`
///   argument supplies explicit subtree-pair tasks, matching the
///   paper's cursor-driven form,
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

/// Look up the R-tree spatial index on `(table, column)` and snapshot
/// its side of a join.
fn rtree_side(db: &Database, table: &str, column: &str) -> Result<Option<JoinSide>, DbError> {
    let Some((_, inst)) = db.index_on(table, column) else {
        return Err(DbError::Index(format!(
            "SPATIAL_JOIN requires a spatial index on {table}.{column}"
        )));
    };
    let guard = inst.read();
    let Some(rt) = guard.as_any().downcast_ref::<RTreeSpatialIndex>() else {
        return Ok(None);
    };
    Ok(Some(JoinSide {
        table: Arc::clone(rt.table()),
        column: rt.geometry_column(),
        tree: rt.tree_snapshot(),
    }))
}

/// Like [`rtree_side`] but quiet: `None` when the side has no index
/// at all or a non-R-tree one — the `method=auto` availability probe.
fn try_rtree_side(db: &Database, table: &str, column: &str) -> Option<JoinSide> {
    let (_, inst) = db.index_on(table, column)?;
    let guard = inst.read();
    let rt = guard.as_any().downcast_ref::<RTreeSpatialIndex>()?;
    Some(JoinSide {
        table: Arc::clone(rt.table()),
        column: rt.geometry_column(),
        tree: rt.tree_snapshot(),
    })
}

fn quadtree_side(db: &Database, table: &str, column: &str) -> Result<QtJoinSide, DbError> {
    let (_, inst) = db
        .index_on(table, column)
        .ok_or_else(|| DbError::Index(format!("no spatial index on {table}.{column}")))?;
    let guard = inst.read();
    let qt = guard
        .as_any()
        .downcast_ref::<QuadtreeSpatialIndex>()
        .ok_or_else(|| DbError::Index(format!("index on {table}.{column} is not a quadtree")))?;
    Ok(QtJoinSide {
        table: Arc::clone(qt.table()),
        column: qt.geometry_column(),
        index: qt.index_snapshot(),
    })
}

fn parse_join_options(s: &str) -> Result<SpatialJoinConfig, DbError> {
    let mut cfg = SpatialJoinConfig::default();
    let pairs = parse_params(s);
    for (k, _) in &pairs {
        if !matches!(k.as_str(), "fetch_order" | "candidates" | "cache" | "method") {
            return Err(DbError::Plan(format!("unknown SPATIAL_JOIN option '{k}'")));
        }
    }
    if let Some(v) = param(&pairs, "fetch_order") {
        cfg.fetch_order = match v.to_ascii_lowercase().as_str() {
            "sorted" | "rowid" | "rowid_sorted" => FetchOrder::RowidSorted,
            "arrival" => FetchOrder::Arrival,
            other => return Err(DbError::Plan(format!("unknown fetch order '{other}'"))),
        };
    }
    if let Some(v) = param(&pairs, "candidates") {
        cfg.candidate_array =
            v.parse::<usize>().map_err(|_| DbError::Plan(format!("bad candidates '{v}'")))?.max(1);
    }
    if let Some(v) = param(&pairs, "cache") {
        cfg.cache_size = v.parse().map_err(|_| DbError::Plan(format!("bad cache '{v}'")))?;
    }
    if let Some(v) = param(&pairs, "method") {
        cfg.method = JoinMethod::parse(v)
            .ok_or_else(|| DbError::Plan(format!("unknown method '{v}' (rtree|partition|auto)")))?;
    }
    Ok(cfg)
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

fn spatial_join_factory(db: &Database, args: Vec<TfArg>) -> Result<TfInstance, DbError> {
    let columns = vec!["RID1".to_string(), "RID2".to_string()];
    // Optional leading cursor of (lnode, rnode) subtree pairs. The ids
    // are client input: `rtree_join_func` checks them against the trees.
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
    // Negative level = auto (lets SQL callers reach the options
    // argument without forcing a descent level).
    let forced_level = rest.get(6).map(|a| a.integer()).transpose()?.filter(|&l| l >= 0);
    let mut config = match rest.get(7) {
        Some(a) => parse_join_options(a.text()?)?,
        None => SpatialJoinConfig::default(),
    };
    // Pin the MVCC read view at pipeline instantiation: a streaming
    // join delivers one consistent snapshot no matter what commits
    // while it runs (inside a transaction, the session's own view).
    // The commit fence makes the snapshot and the tree clones below
    // one atomic capture — without it a DELETE could commit in
    // between and its post-commit index maintenance would prune
    // entries this snapshot still needs.
    let _fence = db.txn_manager().commit_fence();
    config.snapshot = db.read_snapshot();
    let counters = Arc::clone(db.counters());

    // Resolve the join engine. The default (`rtree`) preserves the
    // paper's behavior exactly — index required, quadtree fallback.
    // `auto` consults index availability and table stats; its verdict
    // and reason land on the operator's profile node so EXPLAIN
    // ANALYZE shows why a plan was picked.
    let mut attrs: Vec<(&'static str, String)> = Vec::new();
    let mut metrics: Vec<(&'static str, u64)> = Vec::new();
    let method = match config.method {
        JoinMethod::Auto => {
            if explicit_tasks.is_some() || forced_level.is_some() {
                attrs.push(("method_reason", "explicit subtree tasks pin the tree join".into()));
                JoinMethod::Rtree
            } else {
                let (m, why) = choose_method(db, lt, lc, rt, rc, dop)?;
                attrs.push(("method_reason", why));
                m
            }
        }
        m => m,
    };

    let func: Box<dyn TableFunction> = match method {
        JoinMethod::Partition => {
            if explicit_tasks.is_some() || forced_level.is_some() {
                return Err(DbError::Plan(
                    "explicit subtree tasks/levels apply to method=rtree only".into(),
                ));
            }
            attrs.push(("method_chosen", "partition".into()));
            let (func, state) =
                partition_join_func(db, lt, lc, rt, rc, &exact, dop, &config, &counters)?;
            metrics.push(("partition_tiles", state.partition_tiles));
            metrics.push(("tile_max_occupancy", state.tile_max_occupancy));
            func
        }
        _ => {
            let (func, engine) = rtree_join_func(
                db,
                lt,
                lc,
                rt,
                rc,
                exact,
                dop,
                explicit_tasks,
                forced_level,
                config,
                counters,
            )?;
            attrs.push(("method_chosen", engine.into()));
            func
        }
    };
    Ok(TfInstance {
        func: Box::new(TaggedJoin { inner: func, attrs, metrics, node: None }),
        columns,
    })
}

/// `method=auto`: rank the engines numerically. Any unindexed side
/// forces partition (the tree join cannot run without built trees).
/// Otherwise both candidates are costed from persisted ANALYZE
/// statistics when available:
///
/// * tree join — synchronized descent touches every node once and the
///   candidate pairs dominate the leaves; parallel speedup is sublinear
///   (root contention, work-stealing): `(2·total + 1.2·pairs) / √dop`,
/// * partition join — pays a serial grid build over all rows, then
///   per-tile sweeps scale near-linearly with dop:
///   `1.6·total + (total + 1.2·pairs) / dop`.
///
/// The estimated pair count comes from overlaying the two tables'
/// spatial histograms ([`sdo_storage::TableStats`]); without ANALYZE
/// the estimate degrades to one match per row of the larger input,
/// and stale statistics (heavy DML since ANALYZE) are flagged in the
/// reason string but still used. The reason records every number so
/// `EXPLAIN ANALYZE` shows why the flip happened.
fn choose_method(
    db: &Database,
    lt: &str,
    lc: &str,
    rt: &str,
    rc: &str,
    dop: usize,
) -> Result<(JoinMethod, String), DbError> {
    let indexed = try_rtree_side(db, lt, lc).is_some() && try_rtree_side(db, rt, rc).is_some();
    let lrows = db.table(lt)?.read().len() as u64;
    let rrows = db.table(rt)?.read().len() as u64;
    let total = lrows + rrows;
    if !indexed {
        return Ok((
            JoinMethod::Partition,
            format!("unindexed input ({total} rows): grid partition needs no index build"),
        ));
    }

    // Estimated join pairs from persisted spatial histograms.
    let side = |table: &str, column: &str| -> Result<_, DbError> {
        let t = db.table(table)?;
        let col = t.read().schema().column_index(column);
        let mods = t.read().mod_count();
        let stats = db.catalog().table_stats(table);
        Ok((col, mods, stats))
    };
    let (lcol_ix, lmods, lstats) = side(lt, lc)?;
    let (rcol_ix, rmods, rstats) = side(rt, rc)?;
    let mut stale = false;
    let hist = |col: Option<usize>,
                stats: &Option<std::sync::Arc<sdo_storage::TableStats>>,
                mods: u64,
                stale: &mut bool| {
        let s = stats.as_ref()?;
        if s.is_stale(mods) {
            *stale = true;
        }
        s.spatial_histogram(col?).cloned()
    };
    let lhist = hist(lcol_ix, &lstats, lmods, &mut stale);
    let rhist = hist(rcol_ix, &rstats, rmods, &mut stale);
    let (pairs, pairs_src) = match (&lhist, &rhist) {
        (Some(lh), Some(rh)) => (lh.estimate_join_pairs(lrows, rh, rrows), "histogram overlay"),
        _ => (lrows.max(rrows) as f64, "default 1 match/row (no stats; run ANALYZE)"),
    };

    // Tile count the partition join would size itself to (mirrors
    // GridSpec::from_samples: ~32 rows/tile, ≥4 tiles/worker).
    let dop = dop.max(1);
    let want_tiles = (total as usize / 32).max(4 * dop).max(1);
    let axis = (want_tiles as f64).sqrt().ceil().clamp(1.0, 256.0) as u64;
    let tiles = axis * axis;

    let totf = total as f64;
    let dopf = dop as f64;
    let tree_cost = (2.0 * totf + 1.2 * pairs) / dopf.sqrt();
    let part_cost = 1.6 * totf + (totf + 1.2 * pairs) / dopf;
    let method = if part_cost < tree_cost { JoinMethod::Partition } else { JoinMethod::Rtree };
    let picked = match method {
        JoinMethod::Partition => format!("partition ({part_cost:.0} < tree {tree_cost:.0})"),
        _ => format!("rtree ({tree_cost:.0} <= partition {part_cost:.0})"),
    };
    let mut why = format!(
        "est {pairs:.0} pairs ({pairs_src}); {lrows}+{rrows} rows, dop={dop}, \
         ~{tiles} tiles; picked {picked}"
    );
    if stale {
        why.push_str("; STALE stats — estimates degraded, re-run ANALYZE");
    }
    Ok((method, why))
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

/// The paper's engines: the synchronized R-tree traversal (serial, or
/// work-stealing slaves at `dop > 1`) with the quadtree merge join as
/// fallback when the left index is a quadtree. Returns the function
/// plus the engine name recorded as `method_chosen`.
#[allow(clippy::too_many_arguments)]
fn rtree_join_func(
    db: &Database,
    lt: &str,
    lc: &str,
    rt: &str,
    rc: &str,
    exact: ExactPredicate,
    dop: usize,
    explicit_tasks: Option<Vec<(i64, i64)>>,
    forced_level: Option<i64>,
    config: SpatialJoinConfig,
    counters: Arc<sdo_storage::Counters>,
) -> Result<(Box<dyn TableFunction>, &'static str), DbError> {
    // Quadtree pairing: both sides must be quadtrees.
    if rtree_side(db, lt, lc)?.is_none() {
        let left = quadtree_side(db, lt, lc)?;
        let right = quadtree_side(db, rt, rc)?;
        if dop > 1 {
            return Err(DbError::Plan(
                "parallel SPATIAL_JOIN is implemented for R-tree indexes \
                 (quadtree joins are a single merge pass)"
                    .into(),
            ));
        }
        let func =
            QuadtreeJoin::new(left, right, exact, config, counters).map_err(DbError::from)?;
        return Ok((Box::new(func), "quadtree"));
    }

    let left = rtree_side(db, lt, lc)?.expect("checked above");
    let right = rtree_side(db, rt, rc)?.ok_or_else(|| {
        DbError::Index("SPATIAL_JOIN requires both indexes to be the same kind".into())
    })?;

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
        (None, Some(level)) => {
            SpatialJoin::parallel_tasks(&left.tree, &right.tree, &exact, level.max(0) as u32)
        }
        (None, None) if dop > 1 => choose_descent_level(&left.tree, &right.tree, &exact, dop).1,
        (None, None) => {
            // Serial: single root pair.
            let func = SpatialJoin::new(left, right, exact, config, counters);
            return Ok((Box::new(func), "rtree"));
        }
    };

    if dop <= 1 {
        let func = SpatialJoin::with_stack(left, right, exact, config, counters, tasks);
        return Ok((Box::new(func), "rtree"));
    }

    // Parallel: dop slave instances share one work-stealing task queue —
    // slaves pull on demand and steal across shards, so a dense cluster
    // cannot pin a single slave.
    let queue = TaskQueue::seed_round_robin(tasks, dop);
    let instances: Vec<Box<dyn TableFunction>> = (0..dop)
        .map(|worker| {
            Box::new(SpatialJoin::with_shared_tasks(
                JoinSide {
                    table: Arc::clone(&left.table),
                    column: left.column,
                    tree: Arc::clone(&left.tree),
                },
                JoinSide {
                    table: Arc::clone(&right.table),
                    column: right.column,
                    tree: Arc::clone(&right.tree),
                },
                exact.clone(),
                config.clone(),
                Arc::clone(&counters),
                Arc::clone(&queue),
                worker,
            )) as Box<dyn TableFunction>
        })
        .collect();
    Ok((Box::new(ParallelTableFunction::new(instances)), "rtree"))
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

fn subtree_root_factory(db: &Database, args: Vec<TfArg>) -> Result<TfInstance, DbError> {
    if args.len() != 2 {
        return Err(DbError::Plan("SUBTREE_ROOT(index_name, levels_down)".into()));
    }
    let index_name = args[0].text()?.to_string();
    let levels = args[1].integer()?.max(0) as u32;
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

fn subtree_pairs_factory(db: &Database, args: Vec<TfArg>) -> Result<TfInstance, DbError> {
    if args.len() != 4 {
        return Err(DbError::Plan(
            "SUBTREE_PAIRS(left_index, right_index, levels_down, interaction)".into(),
        ));
    }
    let exact = ExactPredicate::parse(args[3].text()?).map_err(DbError::from)?;
    let levels = args[2].integer()?.max(0) as u32;
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

fn tessellate_factory(db: &Database, args: Vec<TfArg>) -> Result<TfInstance, DbError> {
    if args.len() < 3 {
        return Err(DbError::Plan("TESSELLATE(table, column, level)".into()));
    }
    let table = db.table(args[0].text()?)?;
    let column = args[1].text()?.to_string();
    let level = args[2].integer()?.max(1) as u32;
    let col = table
        .read()
        .schema()
        .column_index(&column)
        .ok_or_else(|| DbError::Plan(format!("no column {column}")))?;
    let params = crate::params::SpatialIndexParams { sdo_level: level, ..Default::default() };
    let world = crate::create::world_extent_of(&table, col, &params)?;
    let counters = Arc::clone(db.counters());
    let cursor = sdo_tablefunc::source::TableCursor::full(Arc::clone(&table))
        .with_projection(vec![col])
        .at_snapshot(db.read_snapshot());
    let func = sdo_tablefunc::pipeline::CursorFn::new(cursor, move |row| {
        crate::create::tessellate_row(&row, &world, level, &counters)
    });
    Ok(TfInstance {
        func: Box::new(func),
        columns: vec!["TILE_CODE".into(), "RID".into(), "INTERIOR".into()],
    })
}
