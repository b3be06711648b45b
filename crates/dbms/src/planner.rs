//! Cost-based planner for SELECT statements: the one place a SELECT's
//! shape is decided.
//!
//! [`plan_select`] binds the FROM list, classifies the WHERE clause
//! once against it, and consumes the statistics `ANALYZE` persists
//! ([`TableStats`]: row counts, per-column NDV, spatial MBR histograms)
//! to produce a costed [`PlanNode`] tree. Every node names the operator
//! that runs it ([`Op`]): `EXPLAIN` renders the tree, and the builder in
//! `operators` walks it, making one operator per node and naming its
//! profile node with the node's label, so `EXPLAIN ANALYZE` draws the
//! same tree with actuals beside the estimates. The decisions:
//!
//! * **access path** — per base-table FROM slot, an index scan (fetch
//!   only the rowids a constant spatial predicate's domain index
//!   returns) vs. a table scan, chosen by estimated output rows (a
//!   window covering most of the table makes fetching by rowid dearer
//!   than scanning the heap),
//! * **join order and method** — for a column-column spatial predicate,
//!   all four (outer side × probe/build) orientations are costed and
//!   the cheapest picked; for pure cartesian products the largest
//!   relation streams while smaller ones are materialized,
//! * **kNN pushdown** — `ORDER BY SDO_DISTANCE(col, const) LIMIT k`
//!   over a single R-tree-indexed table skips the full sort and runs
//!   the index's incremental best-first search instead,
//! * **exchange placement** — where a morsel-driven exchange
//!   parallelizes the pipeline under the session's dop cap.
//!
//! Every decision carries a human-readable reason with the numbers
//! that drove it, and a statement that cannot be planned fails with
//! the planning error.
//!
//! Missing or stale statistics (more than `max(64, rows/5)`
//! modifications since `ANALYZE`) degrade to documented defaults,
//! never to errors, and the plan flags the degradation.

use crate::db::{Database, TfArg};
use crate::error::DbError;
use crate::exec::{
    classify_spatial, eval_const, resolve_column_meta, RelMeta, SpatialOperand, SpatialPred,
};
use crate::operators::ExecCtx;
use crate::sql::ast::{
    CmpOp, ColumnRef, Expr, FromItem, OrderKey, Predicate, Select, SelectItem, TfArgAst,
};
use sdo_geom::Geometry;
use sdo_obs::ProfileNode;
use sdo_storage::{IndexKind, TableStats};
use sdo_tablefunc::{Row, TableFunction};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Cost model constants
// ---------------------------------------------------------------------------
//
// Abstract units: 1.0 = streaming one row through an operator. The
// ratios matter, not the absolute values — they rank alternatives.

/// Emit/consume one row.
const C_ROW: f64 = 1.0;
/// One exact geometry predicate evaluation (refine step).
const C_EXACT: f64 = 4.0;
/// One domain-index probe (descend + candidate collection overhead).
const C_PROBE: f64 = 40.0;
/// Fetch one heap row by rowid.
const C_FETCH: f64 = 2.0;
/// One comparison inside a sort (applied `n·log2 n` times).
const C_CMP: f64 = 0.5;
/// One best-first kNN heap step (node enqueue + exact distance).
const C_KNN: f64 = 12.0;

/// Estimated output rows for a table function FROM item (no stats
/// exist for them; pipelined functions can produce anything).
const DEFAULT_TF_ROWS: f64 = 1_000.0;

/// Default selectivity for a spatial window predicate when no
/// histogram is available.
const DEFAULT_WINDOW_SEL: f64 = 0.1;

// ---------------------------------------------------------------------------
// Planning environment
// ---------------------------------------------------------------------------

/// Session knobs the planner must respect when placing exchanges.
/// Captured from the session options each time a statement is planned,
/// so a prepared statement re-resolves them on every `EXECUTE`.
pub(crate) struct PlanEnv {
    /// `ALTER SESSION SET parallel_dop` ceiling; 1 forces serial plans.
    pub dop_cap: usize,
    /// `max_resident_rows` budget — parallelism is clamped so `dop`
    /// workers' in-flight morsels cannot exceed it on their own.
    pub max_resident_rows: u64,
}

impl PlanEnv {
    /// A serial environment: no exchange is ever placed.
    pub(crate) fn serial() -> Self {
        PlanEnv { dop_cap: 1, max_resident_rows: u64::MAX }
    }

    /// Capture the knobs from session options.
    pub(crate) fn from_options(opts: &crate::db::SessionOptions) -> Self {
        PlanEnv { dop_cap: opts.parallel_dop, max_resident_rows: opts.max_resident_rows }
    }
}

// ---------------------------------------------------------------------------
// Per-relation estimates
// ---------------------------------------------------------------------------

/// What the planner knows about one FROM item.
pub(crate) struct RelEstimate {
    /// Estimated (for base tables: exact live) row count.
    pub rows: f64,
    /// Persisted stats, when `ANALYZE` has run on the table.
    pub stats: Option<Arc<TableStats>>,
    /// True when the table has churned past the staleness budget since
    /// it was analyzed: histograms still exist but are flagged.
    pub stale: bool,
}

impl RelEstimate {
    /// One-line provenance note for plan reasons.
    fn stats_note(&self) -> String {
        match (&self.stats, self.stale) {
            (Some(s), false) => format!("stats: analyzed at {} rows", s.rows),
            (Some(s), true) => {
                format!("stats: STALE (analyzed at {} rows; churn exceeds budget)", s.rows)
            }
            (None, _) => "stats: none (run ANALYZE)".to_string(),
        }
    }

    /// The spatial histogram for `col`, only when trustworthy-ish
    /// (present; staleness is tolerated but reported by the caller).
    fn histogram(&self, col: usize) -> Option<&sdo_storage::SpatialHistogram> {
        self.stats.as_ref().and_then(|s| s.spatial_histogram(col))
    }
}

/// The planner's view of one base table: its exact live row count and
/// the statistics `ANALYZE` persisted, flagged when stale.
fn table_estimate(db: &Database, name: &str, t: &sdo_storage::Table) -> RelEstimate {
    let stats = db.catalog().table_stats(name);
    let stale = stats.as_ref().map(|s| s.is_stale(t.mod_count())).unwrap_or(false);
    RelEstimate { rows: t.len() as f64, stats, stale }
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

/// How [`plan_select`] binds table functions.
#[derive(Clone, Copy)]
pub(crate) enum Binding<'c, 'a> {
    /// Plain `EXPLAIN`: table functions are not instantiated and their
    /// `CURSOR(...)` arguments are planned, not run. Their columns are
    /// unknown, so a predicate over one is planned as a residual.
    Explain,
    /// Execution: table functions are instantiated for the statement
    /// and their `CURSOR(...)` arguments run now, through the same
    /// planner and executor, sharing the statement's gauge. When
    /// `profiled`, each argument's operators record under a node the
    /// function's scan adopts.
    Execute { ctx: &'c ExecCtx<'a>, profiled: bool },
}

/// A table function instantiated at bind, waiting for its scan.
pub(crate) struct BoundFunction {
    /// The function's name as written (the scan's memory account).
    pub name: String,
    /// The pipelined function, not yet started.
    pub func: Box<dyn TableFunction>,
    /// Profile roots of its `CURSOR(...)` arguments, already run.
    pub cursors: Vec<ProfileNode>,
}

/// The bound FROM list.
struct Relations {
    metas: Vec<RelMeta>,
    ests: Vec<RelEstimate>,
    /// Per slot, the instantiated table function (execution only).
    funcs: Vec<Option<BoundFunction>>,
    /// Per slot, the plans of its `CURSOR(...)` arguments (plain
    /// `EXPLAIN` only; execution has run them).
    cursors: Vec<Vec<PlanNode>>,
    /// False when some relation's columns are unknown.
    bound: bool,
}

/// Resolve every FROM item: a base table's schema and estimate, a table
/// function per `binding`.
fn bind(
    db: &Database,
    sel: &Select,
    env: &PlanEnv,
    binding: Binding<'_, '_>,
) -> Result<Relations, DbError> {
    let n = sel.from.len();
    let mut rels = Relations {
        metas: Vec::with_capacity(n),
        ests: Vec::with_capacity(n),
        funcs: Vec::with_capacity(n),
        cursors: Vec::with_capacity(n),
        bound: true,
    };
    for item in &sel.from {
        let binding_name = item.binding().to_ascii_uppercase();
        let (mut func, mut cursors) = (None, Vec::new());
        match item {
            FromItem::Table { name, .. } => {
                let table = db.table(name)?;
                let columns: Vec<String> =
                    table.read().schema().columns().iter().map(|c| c.name.clone()).collect();
                rels.ests.push(table_estimate(db, name, &table.read()));
                rels.metas.push(RelMeta {
                    binding: binding_name,
                    columns,
                    table: Some(table),
                    table_name: Some(name.to_ascii_uppercase()),
                });
            }
            FromItem::TableFunction { name, args, .. } => {
                let columns = match binding {
                    Binding::Explain => {
                        for a in args {
                            if let TfArgAst::Cursor(sub) = a {
                                let mut root = plan_select(db, sub, env, binding)?.root;
                                root.label = format!("CURSOR: {}", root.label);
                                cursors.push(root);
                            }
                        }
                        rels.bound = false;
                        Vec::new()
                    }
                    Binding::Execute { ctx, profiled } => {
                        let mut nodes = Vec::new();
                        let args = args
                            .iter()
                            .map(|a| match a {
                                TfArgAst::Expr(e) => Ok(TfArg::Scalar(eval_const(e)?)),
                                TfArgAst::Cursor(sub) => {
                                    let (rows, node) = run_cursor(ctx, sub, env, profiled)?;
                                    nodes.extend(node);
                                    Ok(TfArg::Cursor(rows))
                                }
                            })
                            .collect::<Result<Vec<_>, DbError>>()?;
                        let inst = db.make_table_function(name, ctx.snap, args)?;
                        let columns = inst.columns.iter().map(|c| c.to_ascii_uppercase()).collect();
                        let name = name.clone();
                        func = Some(BoundFunction { name, func: inst.func, cursors: nodes });
                        columns
                    }
                };
                let meta =
                    RelMeta { binding: binding_name, columns, table: None, table_name: None };
                rels.metas.push(meta);
                rels.ests.push(RelEstimate { rows: DEFAULT_TF_ROWS, stats: None, stale: false });
            }
        }
        rels.funcs.push(func);
        rels.cursors.push(cursors);
    }
    Ok(rels)
}

/// Run one `CURSOR(...)` argument to completion: its rows, and the
/// detached profile node its plan's root recorded under.
fn run_cursor(
    ctx: &ExecCtx<'_>,
    sub: &Select,
    env: &PlanEnv,
    profiled: bool,
) -> Result<(Vec<Row>, Option<ProfileNode>), DbError> {
    let mut plan = plan_select(ctx.db, sub, env, Binding::Execute { ctx, profiled })?;
    plan.root.label = format!("CURSOR: {}", plan.root.label);
    let node = profiled.then(|| ProfileNode::detached(plan.root.label.clone()));
    let rows = crate::operators::build_select_stream(ctx, plan, node.clone())?.run()?.rows;
    Ok((rows, node))
}

// ---------------------------------------------------------------------------
// Plan tree
// ---------------------------------------------------------------------------

/// One operator of the costed plan: `EXPLAIN` renders it, the builder
/// runs it, and its label names the operator's profile node.
pub(crate) struct PlanNode {
    /// Operator label, shared by the plan line and the profile node.
    pub label: String,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cumulative cost (this operator plus its inputs).
    pub est_cost: f64,
    /// Why this operator/path was chosen, with the driving numbers.
    pub reason: String,
    /// What the operator does.
    pub op: Op,
    /// Input operators.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn new(label: impl Into<String>, est_rows: f64, est_cost: f64, reason: String, op: Op) -> Self {
        PlanNode { label: label.into(), est_rows, est_cost, reason, op, children: Vec::new() }
    }

    /// `self` as the only input of a new node.
    fn under(self, label: impl Into<String>, rows: f64, cost: f64, reason: String, op: Op) -> Self {
        let mut n = PlanNode::new(label, rows, cost, reason, op);
        n.children.push(self);
        n
    }

    /// Render as indented text lines, one per operator:
    /// `LABEL (rows=N, cost=N) -- reason`. The format is a stability
    /// contract (CI parses it); change it only with the golden file.
    pub(crate) fn render_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut Vec<String>, depth: usize) {
        let mut line = format!(
            "{:indent$}{} (rows={}, cost={})",
            "",
            self.label,
            fmt_est(self.est_rows),
            fmt_est(self.est_cost),
            indent = depth * 2
        );
        if !self.reason.is_empty() {
            line.push_str(" -- ");
            line.push_str(&self.reason);
        }
        out.push(line);
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// Estimates print as integers (they are estimates; decimals suggest
/// precision that does not exist).
fn fmt_est(v: f64) -> String {
    format!("{:.0}", v.clamp(0.0, 1e15))
}

/// The operator a [`PlanNode`] stands for. Leaves name their FROM slot;
/// every other operator reads its children in order.
pub(crate) enum Op {
    /// Heap scan, the conjuncts over its one table pushed into it.
    TableScan { slot: usize, filter: Option<Filter> },
    /// Fetch only the rowids `pred`'s domain index returns, the other
    /// conjuncts over its one table pushed into it.
    IndexScan { slot: usize, pred: SpatialPred, filter: Option<Filter> },
    /// `ORDER BY SDO_DISTANCE(col, query) LIMIT k` through the R-tree's
    /// best-first search over slot 0 (replaces the scan and the sort).
    KnnScan { col: usize, query: Arc<Geometry>, k: usize },
    /// A pipelined table function's batches; in `EXPLAIN`, the plans of
    /// its `CURSOR(...)` arguments are its children.
    FunctionScan { slot: usize },
    /// Per-row conjuncts above a join.
    Filter(Filter),
    /// Rowid pairs from the subquery (child 0) fetched from the `left`
    /// and `right` slots' tables.
    RowidSemiJoin { left: usize, right: usize, sub: Box<PlanInput> },
    /// Spatial nested loop: the outer side (child 0) streams, the inner
    /// (child 1) is an [`Op::IndexProbe`] or a scan to materialize.
    /// `pred`'s target is the outer side unless `swap`.
    NestedLoop { pred: SpatialPred, swap: bool },
    /// A nested loop's inner side answered by its domain index.
    IndexProbe,
    /// Cross product: child 0 streams, the rest are materialized.
    Cartesian,
    /// Morsel-driven fan-out of the subtree below at `dop` workers.
    Exchange { site: ExchangeSite, dop: usize },
    /// Blocking ORDER BY.
    Sort { keys: Vec<OrderKey> },
    /// `LIMIT n`.
    Limit(usize),
    /// `COUNT(*)` of the child's rows.
    Count,
}

impl Op {
    /// The FROM slot a leaf reads.
    pub(crate) fn slot(&self) -> Option<usize> {
        match self {
            Op::TableScan { slot, .. } | Op::IndexScan { slot, .. } | Op::FunctionScan { slot } => {
                Some(*slot)
            }
            _ => None,
        }
    }
}

/// Conjuncts one operator evaluates per row: the spatial predicates no
/// index scan consumed, each marked when its domain index's rowid set
/// answers it, and the residual comparisons.
#[derive(Default)]
pub(crate) struct Filter {
    pub spatial: Vec<SpatialPred>,
    pub use_index: Vec<bool>,
    pub residual: Vec<Predicate>,
}

/// What a plan's operators read besides the tree: the bound relations,
/// the instantiated table functions, and the select list.
pub(crate) struct PlanInput {
    pub metas: Arc<Vec<RelMeta>>,
    pub funcs: Vec<Option<BoundFunction>>,
    pub projection: Vec<SelectItem>,
}

/// The complete plan for one SELECT.
pub(crate) struct SelectPlan {
    /// The costed operator tree.
    pub root: PlanNode,
    /// What its operators read.
    pub input: PlanInput,
}

// ---------------------------------------------------------------------------
// Physical decisions
// ---------------------------------------------------------------------------

/// Outer/inner orientation and inner-side method for a spatial
/// nested-loop join.
struct JoinChoice {
    /// Swap the predicate (the `other` relation becomes the outer)?
    swap: bool,
    /// Probe the inner side's domain index (else build/materialize it).
    probe: bool,
    /// Estimated join result pairs.
    est_pairs: f64,
    /// Cost of the chosen orientation.
    est_cost: f64,
    /// The numeric comparison that picked it.
    reason: String,
}

/// A detected `ORDER BY SDO_DISTANCE(col, const) LIMIT k` pushdown
/// (always over relation slot 0 — single-table selects only).
struct KnnChoice {
    /// Geometry column index in the table schema.
    col: usize,
    /// The constant query geometry.
    query: Arc<Geometry>,
    /// Result count.
    k: usize,
    /// Cost of the pushdown path.
    est_cost: f64,
    /// Cost comparison vs. the full sort it replaces.
    reason: String,
}

/// The planner's choice to read one base-table FROM slot through a
/// domain index: fetch only the rowids a constant spatial predicate's
/// index returns, instead of scanning the heap and filtering.
struct IndexScanChoice {
    /// FROM slot whose table scan the index scan replaces.
    slot: usize,
    /// Position of the driving predicate among the spatial predicates
    /// left once the join predicate, if any, is removed.
    pred: usize,
    /// Plan and profile label: `INDEX SCAN T (SDO_RELATE via T_SIDX)`.
    label: String,
    /// Estimated rows the index returns.
    est_rows: f64,
    /// Probe plus per-hit exact test and fetch.
    est_cost: f64,
    /// The comparison that picked it.
    reason: String,
}

/// Where a morsel-driven exchange is placed in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExchangeSite {
    /// Morsel-parallel scan + filter over a single base table (child:
    /// the scan leaf).
    Scan,
    /// Fused scan + filter + per-worker partial sort, merged at the
    /// exchange (child: the SORT over the scan leaf). Under a `LIMIT`
    /// each worker keeps only `limit` rows.
    Sort { limit: Option<usize> },
    /// Parallel rowid-pair semijoin probe: the pair stream is cut into
    /// probe blocks fanned out to workers (child: the semijoin, under
    /// its FILTER when it has one).
    Probe,
}

/// The planner's decision to parallelize part of the pipeline.
struct ExchangeChoice {
    /// Which subtree the exchange covers.
    site: ExchangeSite,
    /// Degree of parallelism (always ≥ 2; dop 1 plans carry no
    /// exchange at all so point queries pay zero overhead).
    dop: usize,
    /// The numbers that picked the dop.
    reason: String,
}

impl ExchangeChoice {
    /// `core` under this exchange.
    fn over(self, core: PlanNode) -> PlanNode {
        let (rows, cost) = (core.est_rows, core.est_cost);
        core.under(
            "EXCHANGE",
            rows,
            cost,
            self.reason,
            Op::Exchange { site: self.site, dop: self.dop },
        )
    }
}

/// Pick a dop for `drive_rows` estimated input rows, or `None` when
/// the work is too small to amortize fan-out. The threshold is two
/// morsels per worker-pair: below that, a second worker never gets a
/// full morsel of its own.
fn choose_exchange(env: &PlanEnv, site: ExchangeSite, drive_rows: f64) -> Option<ExchangeChoice> {
    if env.dop_cap <= 1 {
        return None;
    }
    let morsel = crate::parallel::morsel_rows() as f64;
    let threshold = 2.0 * morsel;
    if drive_rows < threshold {
        return None;
    }
    let by_rows = (drive_rows / morsel).floor().max(1.0) as usize;
    let by_mem = ((env.max_resident_rows as f64 / morsel).floor().max(1.0)) as usize;
    let dop = env.dop_cap.min(by_rows).min(by_mem);
    if dop < 2 {
        return None;
    }
    let reason = format!(
        "dop={dop}: est {} input rows >= threshold {} (morsel={}; session cap {}; memory cap {})",
        fmt_est(drive_rows),
        fmt_est(threshold),
        morsel as usize,
        env.dop_cap,
        by_mem,
    );
    Some(ExchangeChoice { site, dop, reason })
}

// ---------------------------------------------------------------------------
// Selectivity
// ---------------------------------------------------------------------------

/// Estimated output rows of one constant-operand spatial predicate
/// against its target relation, plus a provenance tag.
fn filter_rows(est: &RelEstimate, pred: &SpatialPred) -> (f64, &'static str) {
    let SpatialOperand::Const(qg) = &pred.other else {
        return (est.rows, "join predicate");
    };
    let (_, ci) = pred.target;
    let rows_u = est.rows.max(0.0) as u64;
    if pred.name == "SDO_NN" {
        let k = crate::exec::parse_num_res(&pred.extra).unwrap_or(1) as f64;
        return (k.min(est.rows), "k of SDO_NN");
    }
    if let Some(h) = est.histogram(ci) {
        let window = qg.bbox();
        let out = match pred.name.as_str() {
            "SDO_WITHIN_DISTANCE" => {
                let d = crate::exec::parse_distance(&pred.extra).unwrap_or(0.0);
                h.estimate_within_distance(&window, d, rows_u)
            }
            // SDO_FILTER is exactly the MBR test the histogram models;
            // SDO_RELATE masks refine it (we do not model mask
            // selectivity beyond the window overlap).
            _ => h.estimate_window(&window, rows_u),
        };
        (out, if est.stale { "histogram (STALE)" } else { "histogram" })
    } else {
        (est.rows * DEFAULT_WINDOW_SEL, "default selectivity 0.1 (no histogram)")
    }
}

/// Estimated result pairs of a column-column spatial join. Uses both
/// sides' histograms when available; the fallback assumes roughly one
/// match per row of the larger side.
fn join_pairs(
    target: &RelEstimate,
    tcol: usize,
    other: &RelEstimate,
    ocol: usize,
) -> (f64, &'static str) {
    if let (Some(th), Some(oh)) = (target.histogram(tcol), other.histogram(ocol)) {
        let pairs = th.estimate_join_pairs(target.rows as u64, oh, other.rows as u64);
        let tag = if target.stale || other.stale { "histograms (STALE)" } else { "histograms" };
        (pairs, tag)
    } else {
        (target.rows.max(other.rows), "default: 1 match/row (no histograms)")
    }
}

// ---------------------------------------------------------------------------
// Predicate classification
// ---------------------------------------------------------------------------

/// The WHERE clause, classified once against the bound FROM list.
struct Conjuncts<'a> {
    /// The driving `(l.ROWID, r.ROWID) IN (subquery)`, when any.
    rowid_pair: Option<(&'a ColumnRef, &'a ColumnRef, &'a Select)>,
    /// `OP(...) = 'TRUE'` over a registered spatial operator.
    spatial: Vec<SpatialPred>,
    /// Everything else (a second rowid-pair `IN` included, which fails
    /// when the filter compiles it).
    residual: Vec<Predicate>,
}

/// Classify `sel`'s conjuncts. A spatial predicate that fails to
/// classify is an error, unless some relation's columns are unknown
/// (`bound` false: plain `EXPLAIN` over a table function), where it is
/// planned as a residual.
fn classify_conjuncts<'a>(
    db: &Database,
    metas: &[RelMeta],
    sel: &'a Select,
    bound: bool,
) -> Result<Conjuncts<'a>, DbError> {
    let op_names = db.operator_names();
    let mut out = Conjuncts { rowid_pair: None, spatial: Vec::new(), residual: Vec::new() };
    for p in &sel.where_clause {
        match p {
            Predicate::RowidPairIn { left, right, subquery } if out.rowid_pair.is_none() => {
                out.rowid_pair = Some((left, right, subquery));
            }
            Predicate::Compare { left: Expr::FnCall { name, args }, op: CmpOp::Eq, right }
                if op_names.iter().any(|o| o.eq_ignore_ascii_case(name))
                    && matches!(right, Expr::Literal(v) if v.as_text() == Some("TRUE")) =>
            {
                match classify_spatial(metas, name, args) {
                    Ok(sp) => out.spatial.push(sp),
                    Err(_) if !bound => out.residual.push(p.clone()),
                    Err(e) => return Err(e),
                }
            }
            _ => out.residual.push(p.clone()),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Join planning
// ---------------------------------------------------------------------------

/// True when relation `rel`'s column `col` has a domain index.
fn indexed(db: &Database, metas: &[RelMeta], rel: usize, col: usize) -> Option<String> {
    let m = metas.get(rel)?;
    let t = m.table_name.as_deref()?;
    let name = m.columns.get(col)?;
    db.index_on(t, name).map(|(meta, _)| meta.index_name)
}

/// Cost one nested-loop orientation.
fn nlj_cost(outer_rows: f64, inner_rows: f64, pairs: f64, probe: bool) -> f64 {
    if probe {
        // Stream the outer, one index probe per outer row, fetch+emit
        // each resulting pair (each candidate's exact test is folded
        // into the pair term).
        outer_rows * (C_ROW + C_PROBE) + pairs * (C_EXACT + C_FETCH + C_ROW)
    } else {
        // Materialize the inner once, then exact-test the full cross
        // space per outer row.
        inner_rows * C_ROW + outer_rows * inner_rows * C_EXACT + pairs * C_ROW
    }
}

/// Choose orientation and inner method for the driving spatial join
/// predicate over `jp.target` and column `(or, oc)`; `swap`
/// means the plan transposes the predicate so the second
/// argument's relation drives the loop. `scan_rows[s]` is what scanning
/// slot `s` yields — its index scan's estimate when it has one — so a
/// side an index scan narrows is costed as the narrow side it becomes
/// (a probed inner side is not scanned, and keeps its full size).
fn choose_join(
    db: &Database,
    metas: &[RelMeta],
    ests: &[RelEstimate],
    scan_rows: &[f64],
    jp: &SpatialPred,
    (or, oc): (usize, usize),
) -> JoinChoice {
    let (tr, tc) = jp.target;
    let (pairs, pairs_src) = join_pairs(&ests[tr], tc, &ests[or], oc);
    let share = |s: usize| scan_rows[s] / ests[s].rows.max(1.0);

    // SDO_NN is asymmetric (ranks rows of its first argument); either
    // side of any other predicate may drive, which still tests
    // OP(target, other, extra).
    let swappable = jp.name != "SDO_NN";

    // Candidates: (swap, probe, outer slot, inner slot, inner index).
    type Cand = (bool, bool, usize, usize, Option<String>);
    let mut cands: Vec<Cand> = Vec::new();
    let o_idx = indexed(db, metas, or, oc);
    let t_idx = indexed(db, metas, tr, tc);
    if let Some(ix) = &o_idx {
        cands.push((false, true, tr, or, Some(ix.clone())));
    }
    cands.push((false, false, tr, or, None));
    if swappable {
        if let Some(ix) = &t_idx {
            cands.push((true, true, or, tr, Some(ix.clone())));
        }
        cands.push((true, false, or, tr, None));
    }

    // (cost, pairs out of the join) per candidate.
    let price = |c: &Cand| -> (f64, f64) {
        let (probe, outer, inner) = (c.1, c.2, c.3);
        let inner_rows = if probe { ests[inner].rows } else { scan_rows[inner] };
        let out = pairs * share(outer) * if probe { 1.0 } else { share(inner) };
        (nlj_cost(scan_rows[outer], inner_rows, out, probe), out)
    };
    let costed: Vec<((f64, f64), &Cand)> = cands.iter().map(|c| (price(c), c)).collect();
    let ((best_cost, best_pairs), best) = costed
        .iter()
        .min_by(|a, b| a.0 .0.total_cmp(&b.0 .0))
        .map(|(c, x)| (*c, *x))
        .expect("building the inner side is always a candidate");

    let describe = |c: &Cand| -> String {
        let outer = &metas[c.2].binding;
        match (&c.4, c.1) {
            (Some(ix), true) => format!("outer {} probe {}", outer, ix),
            _ => format!("outer {} build inner", outer),
        }
    };
    let alternatives: Vec<String> = costed
        .iter()
        .filter(|(_, c)| !std::ptr::eq(*c, best))
        .map(|((cost, _), c)| format!("{}≈{}", describe(c), fmt_est(*cost)))
        .collect();
    let mut reason = format!(
        "est {} pairs ({pairs_src}); picked {}≈{}",
        fmt_est(best_pairs),
        describe(best),
        fmt_est(best_cost),
    );
    if !alternatives.is_empty() {
        reason.push_str(&format!("; rejected {}", alternatives.join(", ")));
    }
    if ests[tr].stale || ests[or].stale {
        reason.push_str("; STALE stats — estimates degraded");
    }
    JoinChoice { swap: best.0, probe: best.1, est_pairs: best_pairs, est_cost: best_cost, reason }
}

// ---------------------------------------------------------------------------
// Index scans
// ---------------------------------------------------------------------------

/// Pick the index scan for base-table slot `slot`, if any. Among the
/// constant spatial predicates on the slot whose column has a domain
/// index, the one with the lowest estimated output drives; the others
/// stay in the filter stage. An index scan pays one probe plus an exact
/// test and a heap fetch per hit; the table scan it replaces streams and
/// exact-tests every row, so a window keeping most of the table scans.
fn choose_index_scan(
    db: &Database,
    metas: &[RelMeta],
    ests: &[RelEstimate],
    spatial: &[SpatialPred],
    slot: usize,
) -> Option<IndexScanChoice> {
    let m = &metas[slot];
    let table = m.table_name.as_deref()?;
    let est = &ests[slot];
    let scan_cost = est.rows * (C_ROW + C_EXACT);
    let mut best: Option<IndexScanChoice> = None;
    for (pi, sp) in spatial.iter().enumerate() {
        if sp.target.0 != slot || sp.is_join() {
            continue;
        }
        let Some((imeta, _)) = db.index_on(table, &m.columns[sp.target.1]) else { continue };
        let (out, src) = filter_rows(est, sp);
        let cost = C_PROBE + out * (C_EXACT + C_FETCH);
        // SDO_NN has no per-row form: without the index it ranks the
        // whole table anyway, so its index always drives.
        if (cost >= scan_cost && sp.name != "SDO_NN")
            || best.as_ref().is_some_and(|b| b.est_rows <= out)
        {
            continue;
        }
        best = Some(IndexScanChoice {
            slot,
            pred: pi,
            label: format!("INDEX SCAN {table} ({} via {})", sp.name, imeta.index_name),
            est_rows: out,
            est_cost: cost,
            reason: format!(
                "est {} of {} rows [{src}]; fetch by rowid≈{} vs scan≈{}; {}",
                fmt_est(out),
                fmt_est(est.rows),
                fmt_est(cost),
                fmt_est(scan_cost),
                est.stats_note()
            ),
        });
    }
    best
}

// ---------------------------------------------------------------------------
// kNN pushdown detection
// ---------------------------------------------------------------------------

/// Recognize `SELECT ... FROM t ORDER BY SDO_DISTANCE(t.geom, const)
/// [ASC] LIMIT k` with no WHERE clause over an R-tree-indexed geometry
/// column. The R-tree's incremental best-first search produces exactly
/// the `(distance, rowid)`-ascending order a stable full sort would,
/// so the rewrite is result-identical while touching ~k rows instead
/// of all of them.
fn detect_knn(
    db: &Database,
    metas: &[RelMeta],
    ests: &[RelEstimate],
    sel: &Select,
) -> Option<KnnChoice> {
    if sel.from.len() != 1 || !sel.where_clause.is_empty() {
        return None;
    }
    let k = sel.limit?;
    if k == 0 {
        return None;
    }
    let [key] = sel.order_by.as_slice() else { return None };
    if key.descending {
        return None;
    }
    let Expr::FnCall { name, args } = &key.expr else { return None };
    if !name.eq_ignore_ascii_case("SDO_DISTANCE") || args.len() != 2 {
        return None;
    }
    // One argument is the table's geometry column, the other a
    // constant geometry (either order — distance is symmetric).
    let mut col: Option<usize> = None;
    let mut query: Option<Arc<Geometry>> = None;
    for a in args {
        match a {
            Expr::Column(cr) => {
                let (r, c) = resolve_column_meta(metas, cr).ok()?;
                if r != 0 || c == usize::MAX || col.is_some() {
                    return None;
                }
                col = Some(c);
            }
            e => {
                let v = eval_const(e).ok()?;
                query = Some(v.as_geometry().cloned()?);
            }
        }
    }
    let (col, query) = (col?, query?);
    let m = &metas[0];
    let (imeta, _) = db.index_on(m.table_name.as_deref()?, &m.columns[col])?;
    if imeta.kind != IndexKind::RTree {
        return None;
    }
    let n = ests[0].rows.max(1.0);
    let sort_cost = n * (C_ROW + C_EXACT) + n * n.log2().max(1.0) * C_CMP;
    let knn_cost = (k as f64) * C_KNN + n.log2().max(1.0) * C_PROBE;
    Some(KnnChoice {
        col,
        query,
        k,
        est_cost: knn_cost,
        reason: format!(
            "best-first search in {} visits ≈{k} rows (cost≈{}) instead of sorting {} (cost≈{})",
            imeta.index_name,
            fmt_est(knn_cost),
            fmt_est(n),
            fmt_est(sort_cost),
        ),
    })
}

// ---------------------------------------------------------------------------
// plan_select
// ---------------------------------------------------------------------------

/// The leaf reading FROM slot `slot`: its index scan when one was
/// chosen (consuming its driving predicate from `spatial`), else a
/// table or table-function scan, the latter over its `CURSOR(...)`
/// argument plans.
fn scan_node(
    sel: &Select,
    est: &RelEstimate,
    cursors: &mut Vec<PlanNode>,
    index_scan: Option<&IndexScanChoice>,
    spatial: &mut [Option<SpatialPred>],
    slot: usize,
) -> PlanNode {
    if let Some(c) = index_scan {
        let pred = spatial[c.pred].take().expect("each predicate drives one index scan");
        let op = Op::IndexScan { slot, pred, filter: None };
        return PlanNode::new(c.label.clone(), c.est_rows, c.est_cost, c.reason.clone(), op);
    }
    match &sel.from[slot] {
        FromItem::Table { name, .. } => PlanNode::new(
            format!("TABLE SCAN {}", name.to_ascii_uppercase()),
            est.rows,
            est.rows * C_ROW,
            est.stats_note(),
            Op::TableScan { slot, filter: None },
        ),
        FromItem::TableFunction { name, .. } => {
            let mut n = PlanNode::new(
                format!("TABLE FUNCTION SCAN {}", name.to_ascii_uppercase()),
                est.rows,
                est.rows * C_ROW,
                "pipelined; row estimate is a default (no stats for functions)".to_string(),
                Op::FunctionScan { slot },
            );
            n.children = std::mem::take(cursors);
            n
        }
    }
}

/// Check a rowid-pair `IN`'s references: the ROWIDs of two distinct
/// base tables, the only two FROM items. Returns their slots.
fn rowid_pair_slots(
    metas: &[RelMeta],
    left: &ColumnRef,
    right: &ColumnRef,
) -> Result<(usize, usize), DbError> {
    if metas.len() != 2 {
        return Err(DbError::Plan("rowid-pair IN requires exactly two tables".into()));
    }
    let (l_rel, l_col) = resolve_column_meta(metas, left)?;
    let (r_rel, r_col) = resolve_column_meta(metas, right)?;
    if l_col != usize::MAX || r_col != usize::MAX {
        return Err(DbError::Plan("rowid-pair IN requires ROWID references".into()));
    }
    if l_rel == r_rel {
        return Err(DbError::Plan("rowid pair must reference two distinct tables".into()));
    }
    if metas[l_rel].table.is_none() || metas[r_rel].table.is_none() {
        return Err(DbError::Plan("rowid pair over non-table".into()));
    }
    Ok((l_rel, r_rel))
}

/// Plan a SELECT: bind its FROM list per `binding`, classify its WHERE
/// clause, and choose every operator of the costed tree.
pub(crate) fn plan_select(
    db: &Database,
    sel: &Select,
    env: &PlanEnv,
    binding: Binding<'_, '_>,
) -> Result<SelectPlan, DbError> {
    let Relations { metas, ests, funcs, mut cursors, bound } = bind(db, sel, env, binding)?;
    let Conjuncts { rowid_pair, mut spatial, residual } =
        classify_conjuncts(db, &metas, sel, bound)?;
    let width = sel.from.len();

    // The column-column spatial predicate drives a nested loop unless a
    // rowid-pair semijoin drives; the constant predicates that remain
    // are what index scans and the filter stage answer.
    let join_pred = match rowid_pair {
        None => spatial.iter().position(|s| s.is_join()).map(|p| spatial.remove(p)),
        Some(_) => None,
    };
    // (predicate, other side's (slot, column))
    let join_pred = join_pred.map(|jp| match jp.other {
        SpatialOperand::Column(r, c) => (jp, (r, c)),
        SpatialOperand::Const(_) => unreachable!("a join predicate has a column operand"),
    });
    if join_pred.as_ref().is_some_and(|(jp, (or, _))| jp.target.0 == *or) {
        return Err(DbError::Plan("spatial join requires two distinct tables".into()));
    }
    // The index scan each slot would get as a scan leaf; the rowid-pair
    // semijoin fetches its sides by rowid and scans neither.
    let mut slot_scans: Vec<Option<IndexScanChoice>> = (0..width)
        .map(|s| match rowid_pair {
            None => choose_index_scan(db, &metas, &ests, &spatial, s),
            Some(_) => None,
        })
        .collect();
    let scan_rows: Vec<f64> =
        (0..width).map(|s| slot_scans[s].as_ref().map_or(ests[s].rows, |c| c.est_rows)).collect();
    // The costed orientation: the predicate's target is the outer side.
    let join = match join_pred {
        Some((jp, other)) => {
            let c = choose_join(db, &metas, &ests, &scan_rows, &jp, other);
            Some((jp, c))
        }
        None => None,
    };
    // A probed inner side is not a scan leaf: its constant predicates
    // stay in the filter stage.
    if let Some((jp, JoinChoice { probe: true, swap, .. })) = &join {
        if let Some((_, (inner, _))) = jp.loop_sides(*swap) {
            slot_scans[inner] = None;
        }
    }
    let index_scans: Vec<IndexScanChoice> = slot_scans.into_iter().flatten().collect();
    let leaf_rows = |slot: usize| -> f64 {
        index_scans.iter().find(|c| c.slot == slot).map_or(ests[slot].rows, |c| c.est_rows)
    };
    let knn = if sel.order_by.is_empty() { None } else { detect_knn(db, &metas, &ests, sel) };
    let stream_slot =
        (0..width).max_by(|&a, &b| leaf_rows(a).total_cmp(&leaf_rows(b))).unwrap_or(0);
    let mut spatial: Vec<Option<SpatialPred>> = spatial.into_iter().map(Some).collect();
    let mut leaves: Vec<Option<PlanNode>> = (0..width)
        .map(|s| {
            let c = index_scans.iter().find(|c| c.slot == s);
            Some(scan_node(sel, &ests[s], &mut cursors[s], c, &mut spatial, s))
        })
        .collect();
    let spatial: Vec<SpatialPred> = spatial.into_iter().flatten().collect();
    let mut leaf = |s: usize| leaves[s].take().expect("each FROM item is read once");

    // Core strategy node.
    let mut core: PlanNode;
    if let Some((left, right, subquery)) = rowid_pair {
        let (l_rel, r_rel) = rowid_pair_slots(&metas, left, right)?;
        let SelectPlan { root: sub, input } = plan_select(db, subquery, env, binding)?;
        let pairs = sub.est_rows;
        let cost = sub.est_cost + pairs * (2.0 * C_FETCH + C_ROW);
        core = sub.under(
            "ROWID-PAIR SEMIJOIN",
            pairs,
            cost,
            "fetches both base rows per pair from the subquery stream".to_string(),
            Op::RowidSemiJoin { left: l_rel, right: r_rel, sub: Box::new(input) },
        );
    } else if let Some((jp, c)) = join {
        let ((outer, _), (inner, ic)) = jp.loop_sides(c.swap).expect("a join predicate");
        let label = format!("NESTED LOOP JOIN ({})", jp.name);
        let op = Op::NestedLoop { pred: jp, swap: c.swap };
        core = PlanNode::new(label, c.est_pairs, c.est_cost, c.reason, op);
        core.children.push(leaf(outer));
        core.children.push(if c.probe {
            let ix = indexed(db, &metas, inner, ic).unwrap_or_default();
            PlanNode::new(
                format!("INDEX PROBE {ix}"),
                c.est_pairs,
                0.0,
                "one probe per outer row; cost folded into the join".to_string(),
                Op::IndexProbe,
            )
        } else {
            leaf(inner)
        });
    } else if width > 1 {
        // Cartesian product: stream the largest relation, materialize
        // the smaller ones (resident rows = sum of materialized sizes).
        let out_rows: f64 = (0..width).map(|s| leaf_rows(s).max(1.0)).product();
        let mat_rows: f64 = (0..width).filter(|&s| s != stream_slot).map(&leaf_rows).sum();
        core = PlanNode::new(
            "CARTESIAN PRODUCT",
            out_rows,
            out_rows * C_ROW + mat_rows * C_ROW,
            format!(
                "streams {} ({} rows, largest); materializes {} rows total",
                metas[stream_slot].binding,
                fmt_est(leaf_rows(stream_slot)),
                fmt_est(mat_rows)
            ),
            Op::Cartesian,
        );
        core.children.push(leaf(stream_slot));
        for s in (0..width).filter(|&s| s != stream_slot) {
            core.children.push(leaf(s));
        }
    } else {
        core = leaf(0);
    }

    // Filter stage: estimate output of the spatial predicates no index
    // scan consumed plus the residual conjuncts; decide index-vs-scan
    // per remaining constant spatial predicate.
    let mut use_index = Vec::with_capacity(spatial.len());
    let mut rows = core.est_rows;
    let mut cost = core.est_cost;
    let mut notes: Vec<String> = Vec::new();
    for sp in &spatial {
        let (tr, _) = sp.target;
        let (out, src) = filter_rows(&ests[tr], sp);
        let in_rows = ests[tr].rows.max(1.0);
        let sel_frac = (out / in_rows).clamp(0.0, 1.0);
        let has_index = matches!(sp.other, SpatialOperand::Const(_))
            && indexed(db, &metas, sp.target.0, sp.target.1).is_some();
        // The index's rowid set pays one probe plus per-candidate exact
        // tests; the functional path pays an exact
        // test per input row. When the window keeps most of the table,
        // the probe is overhead on top of the same exact work.
        let index_cost = C_PROBE + out * C_EXACT + rows * C_ROW;
        let scan_cost = rows * (C_ROW + C_EXACT);
        let by_index = has_index && index_cost < scan_cost;
        use_index.push(by_index);
        let path = if by_index {
            format!("index rowid set (probe≈{} < scan≈{})", fmt_est(index_cost), fmt_est(scan_cost))
        } else if has_index {
            format!(
                "functional evaluation (scan≈{} <= probe≈{})",
                fmt_est(scan_cost),
                fmt_est(index_cost)
            )
        } else {
            "functional evaluation (no index)".to_string()
        };
        notes.push(format!("{} sel={:.3} [{}] via {}", sp.name, sel_frac, src, path));
        cost += if by_index { index_cost } else { scan_cost };
        rows *= sel_frac;
    }
    if !residual.is_empty() {
        // Residual comparisons: the classic 1/3 guess per conjunct.
        for _ in &residual {
            cost += rows * C_ROW;
            rows /= 3.0;
        }
        notes.push(format!("{} residual conjunct(s) sel=0.333 each", residual.len()));
    }
    // One base table: its scan leaf (table or index scan) tests the
    // conjuncts on each row it reads. Above anything else they are a
    // FILTER stage.
    let single_base = matches!(core.op, Op::TableScan { .. } | Op::IndexScan { .. });
    if !notes.is_empty() {
        if let Op::TableScan { filter, .. } | Op::IndexScan { filter, .. } = &mut core.op {
            let text = crate::operators::filter_text(&metas, &spatial, &residual);
            core.reason = format!("{}; filter={text}; {}", core.reason, notes.join("; "));
            (core.est_rows, core.est_cost) = (rows, cost);
            *filter = Some(Filter { spatial, use_index, residual });
        } else {
            let f = Filter { spatial, use_index, residual };
            core = core.under("FILTER", rows, cost, notes.join("; "), Op::Filter(f));
        }
    }

    // Exchange placement. The kNN pushdown touches ~k rows and never
    // parallelizes; everything else is sited by shape: semijoins fan
    // out probe blocks, single-base-table pipelines fan out scan
    // morsels — under a sort, the workers run the sort too and the
    // exchange merges sorted runs. The driving estimate is the scan
    // leaf's output (base-table rows, or an index scan's hits), because
    // morsels partition what the leaf reads regardless of its filter.
    let exchange = if knn.is_some() {
        None
    } else if rowid_pair.is_some() {
        // The subquery's estimate is often a function default; the
        // base tables bound the real pair volume better.
        let drive = ests.iter().fold(0.0f64, |m, e| m.max(e.rows));
        choose_exchange(env, ExchangeSite::Probe, drive)
    } else if single_base {
        let site = match sel.order_by.is_empty() {
            true => ExchangeSite::Scan,
            false => ExchangeSite::Sort { limit: sel.limit },
        };
        choose_exchange(env, site, leaf_rows(0))
    } else {
        None
    };
    let (exchange, sort_exchange) = match exchange {
        Some(x) if matches!(x.site, ExchangeSite::Sort { .. }) => (None, Some(x)),
        x => (x, None),
    };
    if let Some(x) = exchange {
        core = x.over(core);
    }

    // ORDER BY: either the kNN pushdown (replacing the scan and the
    // sort) or a full sort.
    if let Some(knn) = knn {
        core = PlanNode::new(
            format!("KNN SCAN {} (k={})", metas[0].binding, knn.k),
            (knn.k as f64).min(ests[0].rows),
            knn.est_cost,
            knn.reason,
            Op::KnnScan { col: knn.col, query: knn.query, k: knn.k },
        );
    } else if !sel.order_by.is_empty() {
        let n_in = core.est_rows.max(1.0);
        let (rows, cost) = (core.est_rows, core.est_cost + n_in * n_in.log2().max(1.0) * C_CMP);
        core = core.under(
            format!("SORT [{} key(s)]", sel.order_by.len()),
            rows,
            cost,
            "blocking full sort; all input rows resident".to_string(),
            Op::Sort { keys: sel.order_by.clone() },
        );
        if let Some(x) = sort_exchange {
            core = x.over(core);
        }
    }

    if let Some(k) = sel.limit {
        let (rows, cost) = (core.est_rows.min(k as f64), core.est_cost);
        let reason = "early termination propagates close() down the pipeline".to_string();
        core = core.under(format!("LIMIT {k}"), rows, cost, reason, Op::Limit(k));
    }
    if sel.projection == [SelectItem::CountStar] {
        let cost = core.est_cost;
        core = core.under("AGGREGATE COUNT(*)", 1.0, cost, String::new(), Op::Count);
    }

    let input = PlanInput { metas: Arc::new(metas), funcs, projection: sel.projection.clone() };
    Ok(SelectPlan { root: core, input })
}
