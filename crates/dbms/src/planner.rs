//! Cost-based planner for SELECT statements.
//!
//! Consumes the statistics `ANALYZE` persists ([`TableStats`]: row
//! counts, per-column NDV, spatial MBR histograms) and produces, for
//! every SELECT, a costed [`PlanNode`] tree plus the concrete physical
//! decisions the executors consult:
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
//!   the index's incremental best-first search instead.
//!
//! Every decision carries a human-readable reason with the numbers
//! that drove it; `EXPLAIN` renders the tree, and the streaming
//! operators stamp the same reasons onto their profile nodes so
//! `EXPLAIN ANALYZE` shows estimate vs. actual side by side.
//!
//! Statistics are advisory: missing or stale stats (more than
//! `max(64, rows/5)` modifications since `ANALYZE`) degrade to
//! documented defaults, never to errors, and the plan flags the
//! degradation.

use crate::db::Database;
use crate::error::DbError;
use crate::exec::{classify_spatial, eval_const, RelMeta, SpatialOperand, SpatialPred};
use crate::sql::ast::{Expr, FromItem, Predicate, Select, SelectItem, TfArgAst};
use sdo_geom::Geometry;
use sdo_storage::{IndexKind, TableStats};
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
/// Captured from the session options at plan time (`EXPLAIN`) or
/// execution time (the streaming builder), so a prepared statement
/// re-resolves them on every `EXECUTE`.
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

/// Build the planner's view of the FROM list **without** instantiating
/// table functions (plain `EXPLAIN` must not evaluate `CURSOR(...)`
/// arguments). Table-function relations get empty column lists;
/// predicates referencing them simply fail to classify and are planned
/// as residual filters.
pub(crate) fn plan_relations(
    db: &Database,
    sel: &Select,
) -> Result<(Vec<RelMeta>, Vec<RelEstimate>), DbError> {
    let mut metas = Vec::with_capacity(sel.from.len());
    let mut ests = Vec::with_capacity(sel.from.len());
    for item in &sel.from {
        match item {
            FromItem::Table { name, .. } => {
                let table = db.table(name)?;
                let columns: Vec<String> =
                    table.read().schema().columns().iter().map(|c| c.name.clone()).collect();
                ests.push(table_estimate(db, name, &table.read()));
                metas.push(RelMeta {
                    binding: item.binding().to_ascii_uppercase(),
                    columns,
                    table: Some(table),
                    table_name: Some(name.to_ascii_uppercase()),
                });
            }
            FromItem::TableFunction { .. } => {
                metas.push(RelMeta {
                    binding: item.binding().to_ascii_uppercase(),
                    columns: Vec::new(),
                    table: None,
                    table_name: None,
                });
                ests.push(RelEstimate { rows: DEFAULT_TF_ROWS, stats: None, stale: false });
            }
        }
    }
    Ok((metas, ests))
}

// ---------------------------------------------------------------------------
// Plan tree
// ---------------------------------------------------------------------------

/// One operator of the costed plan. Rendered by `EXPLAIN`; the
/// estimates are also stamped onto profile nodes at execution.
pub(crate) struct PlanNode {
    /// Operator label, matching the executor's profile-node name.
    pub label: String,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cumulative cost (this operator plus its inputs).
    pub est_cost: f64,
    /// Why this operator/path was chosen, with the driving numbers.
    pub reason: String,
    /// Input operators.
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    fn new(label: impl Into<String>, est_rows: f64, est_cost: f64, reason: String) -> Self {
        PlanNode { label: label.into(), est_rows, est_cost, reason, children: Vec::new() }
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

// ---------------------------------------------------------------------------
// Physical decisions
// ---------------------------------------------------------------------------

/// Outer/inner orientation and inner-side method for a spatial
/// nested-loop join.
pub(crate) struct JoinChoice {
    /// Swap the predicate (the `other` relation becomes the outer)?
    pub swap: bool,
    /// Probe the inner side's domain index (else build/materialize it).
    pub probe: bool,
    /// Estimated join result pairs.
    pub est_pairs: f64,
    /// Cost of the chosen orientation.
    pub est_cost: f64,
    /// The numeric comparison that picked it.
    pub reason: String,
}

/// A detected `ORDER BY SDO_DISTANCE(col, const) LIMIT k` pushdown
/// (always over relation slot 0 — single-table selects only).
pub(crate) struct KnnChoice {
    /// Geometry column index in the table schema.
    pub col: usize,
    /// The constant query geometry.
    pub query: Arc<Geometry>,
    /// Result count.
    pub k: usize,
    /// Cost of the pushdown path.
    pub est_cost: f64,
    /// Cost comparison vs. the full sort it replaces.
    pub reason: String,
}

/// Per-spatial-predicate filter path: `true` = answer the predicate by
/// the domain index's rowid set when one exists, `false` = planner
/// determined functional evaluation is cheaper (index probe disabled).
/// Consulted only for predicates no index scan consumed.
pub(crate) type FilterHints = Vec<bool>;

/// The planner's choice to read one base-table FROM slot through a
/// domain index: fetch only the rowids a constant spatial predicate's
/// index returns, instead of scanning the heap and filtering.
pub(crate) struct IndexScanChoice {
    /// FROM slot whose table scan the index scan replaces.
    pub slot: usize,
    /// Position of the driving predicate in the constant-predicate list
    /// (the executor's `spatial` list once the join predicate, if any,
    /// is removed); the index scan consumes it.
    pub pred: usize,
    /// Plan and profile label: `INDEX SCAN T (SDO_RELATE via T_SIDX)`.
    pub label: String,
    /// Estimated rows the index returns.
    pub est_rows: f64,
    /// Probe plus per-hit exact test and fetch.
    pub est_cost: f64,
    /// The comparison that picked it.
    pub reason: String,
}

/// Where a morsel-driven exchange is placed in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExchangeSite {
    /// Morsel-parallel table scan + filter over a single base table.
    Scan,
    /// Fused scan + filter + per-worker partial sort, merged at the
    /// exchange (covers ORDER BY and top-k).
    Sort,
    /// Parallel rowid-pair semijoin probe: the pair stream is cut into
    /// probe blocks fanned out to workers.
    Probe,
}

/// The planner's decision to parallelize part of the pipeline.
#[derive(Debug, Clone)]
pub(crate) struct ExchangeChoice {
    /// Which subtree the exchange covers.
    pub site: ExchangeSite,
    /// Degree of parallelism (always ≥ 2; dop 1 plans carry no
    /// exchange at all so point queries pay zero overhead).
    pub dop: usize,
    /// The numbers that picked the dop.
    pub reason: String,
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

/// The complete plan for one SELECT.
pub(crate) struct SelectPlan {
    /// Costed operator tree for `EXPLAIN` (and attr stamping).
    pub root: PlanNode,
    /// Spatial nested-loop decision, when the query joins on a spatial
    /// predicate.
    pub join: Option<JoinChoice>,
    /// kNN pushdown, when detected.
    pub knn: Option<KnnChoice>,
    /// Which FROM slot streams in a cartesian product (the rest are
    /// materialized); slot 0 unless reordering pays.
    pub stream_slot: usize,
    /// Index-vs-scan hints for constant spatial predicates, in
    /// classification order (parallel to the executor's `spatial` list
    /// after the join predicate, if any, is removed).
    pub filter_hints: FilterHints,
    /// Base-table slots read by index scan, at most one per slot.
    pub index_scans: Vec<IndexScanChoice>,
    /// Morsel-driven exchange placement, when part of the pipeline is
    /// worth parallelizing under the session's dop cap.
    pub exchange: Option<ExchangeChoice>,
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
// Predicate classification (planning copy)
// ---------------------------------------------------------------------------

/// What the planner extracted from the WHERE clause. Mirrors the
/// executor's classification, but tolerant: anything that fails to
/// classify (e.g. a spatial predicate over a table-function column
/// whose schema is unknown pre-instantiation) is kept as residual.
struct Conjuncts<'a> {
    rowid_pair: Option<&'a Select>,
    spatial: Vec<SpatialPred>,
    residual: Vec<&'a Predicate>,
}

fn classify_conjuncts<'a>(db: &Database, metas: &[RelMeta], sel: &'a Select) -> Conjuncts<'a> {
    let op_names = db.operator_names();
    let mut out = Conjuncts { rowid_pair: None, spatial: Vec::new(), residual: Vec::new() };
    for p in &sel.where_clause {
        match p {
            Predicate::RowidPairIn { subquery, .. } => {
                if out.rowid_pair.is_none() {
                    out.rowid_pair = Some(subquery);
                } else {
                    out.residual.push(p);
                }
            }
            Predicate::Compare { left: Expr::FnCall { name, args }, op, right }
                if *op == crate::sql::ast::CmpOp::Eq
                    && op_names.iter().any(|o| o.eq_ignore_ascii_case(name))
                    && matches!(right, Expr::Literal(v) if v.as_text() == Some("TRUE")) =>
            {
                match classify_spatial(metas, name, args) {
                    Ok(sp) => out.spatial.push(sp),
                    Err(_) => out.residual.push(p),
                }
            }
            _ => out.residual.push(p),
        }
    }
    out
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
        // each resulting pair (the index refines internally; its exact
        // tests are folded into the pair term).
        outer_rows * (C_ROW + C_PROBE) + pairs * (C_EXACT + C_FETCH + C_ROW)
    } else {
        // Materialize the inner once, then exact-test the full cross
        // space per outer row.
        inner_rows * C_ROW + outer_rows * inner_rows * C_EXACT + pairs * C_ROW
    }
}

/// Choose orientation and inner method for the driving spatial join
/// predicate. `jp.target` is the predicate's first argument; `swap`
/// means the executor should transpose the predicate so the second
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
) -> Option<JoinChoice> {
    let (tr, tc) = jp.target;
    let SpatialOperand::Column(or, oc) = jp.other else { return None };
    let (pairs, pairs_src) = join_pairs(&ests[tr], tc, &ests[or], oc);
    let share = |s: usize| scan_rows[s] / ests[s].rows.max(1.0);

    // SDO_NN is asymmetric (ranks rows of its first argument) and must
    // not be transposed; SDO_RELATE masks transpose cleanly, distance
    // and filter predicates are symmetric.
    let swappable =
        jp.name != "SDO_NN" && crate::exec::transpose_spatial_extra(&jp.name, &jp.extra).is_ok();

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
    let ((best_cost, best_pairs), best) =
        costed.iter().min_by(|a, b| a.0 .0.total_cmp(&b.0 .0)).map(|(c, x)| (*c, *x))?;

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
    Some(JoinChoice {
        swap: best.0,
        probe: best.1,
        est_pairs: best_pairs,
        est_cost: best_cost,
        reason,
    })
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

/// The index scan, if any, for a single-table DML statement's row
/// collection (`UPDATE`/`DELETE … WHERE`), chosen exactly as for the
/// FROM slot of a single-table SELECT.
pub(crate) fn plan_dml_scan(
    db: &Database,
    metas: &[RelMeta],
    spatial: &[SpatialPred],
) -> Option<IndexScanChoice> {
    let m = metas.first()?;
    let est = table_estimate(db, m.table_name.as_deref()?, &m.table.as_ref()?.read());
    choose_index_scan(db, metas, &[est], spatial, 0)
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
                let (r, c) = crate::exec::resolve_column_meta(metas, cr).ok()?;
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

/// The leaf for FROM slot `slot`: its index scan when one was chosen,
/// else a table or table-function scan. Table-function leaves show
/// their `CURSOR(...)` argument plans as children — they run through
/// the same executor.
fn scan_node(
    db: &Database,
    sel: &Select,
    ests: &[RelEstimate],
    index_scans: &[IndexScanChoice],
    slot: usize,
    env: &PlanEnv,
) -> PlanNode {
    if let Some(c) = index_scans.iter().find(|c| c.slot == slot) {
        return PlanNode::new(c.label.clone(), c.est_rows, c.est_cost, c.reason.clone());
    }
    match &sel.from[slot] {
        FromItem::Table { name, .. } => PlanNode::new(
            format!("TABLE SCAN {}", name.to_ascii_uppercase()),
            ests[slot].rows,
            ests[slot].rows * C_ROW,
            ests[slot].stats_note(),
        ),
        FromItem::TableFunction { name, args, .. } => {
            let mut n = PlanNode::new(
                format!("TABLE FUNCTION SCAN {}", name.to_ascii_uppercase()),
                ests[slot].rows,
                ests[slot].rows * C_ROW,
                "pipelined; row estimate is a default (no stats for functions)".to_string(),
            );
            for a in args {
                if let TfArgAst::Cursor(sub) = a {
                    if let Ok(subplan) = plan_select(db, sub, env) {
                        let mut c = subplan.root;
                        c.label = format!("CURSOR: {}", c.label);
                        n.children.push(c);
                    }
                }
            }
            n
        }
    }
}

/// Plan a SELECT: estimates, path choices, and the costed tree.
/// Never instantiates table functions or evaluates `CURSOR(...)`
/// arguments — safe for plain `EXPLAIN`.
pub(crate) fn plan_select(
    db: &Database,
    sel: &Select,
    env: &PlanEnv,
) -> Result<SelectPlan, DbError> {
    let (metas, ests) = plan_relations(db, sel)?;
    let mut conj = classify_conjuncts(db, &metas, sel);

    // Pipelined COUNT(*) fast path.
    if sel.projection == [SelectItem::CountStar]
        && sel.where_clause.is_empty()
        && sel.order_by.is_empty()
        && sel.limit.is_none()
        && sel.from.len() == 1
        && matches!(sel.from[0], FromItem::TableFunction { .. })
    {
        let child = scan_node(db, sel, &ests, &[], 0, env);
        let mut root = PlanNode::new(
            "PIPELINED COUNT",
            1.0,
            child.est_cost + child.est_rows * C_ROW,
            "streams batches; no materialization".to_string(),
        );
        root.children.push(child);
        return Ok(SelectPlan {
            root,
            join: None,
            knn: None,
            stream_slot: 0,
            filter_hints: Vec::new(),
            index_scans: Vec::new(),
            exchange: None,
        });
    }

    // The column-column spatial predicate drives a nested loop unless a
    // rowid-pair semijoin drives; the constant predicates that remain
    // are what index scans and the filter stage answer.
    let join_pred = match conj.rowid_pair {
        None => conj.spatial.iter().position(|s| s.is_join()).map(|p| conj.spatial.remove(p)),
        Some(_) => None,
    };
    // The index scan each slot would get as a scan leaf; the rowid-pair
    // semijoin fetches its sides by rowid and scans neither.
    let mut slot_scans: Vec<Option<IndexScanChoice>> = (0..sel.from.len())
        .map(|s| match conj.rowid_pair {
            None => choose_index_scan(db, &metas, &ests, &conj.spatial, s),
            Some(_) => None,
        })
        .collect();
    let scan_rows: Vec<f64> = (0..sel.from.len())
        .map(|s| slot_scans[s].as_ref().map_or(ests[s].rows, |c| c.est_rows))
        .collect();
    let join_choice =
        join_pred.as_ref().and_then(|jp| choose_join(db, &metas, &ests, &scan_rows, jp));
    // (outer slot, inner slot, inner probes its index)
    let join_slots = join_pred.as_ref().map(|jp| {
        let (tr, _) = jp.target;
        let SpatialOperand::Column(or, _) = jp.other else { unreachable!("join predicate") };
        match &join_choice {
            Some(c) if c.swap => (or, tr, c.probe),
            c => (tr, or, c.as_ref().is_some_and(|c| c.probe)),
        }
    });

    // A probed inner side is not a scan leaf: its constant predicates
    // stay in the filter stage.
    if let Some((_, inner, true)) = join_slots {
        slot_scans[inner] = None;
    }
    let index_scans: Vec<IndexScanChoice> = slot_scans.into_iter().flatten().collect();
    let leaf_rows = |slot: usize| -> f64 {
        index_scans.iter().find(|c| c.slot == slot).map_or(ests[slot].rows, |c| c.est_rows)
    };
    let scan_leaf = |slot: usize| scan_node(db, sel, &ests, &index_scans, slot, env);

    let mut knn_choice: Option<KnnChoice> = None;
    let mut stream_slot = 0usize;

    // Core strategy node.
    let mut core: PlanNode;
    if let Some(subquery) = conj.rowid_pair {
        // The subquery is its own pipeline (typically a pipelined
        // table-function scan); exchanges never nest inside it.
        let sub = plan_select(db, subquery, &PlanEnv::serial())?;
        let pairs = sub.root.est_rows;
        let mut n = PlanNode::new(
            "ROWID-PAIR SEMIJOIN",
            pairs,
            sub.root.est_cost + pairs * (2.0 * C_FETCH + C_ROW),
            "fetches both base rows per pair from the subquery stream".to_string(),
        );
        n.children.push(sub.root);
        core = n;
    } else if let (Some(jp), Some((outer_slot, inner_slot, probe))) = (&join_pred, join_slots) {
        let (tr, _) = jp.target;
        let SpatialOperand::Column(or, oc) = jp.other else { unreachable!("join predicate") };
        let (pairs, cost, reason) = match &join_choice {
            Some(c) => (c.est_pairs, c.est_cost, c.reason.clone()),
            None => (
                ests[tr].rows.max(ests[or].rows),
                nlj_cost(ests[tr].rows, ests[or].rows, ests[tr].rows.max(ests[or].rows), false),
                "no costing possible; default orientation".to_string(),
            ),
        };
        let mut n = PlanNode::new(format!("NESTED LOOP JOIN ({})", jp.name), pairs, cost, reason);
        n.children.push(scan_leaf(outer_slot));
        if probe {
            let inner_col = if inner_slot == tr { jp.target.1 } else { oc };
            let ix = indexed(db, &metas, inner_slot, inner_col).unwrap_or_default();
            n.children.push(PlanNode::new(
                format!("INDEX PROBE {ix}"),
                pairs,
                0.0,
                "one probe per outer row; cost folded into the join".to_string(),
            ));
        } else {
            n.children.push(scan_leaf(inner_slot));
        }
        core = n;
    } else if sel.from.len() > 1 {
        // Cartesian product: stream the largest relation, materialize
        // the smaller ones (resident rows = sum of materialized sizes).
        stream_slot =
            (0..sel.from.len()).max_by(|&a, &b| leaf_rows(a).total_cmp(&leaf_rows(b))).unwrap_or(0);
        let out_rows: f64 = (0..sel.from.len()).map(|s| leaf_rows(s).max(1.0)).product();
        let mat_rows: f64 = (0..sel.from.len()).filter(|&s| s != stream_slot).map(&leaf_rows).sum();
        let mut n = PlanNode::new(
            "CARTESIAN PRODUCT",
            out_rows,
            out_rows * C_ROW + mat_rows * C_ROW,
            format!(
                "streams {} ({} rows, largest); materializes {} rows total",
                metas[stream_slot].binding,
                fmt_est(leaf_rows(stream_slot)),
                fmt_est(mat_rows)
            ),
        );
        n.children.push(scan_leaf(stream_slot));
        for s in 0..sel.from.len() {
            if s != stream_slot {
                n.children.push(scan_leaf(s));
            }
        }
        core = n;
    } else {
        core = scan_leaf(0);
    }

    // Filter stage: estimate output of the spatial predicates no index
    // scan consumed plus the residual conjuncts; decide index-vs-scan
    // per remaining constant spatial predicate.
    let consumed = |pi: usize| index_scans.iter().any(|c| c.pred == pi);
    let mut filter_hints: FilterHints = Vec::with_capacity(conj.spatial.len());
    let mut rows = core.est_rows;
    let mut cost = core.est_cost;
    let mut notes: Vec<String> = Vec::new();
    for (pi, sp) in conj.spatial.iter().enumerate() {
        let (tr, _) = sp.target;
        let (out, src) = filter_rows(&ests[tr], sp);
        let in_rows = ests[tr].rows.max(1.0);
        let sel_frac = (out / in_rows).clamp(0.0, 1.0);
        let has_index = matches!(sp.other, SpatialOperand::Const(_))
            && indexed(db, &metas, sp.target.0, sp.target.1).is_some();
        // The index's rowid set pays one probe plus per-candidate exact
        // tests inside the index; the functional path pays an exact
        // test per input row. When the window keeps most of the table,
        // the probe is overhead on top of the same exact work.
        let index_cost = C_PROBE + out * C_EXACT + rows * C_ROW;
        let scan_cost = rows * (C_ROW + C_EXACT);
        let use_index = has_index && index_cost < scan_cost;
        filter_hints.push(use_index);
        if consumed(pi) {
            continue;
        }
        let path = if use_index {
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
        cost += if use_index { index_cost } else { scan_cost };
        rows *= sel_frac;
    }
    if !conj.residual.is_empty() {
        // Residual comparisons: the classic 1/3 guess per conjunct.
        for _ in &conj.residual {
            cost += rows * C_ROW;
            rows /= 3.0;
        }
        notes.push(format!("{} residual conjunct(s) sel=0.333 each", conj.residual.len()));
    }
    // One base table read by a table scan tests the conjuncts inside
    // the scan, as the executor runs it; above anything else they are
    // a FILTER stage.
    let scan_filters = sel.from.len() == 1
        && matches!(sel.from[0], FromItem::Table { .. })
        && conj.rowid_pair.is_none()
        && join_pred.is_none()
        && index_scans.is_empty();
    if !notes.is_empty() && scan_filters {
        let filter =
            crate::operators::filter_text(&metas, &conj.spatial, conj.residual.iter().copied());
        core.reason = format!("{}; filter={filter}; {}", core.reason, notes.join("; "));
        (core.est_rows, core.est_cost) = (rows, cost);
    } else if !notes.is_empty() {
        let mut f = PlanNode::new("FILTER", rows, cost, notes.join("; "));
        f.children.push(core);
        core = f;
    }

    // Exchange placement. The kNN pushdown (detected below) touches
    // ~k rows and never parallelizes; everything else is sited by
    // shape: semijoins fan out probe blocks, single-base-table
    // pipelines fan out scan morsels — under a sort, the workers run
    // the sort too and the exchange merges sorted runs. The driving
    // estimate is the scan leaf's output (base-table rows, or an index
    // scan's hits), because morsels partition what the leaf reads
    // regardless of the filter stage above it.
    let knn_detected =
        if sel.order_by.is_empty() { None } else { detect_knn(db, &metas, &ests, sel) };
    let mut exchange: Option<ExchangeChoice> = None;
    if knn_detected.is_none() {
        if conj.rowid_pair.is_some() {
            // The table-function subquery estimate is a default; the
            // base tables bound the real pair volume better.
            let drive = ests.iter().fold(0.0f64, |m, e| m.max(e.rows));
            exchange = choose_exchange(env, ExchangeSite::Probe, drive);
        } else if sel.from.len() == 1
            && matches!(sel.from[0], FromItem::Table { .. })
            && join_pred.is_none()
        {
            let site =
                if sel.order_by.is_empty() { ExchangeSite::Scan } else { ExchangeSite::Sort };
            exchange = choose_exchange(env, site, leaf_rows(0));
        }
    }
    if let Some(x) = &exchange {
        if x.site != ExchangeSite::Sort {
            let mut e = PlanNode::new("EXCHANGE", core.est_rows, core.est_cost, x.reason.clone());
            e.children.push(core);
            core = e;
        }
    }

    // ORDER BY: either the kNN pushdown or a full sort.
    if !sel.order_by.is_empty() {
        if let Some(knn) = knn_detected {
            let mut n = PlanNode::new(
                format!("KNN SCAN {} (k={})", metas[0].binding, knn.k),
                (knn.k as f64).min(ests[0].rows),
                knn.est_cost,
                knn.reason.clone(),
            );
            // The pushdown replaces both the scan and the sort.
            n.children.push(PlanNode::new(
                "INDEX BEST-FIRST SEARCH".to_string(),
                (knn.k as f64).min(ests[0].rows),
                0.0,
                "incremental nearest-neighbor traversal".to_string(),
            ));
            knn_choice = Some(knn);
            core = n;
        } else {
            let n_in = core.est_rows.max(1.0);
            let mut s = PlanNode::new(
                format!("SORT [{} key(s)]", sel.order_by.len()),
                core.est_rows,
                core.est_cost + n_in * n_in.log2().max(1.0) * C_CMP,
                "blocking full sort; all input rows resident".to_string(),
            );
            s.children.push(core);
            core = s;
            if let Some(x) = &exchange {
                if x.site == ExchangeSite::Sort {
                    let mut e =
                        PlanNode::new("EXCHANGE", core.est_rows, core.est_cost, x.reason.clone());
                    e.children.push(core);
                    core = e;
                }
            }
        }
    }

    if let Some(k) = sel.limit {
        let rows = core.est_rows.min(k as f64);
        let mut l = PlanNode::new(
            format!("LIMIT {k}"),
            rows,
            core.est_cost,
            "early termination propagates close() down the pipeline".to_string(),
        );
        l.children.push(core);
        core = l;
    }

    if sel.projection == [SelectItem::CountStar] {
        let mut a = PlanNode::new("AGGREGATE COUNT(*)", 1.0, core.est_cost, String::new());
        a.children.push(core);
        core = a;
    }

    Ok(SelectPlan {
        root: core,
        join: join_choice,
        knn: knn_choice,
        stream_slot,
        filter_hints,
        index_scans,
        exchange,
    })
}

/// Transpose a column-column spatial predicate so its second relation
/// drives the loop: `OP(a, b, extra)` becomes `OP(b, a, extra')` with
/// asymmetric `SDO_RELATE` masks transposed.
pub(crate) fn transpose_pred(jp: SpatialPred) -> Result<SpatialPred, DbError> {
    let SpatialOperand::Column(or, oc) = jp.other else {
        return Err(DbError::Plan("cannot transpose a constant-operand predicate".into()));
    };
    let extra = crate::exec::transpose_spatial_extra(&jp.name, &jp.extra)?;
    Ok(SpatialPred {
        name: jp.name,
        target: (or, oc),
        other: SpatialOperand::Column(jp.target.0, jp.target.1),
        extra,
    })
}
