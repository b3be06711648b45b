//! Pull-based batch operators for the streaming SELECT executor.
//!
//! The paper's pipelining contract (§2: start / iterative fetch /
//! close) ends at the table-function boundary unless the SQL layer
//! above it also streams. This module provides that layer: a tree of
//! operators that exchange batches of joined rows ([`BATCH_ROWS`] rows
//! per batch) and pull from each other on demand, so a
//! `TABLE(SPATIAL_JOIN(...))` semijoin never materializes its result
//! and a satisfied `LIMIT` propagates `close()` down the tree, stopping
//! the R-tree traversal mid-join.
//!
//! Operators:
//!
//! * [`TableScanExec`] — snapshot scan of a base table's heap slots
//!   (per-batch locking, high-water-mark bound at open) that evaluates
//!   the predicates pushed into it on each row in place and copies only
//!   the rows that pass,
//! * [`IndexScanExec`] — fetches only the rowids a domain index returns
//!   for a constant spatial predicate (or the k nearest), one table
//!   lock per batch, in rowid order (ranked order for the kNN
//!   pushdown), testing the predicates pushed into it like a table scan,
//! * [`TableFunctionScanExec`] — wraps an open pipelined table function
//!   and forwards its `fetch(max_rows)` batches directly (or counts
//!   them, under `COUNT(*)`),
//! * [`FilterExec`] — per-batch predicate evaluation above a join or a
//!   table-function scan; a predicate no index scan consumed may still
//!   be answered by its index's rowid set, computed once at open,
//! * [`RowidSemiJoinExec`] — streams rowid pairs from a subquery and
//!   fetches the paired base rows batch-by-batch,
//! * [`NestedLoopJoinExec`] — streamed outer side, index-probed (or
//!   batched build) inner side,
//! * [`CrossJoinExec`] — streamed first relation, materialized rest,
//! * [`SortExec`] — blocking sort (ORDER BY),
//! * [`LimitExec`] — early termination with close propagation.
//!
//! [`build_select_stream`] makes the tree from the planner's, one
//! operator per plan node. Every operator owns a [`ProfileNode`] —
//! named with its plan node's label — when profiling is active and a
//! share of the statement's [`MemoryGauge`]; buffered rows are charged
//! through [`Resident`] so `EXPLAIN ANALYZE` can report
//! `peak_resident_rows` and the `max_resident_rows` session option has
//! a single enforcement point that names the offending operator.

use crate::db::{Database, IndexHandle, QueryResult};
use crate::error::DbError;
use crate::exec::{
    cmp_sort_values, eval_spatial_fn, projection_columns, sort_values, Columns, Cond, HeapRow,
    Projection, RelMeta, RelRow, SortKey, SpatialOperand, SpatialPred,
};
use crate::extensible::OperatorCall;
use crate::planner::{
    plan_select, Binding, BoundFunction, ExchangeSite, Filter, Op, PlanEnv, PlanInput, PlanNode,
    SelectPlan,
};
use crate::sql::ast::{Expr, FromItem, Predicate, Select, SelectItem};
use parking_lot::RwLock;
use sdo_geom::Geometry;
use sdo_obs::{MemoryGauge, ProfileNode};
use sdo_storage::{Counters, RowId, Snapshot, Table, Value};
use sdo_tablefunc::{Row, TableFunction};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Target rows per batch through the operator tree. Large enough to
/// amortize per-batch locking and virtual dispatch, small enough that
/// pipeline memory stays O(batch × depth).
pub(crate) const BATCH_ROWS: usize = 1024;

/// Per-statement execution context: the database handle plus the
/// shared resident-row gauge and its session-configured budget.
pub(crate) struct ExecCtx<'a> {
    /// Session database.
    pub db: &'a Database,
    /// Shared resident-row gauge; its peak becomes the statement's
    /// `peak_resident_rows` metric.
    pub gauge: MemoryGauge,
    /// Resident-row budget from `ALTER SESSION SET max_resident_rows`.
    pub max_resident_rows: u64,
    /// Intra-query parallelism ceiling from `ALTER SESSION SET
    /// parallel_dop`; read at execution time, so prepared statements
    /// re-resolve it on every EXECUTE.
    pub parallel_dop: usize,
    /// MVCC read view pinned at statement start: the session
    /// transaction's snapshot when one is open, else latest-committed.
    pub snap: Snapshot,
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn new(db: &'a Database, sess: &'a crate::session::SessionState) -> Self {
        let opts = sess.options.read().clone();
        ExecCtx {
            db,
            gauge: MemoryGauge::new(),
            max_resident_rows: opts.max_resident_rows,
            parallel_dop: opts.parallel_dop,
            snap: db.read_snapshot_in(sess),
        }
    }

    /// The session knobs the planner places exchanges under.
    pub(crate) fn plan_env(&self) -> PlanEnv {
        PlanEnv { dop_cap: self.parallel_dop, max_resident_rows: self.max_resident_rows }
    }

    /// A resident-row account for one operator, enforcing the budget.
    pub(crate) fn resident(&self, operator: impl Into<String>) -> Resident {
        Resident {
            gauge: self.gauge.clone(),
            limit: self.max_resident_rows,
            operator: operator.into(),
            held: 0,
        }
    }
}

/// RAII account of rows an operator holds resident. Charges go to the
/// statement's shared [`MemoryGauge`]; exceeding the session budget
/// fails the query with the operator's name. Dropping releases the
/// balance, so an abandoned pipeline cannot leak charge.
pub(crate) struct Resident {
    gauge: MemoryGauge,
    limit: u64,
    operator: String,
    held: u64,
}

impl Resident {
    /// Charge `n` more rows.
    pub(crate) fn add(&mut self, n: u64) -> Result<(), DbError> {
        self.held += n;
        let now = self.gauge.add(n);
        if now > self.limit {
            return Err(DbError::Plan(format!(
                "resident rows ({now}) exceed MAX_RESIDENT_ROWS ({}) in operator {}; \
                 raise it with ALTER SESSION SET max_resident_rows = <n>",
                self.limit, self.operator
            )));
        }
        Ok(())
    }

    /// Adjust the balance to exactly `n` rows.
    pub(crate) fn set(&mut self, n: u64) -> Result<(), DbError> {
        if n >= self.held {
            let delta = n - self.held;
            self.held = n - delta; // keep held consistent if add errors
            self.add(delta)
        } else {
            self.gauge.sub(self.held - n);
            self.held = n;
            Ok(())
        }
    }
}

impl Drop for Resident {
    fn drop(&mut self) {
        self.gauge.sub(self.held);
    }
}

/// A batch of joined rows: each row has one [`RelRow`] slot per FROM
/// item (unfilled slots hold empty values).
pub(crate) type JoinedBatch = Vec<Vec<RelRow>>;

/// A pull-based operator. `next_batch` returns up to [`BATCH_ROWS`]
/// joined rows; an empty batch signals exhaustion. `close` releases
/// resources (propagating to children) and must be idempotent — it is
/// also called early, e.g. by a satisfied [`LimitExec`].
pub(crate) trait BatchOp {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError>;
    fn close(&mut self);

    /// How many rows the operator has left to produce, drained to
    /// exhaustion. A table scan overrides it to count the rows that
    /// pass its predicates without copying them.
    fn count_rows(&mut self) -> Result<u64, DbError> {
        let mut n = 0;
        loop {
            let batch = self.next_batch()?;
            if batch.is_empty() {
                return Ok(n);
            }
            n += batch.len() as u64;
        }
    }
}

pub(crate) fn empty_joined(width: usize) -> Vec<RelRow> {
    vec![RelRow { rid: None, values: Vec::new() }; width]
}

/// Record one produced batch on an operator's profile node.
pub(crate) fn note_batch(node: &Option<ProfileNode>, rows: usize, t0: Option<Instant>) {
    if let Some(n) = node {
        n.add_batches(1);
        n.add_rows(rows as u64);
        if let Some(t0) = t0 {
            n.add_wall(t0.elapsed());
        }
    }
}

/// Run `f`, adding its wall time to `node` when profiling: how a
/// blocking operator charges its own work between pulls from its
/// inputs, whose time their own nodes record.
fn timed<T>(node: &Option<ProfileNode>, f: impl FnOnce() -> T) -> T {
    let Some(n) = node else { return f() };
    let t0 = Instant::now();
    let out = f();
    n.add_wall(t0.elapsed());
    out
}

// ---------------------------------------------------------------------------
// Leaf scans
// ---------------------------------------------------------------------------

/// Snapshot scan over a base table's heap slots, the statement's
/// predicates pushed into it. Slot bounds are fixed at open
/// (high-water mark); each window of [`BATCH_ROWS`] slots is read under
/// one table lock and one status view by [`read_span`], which tests
/// the pushed predicates on the borrowed versions and copies only the
/// rows that pass. Windows are read until one yields a row, so an
/// empty batch still means exhaustion and a `LIMIT` above stops the
/// scan as soon as it is satisfied.
pub(crate) struct TableScanExec<'a> {
    db: &'a Database,
    table: Arc<RwLock<Table>>,
    next: usize,
    end: usize,
    filter: LazyFilter,
    slot: usize,
    width: usize,
    node: Option<ProfileNode>,
    snap: Snapshot,
}

impl<'a> TableScanExec<'a> {
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        table: Arc<RwLock<Table>>,
        filter: Option<FilterInputs>,
        slot: usize,
        width: usize,
        node: Option<ProfileNode>,
    ) -> Self {
        let end = table.read().high_water_mark();
        TableScanExec {
            db: ctx.db,
            table,
            next: 0,
            end,
            filter: LazyFilter::new(filter),
            slot,
            width,
            node,
            snap: ctx.snap,
        }
    }

    fn fill(&mut self) -> Result<JoinedBatch, DbError> {
        let eval = self.filter.get(self.db, self.snap)?;
        let mut out = Vec::new();
        while out.is_empty() && self.next < self.end {
            let to = self.end.min(self.next + BATCH_ROWS);
            let span = HeapSpan::Slots(self.next, to);
            read_span(&self.table, span, &self.snap, eval, self.slot, self.width, &mut out)?;
            self.next = to;
        }
        Ok(out)
    }

    /// Count the rest of the table's passing rows, window by window.
    fn count_rest(&mut self) -> Result<u64, DbError> {
        let eval = self.filter.get(self.db, self.snap)?;
        let mut n = 0;
        while self.next < self.end {
            let to = self.end.min(self.next + BATCH_ROWS);
            n += count_span(
                &self.table,
                HeapSpan::Slots(self.next, to),
                &self.snap,
                eval,
                self.slot,
            )?;
            self.next = to;
        }
        Ok(n)
    }

    /// Run `read` with this scan's counters and wall time charged to
    /// its profile node.
    fn profiled<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let t0 = self.node.as_ref().map(|_| Instant::now());
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        let res = read(self);
        if let (Some(n), Some(b)) = (&self.node, &before) {
            n.add_metric_deltas(&self.db.counters().diff(b).pairs());
            n.add_wall(t0.expect("timed with the node").elapsed());
        }
        res
    }
}

impl BatchOp for TableScanExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        // The call that finds the table exhausted still read the
        // windows a selective filter emptied: it is timed too.
        let out = self.profiled(Self::fill)?;
        if !out.is_empty() {
            note_batch(&self.node, out.len(), None);
        }
        Ok(out)
    }

    fn count_rows(&mut self) -> Result<u64, DbError> {
        let n = self.profiled(Self::count_rest)?;
        note_batch(&self.node, n as usize, None);
        Ok(n)
    }

    fn close(&mut self) {
        self.next = self.end;
    }
}

/// The rows a [`read_span`] call reads: heap slots `[from, to)` in slot
/// order, or the listed rowids (an index scan's answer) in the order
/// given.
pub(crate) enum HeapSpan<'s> {
    Slots(usize, usize),
    Rowids(&'s [RowId]),
}

/// Read `span` of `table` at `snap` under one table read lock, keeping
/// the rows that pass `eval` as relation `rel` of joined rows `width`
/// wide, appended to `out` in span order. Rows the snapshot cannot see
/// are skipped.
///
/// The cheap conjuncts ([`FilterEval::pre_passes`]) run on each visible
/// version in place, under the table lock and the status view, and
/// only the versions that pass are kept — as `Arc` handles, not
/// copies. The functional spatial predicates and residuals that call
/// functions run on those survivors after the locks drop, so DML is
/// never held up behind a geometry test, and a [`RelRow`] is built only
/// for a row that passes everything. Callers keep spans to about
/// [`BATCH_ROWS`] rows, the lock's hold.
pub(crate) fn read_span(
    table: &RwLock<Table>,
    span: HeapSpan<'_>,
    snap: &Snapshot,
    eval: &FilterEval,
    rel: usize,
    width: usize,
    out: &mut JoinedBatch,
) -> Result<(), DbError> {
    let kept = pre_passing(table, span, snap, eval, rel)?;
    out.reserve(kept.len());
    for (rid, row) in kept {
        if eval.post_passes(&HeapRow { rel, rid, values: &row })? {
            let mut jr = empty_joined(width);
            jr[rel] = RelRow { rid: Some(rid), values: row.to_vec() };
            out.push(jr);
        }
    }
    Ok(())
}

/// How many rows of `span` [`read_span`] would keep, built into no
/// [`RelRow`]: the costly conjuncts run on the kept handles.
fn count_span(
    table: &RwLock<Table>,
    span: HeapSpan<'_>,
    snap: &Snapshot,
    eval: &FilterEval,
    rel: usize,
) -> Result<u64, DbError> {
    let mut n = 0;
    for (rid, row) in pre_passing(table, span, snap, eval, rel)? {
        n += u64::from(eval.post_passes(&HeapRow { rel, rid, values: &row })?);
    }
    Ok(n)
}

/// Versions kept past the table lock: each rowid with a handle on its
/// values, not a copy.
type Handles = Vec<(RowId, Arc<[Value]>)>;

/// Handles of the versions in `span` visible to `snap` that pass
/// `eval`'s cheap conjuncts, in span order, read under one table lock.
fn pre_passing(
    table: &RwLock<Table>,
    span: HeapSpan<'_>,
    snap: &Snapshot,
    eval: &FilterEval,
    rel: usize,
) -> Result<Handles, DbError> {
    let mut kept = Vec::new();
    let mut failure = None;
    let t = table.read();
    let mut visit = |rid: RowId, row: &Arc<[Value]>| {
        if failure.is_none() {
            match eval.pre_passes(&HeapRow { rel, rid, values: row }) {
                Ok(true) => kept.push((rid, Arc::clone(row))),
                Ok(false) => {}
                Err(e) => failure = Some(e),
            }
        }
    };
    match span {
        HeapSpan::Slots(from, to) => t.scan_range_at(from, to, snap, visit),
        HeapSpan::Rowids(rids) => t.get_many_at(rids, snap, |rid, row| {
            if let Some(row) = row {
                visit(rid, row)
            }
        }),
    }
    failure.map_or(Ok(kept), Err)
}

/// Show the conjuncts pushed into a scan as its `filter` attribute.
fn note_filter(node: &Option<ProfileNode>, metas: &[RelMeta], filter: Option<&Filter>) {
    if let (Some(n), Some(f)) = (node, filter) {
        n.set_attr("filter", filter_text(metas, &f.spatial, &f.residual));
    }
}

/// The conjuncts pushed into a scan, as `EXPLAIN` and `EXPLAIN
/// ANALYZE` show them.
pub(crate) fn filter_text<'p>(
    metas: &[RelMeta],
    spatial: &[SpatialPred],
    residual: impl IntoIterator<Item = &'p Predicate>,
) -> String {
    let spatial = spatial.iter().map(|p| {
        let (r, c) = p.target;
        format!("{}({}.{}, …)", p.name, metas[r].binding, metas[r].columns[c])
    });
    let residual = residual.into_iter().map(|p| match p {
        Predicate::Compare { left, op, right } => {
            format!("{} {} {}", expr_text(left), op.symbol(), expr_text(right))
        }
        Predicate::RowidPairIn { .. } => "(ROWID, ROWID) IN (…)".into(),
    });
    spatial.chain(residual).collect::<Vec<_>>().join(" AND ")
}

fn expr_text(e: &Expr) -> String {
    match e {
        Expr::Literal(Value::Text(s)) => format!("'{s}'"),
        Expr::Literal(Value::Geometry(_)) => "<geometry>".into(),
        Expr::Literal(v) => v.to_string(),
        Expr::Column(cr) => match &cr.qualifier {
            Some(q) => format!("{q}.{}", cr.column),
            None => cr.column.clone(),
        },
        Expr::FnCall { name, args } => {
            format!("{name}({})", args.iter().map(expr_text).collect::<Vec<_>>().join(", "))
        }
        Expr::Param(i) => format!("?{}", i + 1),
    }
}

enum TfState {
    Fresh,
    Running,
    Closed,
}

/// Wraps an open pipelined table function, forwarding its
/// `fetch(max_rows)` batches with no intermediate collection — the
/// direct streaming path the paper's interface was designed for.
pub(crate) struct TableFunctionScanExec<'a> {
    db: &'a Database,
    func: Box<dyn TableFunction>,
    state: TfState,
    slot: usize,
    width: usize,
    node: Option<ProfileNode>,
    resident: Resident,
}

impl<'a> TableFunctionScanExec<'a> {
    /// Scan `bound`, whose `CURSOR(...)` arguments' profiles `node`
    /// adopts before the function's own.
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        bound: BoundFunction,
        slot: usize,
        width: usize,
        node: Option<ProfileNode>,
    ) -> Self {
        let BoundFunction { name, mut func, cursors } = bound;
        if let Some(n) = &node {
            for c in &cursors {
                n.adopt(c);
            }
            func.attach_profile(n);
        }
        let resident = ctx.resident(format!("TABLE FUNCTION SCAN {name}"));
        TableFunctionScanExec {
            db: ctx.db,
            func,
            state: TfState::Fresh,
            slot,
            width,
            node,
            resident,
        }
    }

    /// The function's next batch of rows, the only rows it holds
    /// resident, started on first use; empty once exhausted.
    fn fetch(&mut self) -> Result<Vec<Row>, DbError> {
        if matches!(self.state, TfState::Closed) {
            return Ok(Vec::new());
        }
        if matches!(self.state, TfState::Fresh) {
            self.state = TfState::Running;
            if let Err(e) = self.func.start() {
                // Release anything start() acquired before failing (a
                // parallel executor may have launched slaves already).
                self.close();
                return Err(e.into());
            }
        }
        let rows = match self.func.fetch(BATCH_ROWS) {
            Ok(b) => b,
            Err(e) => {
                self.close();
                return Err(e.into());
            }
        };
        if rows.is_empty() {
            self.close();
        }
        self.resident.set(rows.len() as u64)?;
        Ok(rows)
    }

    /// Run `read` with its wall time and counter deltas charged to the
    /// scan's profile node.
    fn profiled<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let t0 = self.node.as_ref().map(|_| Instant::now());
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        let res = read(self);
        if let (Some(n), Some(b)) = (&self.node, &before) {
            n.add_metric_deltas(&self.db.counters().diff(b).pairs());
            n.add_wall(t0.expect("timed with the node").elapsed());
        }
        res
    }
}

impl BatchOp for TableFunctionScanExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        let rows = self.profiled(Self::fetch)?;
        let mut out = Vec::with_capacity(rows.len());
        for values in rows {
            let mut jr = empty_joined(self.width);
            jr[self.slot] = RelRow { rid: None, values };
            out.push(jr);
        }
        if !out.is_empty() {
            note_batch(&self.node, out.len(), None);
        }
        Ok(out)
    }

    /// Count the function's remaining rows batch by batch, building no
    /// joined row and holding only the batch in flight.
    fn count_rows(&mut self) -> Result<u64, DbError> {
        let mut n = 0;
        loop {
            let batch = self.profiled(|s| s.fetch().map(|rows| rows.len()))?;
            if batch == 0 {
                return Ok(n);
            }
            note_batch(&self.node, batch, None);
            n += batch as u64;
        }
    }

    fn close(&mut self) {
        if !matches!(self.state, TfState::Closed) {
            self.func.close();
            self.state = TfState::Closed;
            let _ = self.resident.set(0);
        }
    }
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// A database-free predicate evaluator: the classified spatial
/// predicates, compiled residual conjuncts, and prebuilt index
/// prefilters, packaged so exchange workers on pool threads (which
/// cannot borrow `&Database`) evaluate rows exactly like the serial
/// operators. Built once per statement (index probes need the
/// database), then shared across workers.
///
/// Conjuncts run in two phases. [`FilterEval::pre_passes`] holds the
/// cheap ones — residuals that call no function, and index keep-sets —
/// which a scan tests on a heap row in place under the table lock.
/// [`FilterEval::post_passes`] holds the rest — functional spatial
/// predicates and residuals that call functions — which run after the
/// locks drop.
pub(crate) struct FilterEval {
    plain: Vec<Cond>,
    keep_sets: Vec<KeepSet>,
    spatial: Vec<SpatialPred>,
    costly: Vec<Cond>,
    /// Where the exact tests of `spatial` are counted.
    counters: Arc<Counters>,
}

impl FilterEval {
    /// Build the evaluator, compiling the residuals and resolving index
    /// prefilters now.
    pub(crate) fn build(
        db: &Database,
        (metas, filter): FilterInputs,
        snap: Snapshot,
    ) -> Result<Self, DbError> {
        let Filter { spatial, use_index, residual } = filter;
        let (mut plain, mut costly) = (Vec::new(), Vec::new());
        for p in &residual {
            let c = Cond::compile(&metas, p)?;
            if c.is_plain() {
                plain.push(c);
            } else {
                costly.push(c);
            }
        }
        let keep = build_prefilters(db, &metas, &spatial, &use_index, snap)?;
        let (mut keep_sets, mut functional) = (Vec::new(), Vec::new());
        for (p, k) in spatial.into_iter().zip(keep) {
            // An index keep-set holds candidates: the exact test still
            // runs on the rows it keeps. An SDO_NN ranking is exact.
            let ranked = k.is_some() && p.name == "SDO_NN";
            keep_sets.extend(k);
            if !ranked {
                functional.push(p);
            }
        }
        let counters = Arc::clone(db.counters());
        Ok(FilterEval { plain, keep_sets, spatial: functional, costly, counters })
    }

    /// An evaluator every row passes.
    pub(crate) fn none(db: &Database) -> Self {
        FilterEval {
            plain: Vec::new(),
            keep_sets: Vec::new(),
            spatial: Vec::new(),
            costly: Vec::new(),
            counters: Arc::clone(db.counters()),
        }
    }

    /// The cheap conjuncts: plain residuals and index keep-sets.
    pub(crate) fn pre_passes<R: Columns + ?Sized>(&self, row: &R) -> Result<bool, DbError> {
        for (rel, keep) in &self.keep_sets {
            if !row.rowid(*rel).is_some_and(|r| keep.contains(&r)) {
                return Ok(false);
            }
        }
        for c in &self.plain {
            if !c.eval(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The costly conjuncts: functional spatial predicates, then
    /// residuals that call functions.
    pub(crate) fn post_passes<R: Columns + ?Sized>(&self, row: &R) -> Result<bool, DbError> {
        for p in &self.spatial {
            let (ri, ci) = p.target;
            let Some(a) = row.column(ri, ci).and_then(|v| v.as_geometry()) else {
                return Ok(false);
            };
            let b = match &p.other {
                SpatialOperand::Column(ir, ic) => {
                    row.column(*ir, *ic).and_then(|v| v.as_geometry())
                }
                SpatialOperand::Const(qg) => Some(qg),
            };
            // A bad mask or distance is the statement's error, as it is
            // through an index scan, not a row that fails.
            let Some(b) = b else { return Ok(false) };
            Counters::bump(&self.counters.exact_tests);
            if !eval_spatial_fn(&p.name, a, b, &p.extra)? {
                return Ok(false);
            }
        }
        for c in &self.costly {
            if !c.eval(row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Does one joined row satisfy every conjunct?
    pub(crate) fn row_passes(&self, jr: &[RelRow]) -> Result<bool, DbError> {
        Ok(self.pre_passes(jr)? && self.post_passes(jr)?)
    }
}

/// The rows of relation `.0` a spatial predicate keeps, answered once
/// by a domain index (or an `SDO_NN` ranking).
type KeepSet = (usize, HashSet<RowId>);

/// Predicates pushed into an operator, compiled into a [`FilterEval`]
/// on first use: index prefilters probe the domain index then, inside
/// the operator's own timing. No inputs means every row passes.
pub(crate) struct LazyFilter {
    inputs: Option<FilterInputs>,
    eval: Option<FilterEval>,
}

impl LazyFilter {
    pub(crate) fn new(inputs: Option<FilterInputs>) -> Self {
        LazyFilter { inputs, eval: None }
    }

    pub(crate) fn get(&mut self, db: &Database, snap: Snapshot) -> Result<&FilterEval, DbError> {
        if let Some(inputs) = self.inputs.take() {
            self.eval = Some(FilterEval::build(db, inputs, snap)?);
        }
        Ok(self.eval.get_or_insert_with(|| FilterEval::none(db)))
    }
}

/// Resolve each spatial predicate to its open-time pre-pass: the rowid
/// keep-set `(relation, rowids)` of a domain index's candidates when
/// the plan chose it (or of an SDO_NN ranking), else `None`. Only
/// predicates no index scan consumed get here.
fn build_prefilters(
    db: &Database,
    metas: &[RelMeta],
    spatial: &[SpatialPred],
    use_index: &[bool],
    snap: Snapshot,
) -> Result<Vec<Option<KeepSet>>, DbError> {
    let mut out = Vec::with_capacity(spatial.len());
    for (pi, p) in spatial.iter().enumerate() {
        let SpatialOperand::Const(qg) = &p.other else {
            out.push(None);
            continue;
        };
        let (ri, ci) = p.target;
        let m = &metas[ri];
        let index = m.table_name.as_deref().and_then(|t| db.index_on(t, &m.columns[ci]));
        if p.name.eq_ignore_ascii_case("SDO_NN") {
            // SDO_NN has no per-row form: rank the relation, through
            // its index when it has one.
            let table = m.table.clone().ok_or_else(|| {
                DbError::Plan("SDO_NN needs a base table or a domain index".into())
            })?;
            let k = crate::exec::parse_num_res(&p.extra)?;
            let (ranked, _) =
                rank_nearest(index.map(|(_, i)| i).as_ref(), &table, ci, qg, k, snap)?;
            out.push(Some((ri, ranked.into_iter().map(|(_, r)| r).collect())));
            continue;
        }
        match index.filter(|_| use_index[pi]) {
            Some((_, inst)) => {
                let call = operator_call(p, qg);
                out.push(Some((ri, inst.read().evaluate(&call)?.into_iter().collect())));
            }
            None => out.push(None),
        }
    }
    Ok(out)
}

/// The domain-index call for a spatial predicate `OP(col, qg, extra…)`.
fn operator_call(p: &SpatialPred, qg: &Arc<Geometry>) -> OperatorCall {
    let mut args = vec![Value::Geometry(Arc::clone(qg))];
    args.extend(p.extra.iter().cloned());
    OperatorCall { name: p.name.clone(), args }
}

/// `(distance, rowid)` pairs, ascending.
type Ranked = Vec<(f64, RowId)>;

/// The `k` rows of `table` nearest to `query` by `(distance, rowid)`,
/// ascending, plus which path ranked them. The index's best-first
/// search answers when it has one; otherwise (no index, or an
/// indextype without `nearest`) every visible row is ranked by exact
/// distance — the same order.
fn rank_nearest(
    index: Option<&IndexHandle>,
    table: &Arc<RwLock<Table>>,
    col: usize,
    query: &Geometry,
    k: usize,
    snap: Snapshot,
) -> Result<(Ranked, &'static str), DbError> {
    if let Some(ranked) = index.map(|i| i.read().nearest(query, k, &snap)).transpose()?.flatten() {
        return Ok((ranked, "index best-first"));
    }
    // Each window's geometries are collected under the locks and
    // measured after they drop.
    let mut ranked: Ranked = Vec::new();
    let mut geoms: Vec<(RowId, Arc<Geometry>)> = Vec::new();
    let end = table.read().high_water_mark();
    for from in (0..end).step_by(BATCH_ROWS) {
        table.read().scan_range_at(from, from + BATCH_ROWS, &snap, |rid, row| {
            if let Some(g) = row.get(col).and_then(|v| v.as_geometry()) {
                geoms.push((rid, Arc::clone(g)));
            }
        });
        ranked.extend(geoms.drain(..).map(|(rid, g)| (sdo_geom::distance(&g, query), rid)));
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    Ok((ranked, "functional ranking fallback"))
}

/// How an [`IndexScanExec`] (or an index-driven exchange) gets the
/// rowids it fetches.
pub(crate) enum IndexAccess {
    /// A constant operator's candidates from the domain index, fetched
    /// once each in rowid order (a table scan's order) and decided by
    /// the predicate the scan's filter carries.
    Operator { index: IndexHandle, call: OperatorCall },
    /// The `k` rows nearest to `query` in column `col`: in
    /// `(distance, rowid)` order when `ranked` (the ORDER BY pushdown),
    /// else in rowid order (`WHERE SDO_NN(…) = 'TRUE'`).
    Nearest { index: IndexHandle, query: Arc<Geometry>, k: usize, col: usize, ranked: bool },
}

impl IndexAccess {
    /// The access a constant spatial predicate gets through `index`.
    pub(crate) fn for_predicate(p: &SpatialPred, index: IndexHandle) -> Result<Self, DbError> {
        let SpatialOperand::Const(qg) = &p.other else {
            return Err(DbError::Plan("an index scan needs a constant operand".into()));
        };
        Ok(if p.name.eq_ignore_ascii_case("SDO_NN") {
            let k = crate::exec::parse_num_res(&p.extra)?;
            IndexAccess::Nearest { index, query: Arc::clone(qg), k, col: p.target.1, ranked: false }
        } else {
            IndexAccess::Operator { index, call: operator_call(p, qg) }
        })
    }

    /// Ask the index once: the rowids to fetch, in emission order, and
    /// for kNN which path ranked them.
    pub(crate) fn rowids(
        self,
        table: &Arc<RwLock<Table>>,
        snap: Snapshot,
    ) -> Result<(Vec<RowId>, Option<&'static str>), DbError> {
        match self {
            IndexAccess::Operator { index, call } => {
                let mut rids = index.read().evaluate(&call)?;
                // Candidates may come unsorted and repeat a rowid.
                rids.sort_unstable();
                rids.dedup();
                Ok((rids, None))
            }
            IndexAccess::Nearest { index, query, k, col, ranked } => {
                let (list, path) = rank_nearest(Some(&index), table, col, &query, k, snap)?;
                let mut rids: Vec<RowId> = list.into_iter().map(|(_, r)| r).collect();
                if !ranked {
                    rids.sort_unstable();
                } else if rids.len() < k {
                    // ORDER BY sorts a NULL distance last: rows without a
                    // geometry follow the ranked ones, in scan order.
                    let t = table.read();
                    t.scan_range_at(0, t.high_water_mark(), &snap, |rid, row| {
                        if rids.len() < k && row[col].is_null() {
                            rids.push(rid);
                        }
                    });
                }
                Ok((rids, Some(path)))
            }
        }
    }
}

/// q-error of an estimate against the actual: `max(est/act, act/est)`,
/// both clamped to at least one row so empty results stay finite.
fn qerror(est: f64, act: u64) -> f64 {
    let (e, a) = (est.max(1.0), (act as f64).max(1.0));
    (e / a).max(a / e)
}

/// Index scan: the domain index answers once, and only its candidate
/// rowids are fetched from the heap — sorted and deduplicated, each
/// once, at the statement snapshot, one table lock per batch. The
/// scan's filter carries the index predicate's exact test before the
/// other conjuncts pushed into the scan, and [`read_span`] tests them
/// on each fetched row.
/// Replaces a table scan whose filter would keep the same rows, in the
/// same (rowid) order; for the kNN pushdown the order is the ranking's
/// `(distance, rowid)`, which is exactly what a stable full sort over a
/// rowid-ordered scan gives.
pub(crate) struct IndexScanExec<'a> {
    db: &'a Database,
    table: Arc<RwLock<Table>>,
    access: Option<IndexAccess>,
    filter: LazyFilter,
    rids: Vec<RowId>,
    next: usize,
    slot: usize,
    width: usize,
    /// The planner's row estimate, stamped beside the actual rows.
    est_rows: f64,
    produced: u64,
    node: Option<ProfileNode>,
    snap: Snapshot,
}

impl<'a> IndexScanExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        table: Arc<RwLock<Table>>,
        access: IndexAccess,
        filter: Option<FilterInputs>,
        slot: usize,
        width: usize,
        est_rows: f64,
        node: Option<ProfileNode>,
    ) -> Self {
        if let Some(n) = &node {
            n.set_attr("est_rows", format!("{est_rows:.0}"));
        }
        IndexScanExec {
            db: ctx.db,
            table,
            access: Some(access),
            filter: LazyFilter::new(filter),
            rids: Vec::new(),
            next: 0,
            slot,
            width,
            est_rows,
            produced: 0,
            node,
            snap: ctx.snap,
        }
    }

    fn stamp_qerror(&self) {
        if let Some(n) = &self.node {
            n.set_attr("qerror", format!("{:.2}", qerror(self.est_rows, self.produced)));
        }
    }
}

impl BatchOp for IndexScanExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        let t0 = self.node.as_ref().map(|_| Instant::now());
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        if let Some(access) = self.access.take() {
            let (rids, knn_path) = access.rowids(&self.table, self.snap)?;
            if let (Some(n), Some(p)) = (&self.node, knn_path) {
                n.set_attr("knn_path", p);
            }
            self.rids = rids;
        }
        let eval = self.filter.get(self.db, self.snap)?;
        // An empty batch means exhaustion, so a chunk whose rows are all
        // invisible or filtered out moves on to the next.
        let mut out = Vec::new();
        while out.is_empty() && self.next < self.rids.len() {
            let end = (self.next + BATCH_ROWS).min(self.rids.len());
            // Rows the snapshot cannot see are skipped: an index may
            // hold entries for versions the statement cannot see
            // (in-flight inserts, deferred old entries), and the heap
            // read is the visibility filter.
            let span = HeapSpan::Rowids(&self.rids[self.next..end]);
            read_span(&self.table, span, &self.snap, eval, self.slot, self.width, &mut out)?;
            self.next = end;
        }
        self.produced += out.len() as u64;
        if out.is_empty() {
            self.stamp_qerror();
        } else {
            note_batch(&self.node, out.len(), t0);
        }
        if let (Some(n), Some(b)) = (&self.node, &before) {
            n.add_metric_deltas(&self.db.counters().diff(b).pairs());
        }
        Ok(out)
    }

    fn close(&mut self) {
        if self.access.is_none() {
            self.stamp_qerror();
        }
        self.rids = Vec::new();
        self.next = 0;
    }
}

/// The deferred filter-construction bundle shared by the scan leaves,
/// [`FilterExec`] and the parallel exchanges: the relations and the
/// plan's conjuncts over them.
pub(crate) type FilterInputs = (Arc<Vec<RelMeta>>, Filter);

/// Per-batch predicate evaluation above a join or a table-function
/// scan (table and index scans evaluate their predicates themselves).
/// Index-assisted paths (window-query prefilter, SDO_NN top-k ranking)
/// run once at open as rowid keep-sets; everything else evaluates per
/// row.
pub(crate) struct FilterExec<'a> {
    db: &'a Database,
    child: Box<dyn BatchOp + 'a>,
    filter: LazyFilter,
    node: Option<ProfileNode>,
    snap: Snapshot,
}

impl<'a> FilterExec<'a> {
    pub(crate) fn new(
        child: Box<dyn BatchOp + 'a>,
        ctx: &ExecCtx<'a>,
        inputs: FilterInputs,
        node: Option<ProfileNode>,
    ) -> Self {
        let filter = LazyFilter::new(Some(inputs));
        FilterExec { db: ctx.db, child, filter, node, snap: ctx.snap }
    }
}

impl BatchOp for FilterExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        let t0 = self.node.as_ref().map(|_| Instant::now());
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        let eval = self.filter.get(self.db, self.snap)?;
        if let (Some(n), Some(b)) = (&self.node, &before) {
            n.add_metric_deltas(&self.db.counters().diff(b).pairs());
            if let Some(t0) = t0 {
                n.add_wall(t0.elapsed());
            }
        }
        loop {
            let batch = self.child.next_batch()?;
            if batch.is_empty() {
                return Ok(Vec::new());
            }
            let t0 = self.node.as_ref().map(|_| Instant::now());
            let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
            let mut out = Vec::with_capacity(batch.len());
            for jr in batch {
                if eval.row_passes(&jr)? {
                    out.push(jr);
                }
            }
            note_batch(&self.node, out.len(), t0);
            if let (Some(n), Some(b)) = (&self.node, &before) {
                n.add_metric_deltas(&self.db.counters().diff(b).pairs());
            }
            if !out.is_empty() {
                return Ok(out);
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// The paper's table-function join, streaming: pulls rowid pairs from
/// the subquery pipeline (typically a `TABLE(SPATIAL_JOIN(...))` scan)
/// batch-by-batch and fetches the paired base rows as they arrive, so
/// the pair stream is never materialized.
pub(crate) struct RowidSemiJoinExec<'a> {
    db: &'a Database,
    sub: SelectStream<'a>,
    l_rel: usize,
    r_rel: usize,
    lt: Arc<RwLock<Table>>,
    rt: Arc<RwLock<Table>>,
    seen: HashSet<(RowId, RowId)>,
    width: usize,
    node: Option<ProfileNode>,
    resident: Resident,
    snap: Snapshot,
}

impl<'a> RowidSemiJoinExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        sub: SelectStream<'a>,
        l_rel: usize,
        r_rel: usize,
        lt: Arc<RwLock<Table>>,
        rt: Arc<RwLock<Table>>,
        width: usize,
        node: Option<ProfileNode>,
    ) -> Result<Self, DbError> {
        if sub.columns.len() < 2 {
            return Err(DbError::Plan("rowid-pair subquery must project two rowid columns".into()));
        }
        let resident = ctx.resident("ROWID-PAIR SEMIJOIN");
        Ok(RowidSemiJoinExec {
            db: ctx.db,
            sub,
            l_rel,
            r_rel,
            lt,
            rt,
            seen: HashSet::new(),
            width,
            node,
            resident,
            snap: ctx.snap,
        })
    }
}

impl BatchOp for RowidSemiJoinExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        loop {
            let rows = self.sub.next_rows()?;
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            let t0 = self.node.as_ref().map(|_| Instant::now());
            let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
            let mut pairs = Vec::with_capacity(rows.len());
            for row in &rows {
                let pair = rowid_pair(row)?;
                if self.seen.insert(pair) {
                    pairs.push(pair); // IN semantics deduplicate
                }
            }
            let mut out = Vec::with_capacity(pairs.len());
            probe_pairs(&pairs, &self.lt, &self.rt, &self.snap, |lrid, lvals, rrid, rvals| {
                let mut jr = empty_joined(self.width);
                jr[self.l_rel] = RelRow { rid: Some(lrid), values: lvals.to_vec() };
                jr[self.r_rel] = RelRow { rid: Some(rrid), values: rvals.to_vec() };
                out.push(jr);
                Ok(())
            })?;
            // Only the batch in flight is resident; the seen-set holds
            // rowid pairs, not rows.
            self.resident.set(out.len() as u64)?;
            note_batch(&self.node, out.len(), t0);
            if let (Some(n), Some(b)) = (&self.node, &before) {
                n.add_metric_deltas(&self.db.counters().diff(b).pairs());
            }
            if !out.is_empty() {
                return Ok(out);
            }
        }
    }

    fn close(&mut self) {
        self.sub.close();
        let _ = self.resident.set(0);
    }
}

/// The two rowids of one row of a rowid-pair subquery.
pub(crate) fn rowid_pair(row: &[Value]) -> Result<(RowId, RowId), DbError> {
    match (row[0].as_rowid(), row[1].as_rowid()) {
        (Some(l), Some(r)) => Ok((l, r)),
        _ => Err(DbError::Plan("rowid-pair subquery produced non-rowid values".into())),
    }
}

/// Fetch the base rows of a block of rowid pairs the way the spatial
/// join fetches its candidates' geometries: each side's distinct
/// rowids once, in rowid order, with one [`Table::get_many_at`] under
/// one table read lock. Calls `emit` for every pair whose two rows are
/// visible to `snap`, in pair order — pairs with an invisible row are
/// skipped, not errors — and returns the distinct rows fetched.
pub(crate) fn probe_pairs(
    pairs: &[(RowId, RowId)],
    lt: &RwLock<Table>,
    rt: &RwLock<Table>,
    snap: &Snapshot,
    mut emit: impl FnMut(RowId, &Arc<[Value]>, RowId, &Arc<[Value]>) -> Result<(), DbError>,
) -> Result<u64, DbError> {
    let left = SideRows::fetch(lt, pairs.iter().map(|p| p.0).collect(), snap);
    let right = SideRows::fetch(rt, pairs.iter().map(|p| p.1).collect(), snap);
    for &(l, r) in pairs {
        if let (Some(lv), Some(rv)) = (left.get(l), right.get(r)) {
            emit(l, lv, r, rv)?;
        }
    }
    Ok((left.rids.len() + right.rids.len()) as u64)
}

/// One side of a pair block: its distinct rowids, sorted, and the rows
/// of them visible to the snapshot (`None` when invisible).
struct SideRows {
    rids: Vec<RowId>,
    rows: Vec<Option<Arc<[Value]>>>,
}

impl SideRows {
    fn fetch(table: &RwLock<Table>, mut rids: Vec<RowId>, snap: &Snapshot) -> Self {
        rids.sort_unstable();
        rids.dedup();
        let mut rows = Vec::with_capacity(rids.len());
        table.read().get_many_at(&rids, snap, |_, row| rows.push(row.cloned()));
        SideRows { rids, rows }
    }

    fn get(&self, rid: RowId) -> Option<&Arc<[Value]>> {
        self.rows[self.rids.binary_search(&rid).expect("every rowid was fetched")].as_ref()
    }
}

pub(crate) enum InnerSide<'a> {
    /// Probe the inner table's domain index per outer row; `node`
    /// records one batch per probe, of the visible rows it found.
    Probe { table: Arc<RwLock<Table>>, index: IndexHandle, node: Option<ProfileNode> },
    /// No index: materialize the inner side once (charged), then
    /// evaluate the predicate functionally per outer row.
    Build { scan: Option<Box<dyn BatchOp + 'a>>, rows: Vec<(Option<RowId>, Row)>, built: bool },
}

/// Nested-loop spatial join: the outer side streams in batches, the
/// inner side is an index probe (the paper's baseline join strategy) or
/// a batched build when no index exists.
pub(crate) struct NestedLoopJoinExec<'a> {
    db: &'a Database,
    outer: Box<dyn BatchOp + 'a>,
    /// `OP(target, other, extra)`; the outer side is `other`'s when
    /// `swap`.
    pred: SpatialPred,
    swap: bool,
    outer_rel: usize,
    outer_col: usize,
    inner_rel: usize,
    inner_col: usize,
    inner: InnerSide<'a>,
    width: usize,
    queue: VecDeque<Vec<RelRow>>,
    outer_done: bool,
    node: Option<ProfileNode>,
    resident: Resident,
    build_resident: Resident,
    snap: Snapshot,
}

impl<'a> NestedLoopJoinExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        outer: Box<dyn BatchOp + 'a>,
        pred: SpatialPred,
        swap: bool,
        inner: InnerSide<'a>,
        width: usize,
        node: Option<ProfileNode>,
    ) -> Result<Self, DbError> {
        let Some(((outer_rel, outer_col), (inner_rel, inner_col))) = pred.loop_sides(swap) else {
            return Err(DbError::Plan("nested-loop join needs a column-column predicate".into()));
        };
        if outer_rel == inner_rel {
            return Err(DbError::Plan("spatial join requires two distinct tables".into()));
        }
        Ok(NestedLoopJoinExec {
            db: ctx.db,
            outer,
            pred,
            swap,
            outer_rel,
            outer_col,
            inner_rel,
            inner_col,
            inner,
            width,
            queue: VecDeque::new(),
            outer_done: false,
            node,
            resident: ctx.resident("NESTED LOOP JOIN"),
            build_resident: ctx.resident("NESTED LOOP JOIN build side"),
            snap: ctx.snap,
        })
    }

    /// Open a materializing inner side fed by `scan`.
    pub(crate) fn build(scan: Box<dyn BatchOp + 'a>) -> InnerSide<'a> {
        InnerSide::Build { scan: Some(scan), rows: Vec::new(), built: false }
    }

    fn ensure_built(&mut self) -> Result<(), DbError> {
        let InnerSide::Build { scan, rows, built } = &mut self.inner else { return Ok(()) };
        if *built {
            return Ok(());
        }
        let mut op = scan.take().expect("build scan present before build");
        loop {
            let batch = op.next_batch()?;
            if batch.is_empty() {
                break;
            }
            timed(&self.node, || {
                self.build_resident.add(batch.len() as u64)?;
                for mut jr in batch {
                    let r = std::mem::replace(
                        &mut jr[self.inner_rel],
                        RelRow { rid: None, values: Vec::new() },
                    );
                    rows.push((r.rid, r.values));
                }
                Ok::<_, DbError>(())
            })?;
        }
        op.close();
        *built = true;
        Ok(())
    }

    /// The predicate on the outer row's geometry `g` and an inner row's
    /// `ig`, in the SQL's argument order, counted as an exact test.
    fn passes(&self, g: &Geometry, ig: &Geometry) -> Result<bool, DbError> {
        Counters::bump(&self.db.counters().exact_tests);
        let (a, b) = if self.swap { (ig, g) } else { (g, ig) };
        eval_spatial_fn(&self.pred.name, a, b, &self.pred.extra)
    }

    fn join_outer_row(&mut self, jr: &[RelRow]) -> Result<(), DbError> {
        let orow = &jr[self.outer_rel];
        let Some(g) = orow.values.get(self.outer_col).and_then(|v| v.as_geometry()) else {
            return Ok(());
        };
        let g = Arc::clone(g);
        match &self.inner {
            InnerSide::Probe { table, index, node } => {
                let t0 = node.as_ref().map(|_| Instant::now());
                let queued = self.queue.len();
                // The index's candidates, each fetched once at the
                // statement snapshot (the visibility filter: the index
                // may hold entries for versions it cannot see) and
                // tested in the SQL's argument order, like the build arm.
                let mut rids = index.read().evaluate(&operator_call(&self.pred, &g))?;
                rids.sort_unstable();
                rids.dedup();
                let mut rows = Vec::with_capacity(rids.len());
                table.read().get_many_at(&rids, &self.snap, |rid, row| {
                    rows.extend(row.map(|row| (rid, Arc::clone(row))));
                });
                for (rid, ivals) in rows {
                    let Some(ig) = ivals.get(self.inner_col).and_then(|v| v.as_geometry()) else {
                        continue;
                    };
                    if !self.passes(&g, ig)? {
                        continue;
                    }
                    let mut out = empty_joined(self.width);
                    out[self.outer_rel] = orow.clone();
                    out[self.inner_rel] = RelRow { rid: Some(rid), values: ivals.to_vec() };
                    self.queue.push_back(out);
                }
                note_batch(node, self.queue.len() - queued, t0);
            }
            InnerSide::Build { rows, .. } => {
                for (irid, ivals) in rows {
                    let Some(ig) = ivals.get(self.inner_col).and_then(|v| v.as_geometry()) else {
                        continue;
                    };
                    if self.passes(&g, ig)? {
                        let mut out = empty_joined(self.width);
                        out[self.outer_rel] = orow.clone();
                        out[self.inner_rel] = RelRow { rid: *irid, values: ivals.clone() };
                        self.queue.push_back(out);
                    }
                }
            }
        }
        Ok(())
    }
}

impl BatchOp for NestedLoopJoinExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        loop {
            if !self.queue.is_empty() {
                let n = self.queue.len().min(BATCH_ROWS);
                let out: JoinedBatch = self.queue.drain(..n).collect();
                self.resident.set(self.queue.len() as u64)?;
                note_batch(&self.node, out.len(), None);
                return Ok(out);
            }
            if self.outer_done {
                return Ok(Vec::new());
            }
            let obatch = self.outer.next_batch()?;
            if obatch.is_empty() {
                self.outer_done = true;
                continue;
            }
            // The build side's scan records its own time and counters.
            self.ensure_built()?;
            let t0 = self.node.as_ref().map(|_| Instant::now());
            let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
            for jr in &obatch {
                self.join_outer_row(jr)?;
            }
            self.resident.set(self.queue.len() as u64)?;
            if let Some(n) = &self.node {
                if let Some(t0) = t0 {
                    n.add_wall(t0.elapsed());
                }
                if let Some(b) = &before {
                    n.add_metric_deltas(&self.db.counters().diff(b).pairs());
                }
            }
        }
    }

    fn close(&mut self) {
        self.outer.close();
        if let InnerSide::Build { scan, rows, .. } = &mut self.inner {
            if let Some(s) = scan {
                s.close();
            }
            rows.clear();
        }
        self.queue.clear();
        let _ = self.resident.set(0);
        let _ = self.build_resident.set(0);
    }
}

/// Guarded cartesian product: the first relation streams, the rest are
/// materialized once (charged to the gauge, so runaway products fail
/// with the `max_resident_rows` budget instead of a hard-coded cap).
pub(crate) struct CrossJoinExec<'a> {
    first: Box<dyn BatchOp + 'a>,
    rest: Vec<(usize, Box<dyn BatchOp + 'a>)>,
    mats: Vec<(usize, Vec<RelRow>)>,
    built: bool,
    queue: VecDeque<Vec<RelRow>>,
    first_done: bool,
    node: Option<ProfileNode>,
    resident: Resident,
    mat_resident: Resident,
}

impl<'a> CrossJoinExec<'a> {
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        first: Box<dyn BatchOp + 'a>,
        rest: Vec<(usize, Box<dyn BatchOp + 'a>)>,
        node: Option<ProfileNode>,
    ) -> Self {
        CrossJoinExec {
            first,
            rest,
            mats: Vec::new(),
            built: false,
            queue: VecDeque::new(),
            first_done: false,
            node,
            resident: ctx.resident("CARTESIAN PRODUCT"),
            mat_resident: ctx.resident("CARTESIAN PRODUCT build side"),
        }
    }

    fn ensure_built(&mut self) -> Result<(), DbError> {
        if self.built {
            return Ok(());
        }
        for (slot, mut op) in std::mem::take(&mut self.rest) {
            let mut rows = Vec::new();
            loop {
                let batch = op.next_batch()?;
                if batch.is_empty() {
                    break;
                }
                timed(&self.node, || {
                    self.mat_resident.add(batch.len() as u64)?;
                    for mut jr in batch {
                        rows.push(std::mem::replace(
                            &mut jr[slot],
                            RelRow { rid: None, values: Vec::new() },
                        ));
                    }
                    Ok::<_, DbError>(())
                })?;
            }
            op.close();
            self.mats.push((slot, rows));
        }
        self.built = true;
        Ok(())
    }

    fn expand(&mut self, jr: Vec<RelRow>) -> Result<(), DbError> {
        // Depth-first over the materialized relations, rightmost
        // innermost.
        let mut acc: Vec<Vec<RelRow>> = vec![jr];
        for (slot, rows) in &self.mats {
            let mut next = Vec::with_capacity(acc.len() * rows.len());
            for prefix in &acc {
                for r in rows {
                    let mut row = prefix.clone();
                    row[*slot] = r.clone();
                    next.push(row);
                }
            }
            acc = next;
            self.resident.set((self.queue.len() + acc.len()) as u64)?;
        }
        self.queue.extend(acc);
        Ok(())
    }
}

impl BatchOp for CrossJoinExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        loop {
            if !self.queue.is_empty() {
                let n = self.queue.len().min(BATCH_ROWS);
                let out: JoinedBatch = self.queue.drain(..n).collect();
                self.resident.set(self.queue.len() as u64)?;
                note_batch(&self.node, out.len(), None);
                return Ok(out);
            }
            if self.first_done {
                return Ok(Vec::new());
            }
            let batch = self.first.next_batch()?;
            if batch.is_empty() {
                self.first_done = true;
                continue;
            }
            self.ensure_built()?;
            let t0 = self.node.as_ref().map(|_| Instant::now());
            for jr in batch {
                self.expand(jr)?;
            }
            self.resident.set(self.queue.len() as u64)?;
            if let (Some(n), Some(t0)) = (&self.node, t0) {
                n.add_wall(t0.elapsed());
            }
        }
    }

    fn close(&mut self) {
        self.first.close();
        for (_, op) in &mut self.rest {
            op.close();
        }
        self.mats.clear();
        self.queue.clear();
        let _ = self.resident.set(0);
        let _ = self.mat_resident.set(0);
    }
}

// ---------------------------------------------------------------------------
// Sort / limit
// ---------------------------------------------------------------------------

/// Blocking ORDER BY: drains the child, sorts by the evaluated keys,
/// then re-emits in batches, releasing gauge charge as rows drain.
pub(crate) struct SortExec<'a> {
    child: Box<dyn BatchOp + 'a>,
    keys: Vec<SortKey>,
    sorted: Option<VecDeque<Vec<RelRow>>>,
    node: Option<ProfileNode>,
    resident: Resident,
}

impl<'a> SortExec<'a> {
    pub(crate) fn new(
        child: Box<dyn BatchOp + 'a>,
        ctx: &ExecCtx<'a>,
        keys: Vec<SortKey>,
        node: Option<ProfileNode>,
    ) -> Self {
        let resident = ctx.resident("SORT");
        SortExec { child, keys, sorted: None, node, resident }
    }
}

impl BatchOp for SortExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.sorted.is_none() {
            let mut keyed: Vec<(Vec<Value>, Vec<RelRow>)> = Vec::new();
            loop {
                let batch = self.child.next_batch()?;
                if batch.is_empty() {
                    break;
                }
                timed(&self.node, || {
                    self.resident.add(batch.len() as u64)?;
                    for jr in batch {
                        keyed.push((sort_values(&self.keys, &jr)?, jr));
                    }
                    Ok::<_, DbError>(())
                })?;
            }
            let keys = &self.keys;
            self.sorted = Some(timed(&self.node, || {
                keyed.sort_by(|(a, _), (b, _)| cmp_sort_values(keys, a, b));
                keyed.into_iter().map(|(_, r)| r).collect()
            }));
        }
        let buf = self.sorted.as_mut().expect("sorted buffer");
        let n = buf.len().min(BATCH_ROWS);
        let out: JoinedBatch = buf.drain(..n).collect();
        self.resident.set(buf.len() as u64)?;
        if !out.is_empty() {
            note_batch(&self.node, out.len(), None);
        }
        Ok(out)
    }

    fn close(&mut self) {
        self.child.close();
        self.sorted = None;
        let _ = self.resident.set(0);
    }
}

/// `LIMIT n` with genuine early termination: the moment the quota is
/// satisfied the child's `close()` runs, which propagates down the
/// tree — a streaming `TABLE(SPATIAL_JOIN(...))` scan stops its R-tree
/// traversal mid-join instead of computing rows nobody will read.
pub(crate) struct LimitExec<'a> {
    child: Box<dyn BatchOp + 'a>,
    remaining: usize,
    child_closed: bool,
    node: Option<ProfileNode>,
}

impl<'a> LimitExec<'a> {
    pub(crate) fn new(child: Box<dyn BatchOp + 'a>, n: usize, node: Option<ProfileNode>) -> Self {
        LimitExec { child, remaining: n, child_closed: false, node }
    }
}

impl BatchOp for LimitExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.remaining == 0 {
            self.close();
            return Ok(Vec::new());
        }
        let mut batch = self.child.next_batch()?;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        if batch.len() > self.remaining {
            batch.truncate(self.remaining);
        }
        self.remaining -= batch.len();
        if self.remaining == 0 {
            // Early termination: stop the producers now, not at drop.
            self.close();
        }
        note_batch(&self.node, batch.len(), None);
        Ok(batch)
    }

    fn close(&mut self) {
        if !self.child_closed {
            self.child.close();
            self.child_closed = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline builder and driver
// ---------------------------------------------------------------------------

/// A built SELECT pipeline: the operator tree plus the projection that
/// turns joined rows into result rows. Used both as the top-level
/// driver and as the streaming subquery feed of
/// [`RowidSemiJoinExec`].
pub(crate) struct SelectStream<'a> {
    root: Box<dyn BatchOp + 'a>,
    projection: Projection,
    /// Output column names.
    pub(crate) columns: Vec<String>,
    /// `COUNT(*)`: the result is the root's row count.
    count_star: bool,
    /// The `AGGREGATE COUNT(*)` node, when counting and profiled.
    count_node: Option<ProfileNode>,
}

impl SelectStream<'_> {
    /// Next batch of projected result rows; empty means exhausted.
    pub(crate) fn next_rows(&mut self) -> Result<Vec<Row>, DbError> {
        let batch = self.root.next_batch()?;
        batch.iter().map(|jr| self.projection.row(jr)).collect()
    }

    /// Close the pipeline (idempotent, propagates to every operator).
    pub(crate) fn close(&mut self) {
        self.root.close();
    }

    /// Drive the pipeline to completion into a [`QueryResult`]. The
    /// result buffer itself is the client's, not the pipeline's, so it
    /// is not charged against `max_resident_rows`.
    pub(crate) fn run(mut self) -> Result<QueryResult, DbError> {
        let res = self.run_inner();
        self.close();
        res
    }

    fn run_inner(&mut self) -> Result<QueryResult, DbError> {
        if self.count_star {
            // Counting is the input's work, timed on its own nodes.
            let n = self.root.count_rows()?;
            note_batch(&self.count_node, 1, None);
            return Ok(QueryResult {
                columns: self.columns.clone(),
                rows: vec![vec![Value::Integer(n as i64)]],
            });
        }
        let mut rows = Vec::new();
        loop {
            let batch = self.next_rows()?;
            if batch.is_empty() {
                break;
            }
            rows.extend(batch);
        }
        Ok(QueryResult { columns: self.columns.clone(), rows })
    }
}

/// The profile node of `plan` under `parent`, named with its label.
fn child_node(parent: &Option<ProfileNode>, plan: &PlanNode) -> Option<ProfileNode> {
    parent.as_ref().map(|p| p.child(plan.label.clone()))
}

/// Record the plan's reason for a choice on the operator's node.
fn note_reason(node: &Option<ProfileNode>, reason: String) {
    if let Some(n) = node {
        n.set_attr("plan_reason", reason);
    }
}

/// Makes the operators of one plan, reading what its input bound.
struct Builder<'c, 'a> {
    ctx: &'c ExecCtx<'a>,
    metas: Arc<Vec<RelMeta>>,
    funcs: Vec<Option<BoundFunction>>,
}

impl<'a> Builder<'_, 'a> {
    /// The base table of FROM slot `slot`.
    fn table(&self, slot: usize) -> Result<Arc<RwLock<Table>>, DbError> {
        self.metas[slot].table.clone().ok_or_else(|| DbError::Plan("scan over non-table".into()))
    }

    /// The domain index on column `col` of FROM slot `slot`.
    fn index(&self, slot: usize, col: usize) -> Result<IndexHandle, DbError> {
        let m = &self.metas[slot];
        m.table_name
            .as_deref()
            .and_then(|t| self.ctx.db.index_on(t, &m.columns[col]))
            .map(|(_, inst)| inst)
            .ok_or_else(|| DbError::Plan("the plan's domain index is gone".into()))
    }

    fn inputs(&self, filter: Option<Filter>) -> Option<FilterInputs> {
        filter.map(|f| (Arc::clone(&self.metas), f))
    }

    /// An index scan's filter: its own predicate's exact test first,
    /// for the candidates the index returns, then `filter`. An SDO_NN
    /// ranking is exact and adds no test.
    fn index_filter(&self, pred: SpatialPred, filter: Option<Filter>) -> Option<FilterInputs> {
        if pred.name == "SDO_NN" {
            return self.inputs(filter);
        }
        let mut f = filter.unwrap_or_default();
        f.spatial.insert(0, pred);
        f.use_index.insert(0, false);
        self.inputs(Some(f))
    }

    /// The operator of an operator's only input, under `node`.
    fn input(
        &mut self,
        children: &mut Vec<PlanNode>,
        node: &Option<ProfileNode>,
    ) -> Result<Box<dyn BatchOp + 'a>, DbError> {
        let child = children.pop().expect("the operator has an input");
        let child_node = child_node(node, &child);
        self.build(child, child_node)
    }

    /// The stream of a rowid-pair subquery, under `node`.
    fn subquery(
        &self,
        root: PlanNode,
        input: PlanInput,
        node: &Option<ProfileNode>,
    ) -> Result<SelectStream<'a>, DbError> {
        let sub_node = child_node(node, &root);
        build_select_stream(self.ctx, SelectPlan { root, input }, sub_node)
    }

    /// The operator for `plan` and its inputs, recording under `node`.
    fn build(
        &mut self,
        plan: PlanNode,
        node: Option<ProfileNode>,
    ) -> Result<Box<dyn BatchOp + 'a>, DbError> {
        let ctx = self.ctx;
        let width = self.metas.len();
        let PlanNode { label, est_rows, est_cost, reason, op, mut children } = plan;
        Ok(match op {
            Op::TableScan { slot, filter } => {
                let table = self.table(slot)?;
                note_filter(&node, &self.metas, filter.as_ref());
                let filter = self.inputs(filter);
                Box::new(TableScanExec::new(ctx, table, filter, slot, width, node))
            }
            Op::IndexScan { slot, pred, filter } => {
                let index = self.index(slot, pred.target.1)?;
                let access = IndexAccess::for_predicate(&pred, index)?;
                note_reason(&node, reason);
                note_filter(&node, &self.metas, filter.as_ref());
                let (table, filter) = (self.table(slot)?, self.index_filter(pred, filter));
                Box::new(IndexScanExec::new(
                    ctx, table, access, filter, slot, width, est_rows, node,
                ))
            }
            Op::KnnScan { col, query, k } => {
                let index = self.index(0, col)?;
                let access = IndexAccess::Nearest { index, query, k, col, ranked: true };
                note_reason(&node, reason);
                let table = self.table(0)?;
                Box::new(IndexScanExec::new(ctx, table, access, None, 0, width, est_rows, node))
            }
            Op::FunctionScan { slot } => {
                let bound = self.funcs[slot].take().expect("each FROM item is read once");
                Box::new(TableFunctionScanExec::new(ctx, bound, slot, width, node))
            }
            Op::Filter(f) => {
                let child = self.input(&mut children, &node)?;
                Box::new(FilterExec::new(child, ctx, (Arc::clone(&self.metas), f), node))
            }
            Op::RowidSemiJoin { left, right, sub } => {
                let root = children.pop().expect("the semijoin reads its subquery");
                let sub = self.subquery(root, *sub, &node)?;
                let (lt, rt) = (self.table(left)?, self.table(right)?);
                Box::new(RowidSemiJoinExec::new(ctx, sub, left, right, lt, rt, width, node)?)
            }
            Op::NestedLoop { pred, swap } => {
                if let Some(n) = &node {
                    n.set_attr("plan_reason", reason);
                    n.set_attr("est_pairs", format!("{est_rows:.0}"));
                    n.set_attr("est_cost", format!("{est_cost:.0}"));
                }
                let [outer, inner]: [PlanNode; 2] =
                    children.try_into().ok().expect("a nested loop has two inputs");
                let outer_node = child_node(&node, &outer);
                let outer = self.build(outer, outer_node)?;
                let inner_node = child_node(&node, &inner);
                let inner = match (&inner.op, pred.loop_sides(swap)) {
                    (Op::IndexProbe, Some((_, (slot, col)))) => InnerSide::Probe {
                        table: self.table(slot)?,
                        index: self.index(slot, col)?,
                        node: inner_node,
                    },
                    _ => NestedLoopJoinExec::build(self.build(inner, inner_node)?),
                };
                Box::new(NestedLoopJoinExec::new(ctx, outer, pred, swap, inner, width, node)?)
            }
            Op::Cartesian => {
                note_reason(&node, reason);
                let mut children = children.into_iter();
                let first = children.next().expect("a product has inputs");
                let first_node = child_node(&node, &first);
                let first = self.build(first, first_node)?;
                let mut rest = Vec::new();
                for c in children {
                    let slot = c.op.slot().expect("a product reads FROM items");
                    let c_node = child_node(&node, &c);
                    rest.push((slot, self.build(c, c_node)?));
                }
                Box::new(CrossJoinExec::new(ctx, first, rest, node))
            }
            Op::Exchange { site, dop } => {
                note_reason(&node, reason);
                let child = children.pop().expect("an exchange has an input");
                self.exchange(site, dop, child, node)?
            }
            Op::Sort { keys } => {
                let child = self.input(&mut children, &node)?;
                let keys = SortKey::compile_all(&self.metas, &keys)?;
                Box::new(SortExec::new(child, ctx, keys, node))
            }
            Op::Limit(n) => Box::new(LimitExec::new(self.input(&mut children, &node)?, n, node)),
            Op::IndexProbe | Op::Count => {
                return Err(DbError::Plan(format!("{label} is not an operator of its own")))
            }
        })
    }

    /// A morsel-driven exchange: its workers run the subtree below it
    /// fused, and the subtree's nodes record what the workers did.
    fn exchange(
        &mut self,
        site: ExchangeSite,
        dop: usize,
        child: PlanNode,
        node: Option<ProfileNode>,
    ) -> Result<Box<dyn BatchOp + 'a>, DbError> {
        let ctx = self.ctx;
        let width = self.metas.len();
        let under = child_node(&node, &child);
        let PlanNode { op, mut children, .. } = child;
        if site == ExchangeSite::Probe {
            // [FILTER →] ROWID-PAIR SEMIJOIN → subquery: the pair stream
            // is cut into blocks fanned out to workers, which fetch both
            // base rows and run the filter.
            let (filter, semi, mut semi_children, filter_node, semi_node) = match op {
                Op::Filter(f) => {
                    let semi = children.pop().expect("a filter has an input");
                    let semi_node = child_node(&under, &semi);
                    (Some(f), semi.op, semi.children, under, semi_node)
                }
                op => (None, op, children, None, under),
            };
            let Op::RowidSemiJoin { left, right, sub } = semi else {
                return Err(DbError::Plan("a probe exchange runs a rowid-pair semijoin".into()));
            };
            let root = semi_children.pop().expect("the semijoin reads its subquery");
            let sub = self.subquery(root, *sub, &semi_node)?;
            let (lt, rt) = (self.table(left)?, self.table(right)?);
            let filter = self.inputs(filter);
            let nodes = [node, semi_node, filter_node];
            return Ok(Box::new(crate::parallel::ParallelSemiJoinExec::new(
                ctx, sub, left, right, lt, rt, width, filter, dop, nodes,
            )?));
        }
        // [SORT →] scan leaf: morsels (slot ranges of the heap, or chunks
        // of an index scan's rowids) fan out to the slave pool, and the
        // exchange merges per-worker output back into order.
        let (keys, leaf, sort_node, leaf_node) = match op {
            Op::Sort { keys } => {
                let leaf = children.pop().expect("a sort has an input");
                let leaf_node = child_node(&under, &leaf);
                (Some(keys), leaf.op, under, leaf_node)
            }
            op => (None, op, None, under),
        };
        let (slot, access, filter) = match leaf {
            Op::TableScan { slot, filter } => {
                note_filter(&leaf_node, &self.metas, filter.as_ref());
                (slot, None, self.inputs(filter))
            }
            Op::IndexScan { slot, pred, filter } => {
                let index = self.index(slot, pred.target.1)?;
                let access = IndexAccess::for_predicate(&pred, index)?;
                note_filter(&leaf_node, &self.metas, filter.as_ref());
                (slot, Some(access), self.index_filter(pred, filter))
            }
            _ => return Err(DbError::Plan("exchange requires a base table".into())),
        };
        let inputs = filter.unwrap_or_else(|| (Arc::clone(&self.metas), Filter::default()));
        let table = self.table(slot)?;
        Ok(match (site, keys) {
            (ExchangeSite::Sort { limit }, Some(keys)) => {
                let keys = SortKey::compile_all(&self.metas, &keys)?;
                let nodes = [node, sort_node, leaf_node];
                Box::new(crate::parallel::ParallelSortExec::new(
                    ctx, table, access, inputs, keys, limit, dop, nodes,
                ))
            }
            _ => Box::new(crate::parallel::ParallelScanFilterExec::new(
                ctx,
                table,
                access,
                inputs,
                dop,
                [node, leaf_node],
            )),
        })
    }
}

/// Build the operator tree of a plan: one operator per plan node, each
/// recording under a profile node named with the node's label — the
/// root's is `node` — so `EXPLAIN ANALYZE` draws the tree `EXPLAIN`
/// draws.
pub(crate) fn build_select_stream<'a>(
    ctx: &ExecCtx<'a>,
    plan: SelectPlan,
    node: Option<ProfileNode>,
) -> Result<SelectStream<'a>, DbError> {
    let SelectPlan { mut root, input: PlanInput { metas, funcs, projection } } = plan;
    // Validate the projection up front so errors surface before any
    // operator starts.
    let columns = projection_columns(&metas, &projection)?;
    let compiled = Projection::compile(&metas, &projection)?;
    let mut b = Builder { ctx, metas, funcs };
    let count_star = matches!(root.op, Op::Count);
    let (root, count_node) = match count_star {
        true => (b.input(&mut root.children, &node)?, node),
        false => (b.build(root, node)?, None),
    };
    Ok(SelectStream { root, projection: compiled, columns, count_star, count_node })
}

/// Plan and run a SELECT under the statement's profile node.
pub(crate) fn run_select(ctx: &ExecCtx<'_>, sel: &Select) -> Result<QueryResult, DbError> {
    let parent = sdo_obs::current();
    let binding = Binding::Execute { ctx, profiled: parent.is_some() };
    let plan = plan_select(ctx.db, sel, &ctx.plan_env(), binding)?;
    let node = parent.map(|p| p.child(plan.root.label.clone()));
    build_select_stream(ctx, plan, node)?.run()
}

/// Scan-and-filter a single table, returning the matching `(rowid,
/// row)` pairs. DELETE and UPDATE collect their rows through the
/// serial plan of the one-table `SELECT *` with their WHERE clause, so
/// an indexable spatial predicate is answered by an index scan.
pub(crate) fn collect_matching(
    ctx: &ExecCtx<'_>,
    table_name: &str,
    where_clause: &[Predicate],
) -> Result<Vec<(RowId, Row)>, DbError> {
    if where_clause.iter().any(|p| matches!(p, Predicate::RowidPairIn { .. })) {
        return Err(DbError::Plan(
            "rowid-pair IN must be the driving predicate of a two-table select".into(),
        ));
    }
    let sel = Select {
        projection: vec![SelectItem::Star],
        from: vec![FromItem::Table { name: table_name.to_string(), alias: None }],
        where_clause: where_clause.to_vec(),
        order_by: Vec::new(),
        limit: None,
    };
    let parent = sdo_obs::current();
    let binding = Binding::Execute { ctx, profiled: parent.is_some() };
    let plan = plan_select(ctx.db, &sel, &PlanEnv::serial(), binding)?;
    let node = parent.map(|p| p.child(plan.root.label.clone()));
    let mut root = build_select_stream(ctx, plan, node)?.root;
    let mut matched = Vec::new();
    let res = (|| -> Result<(), DbError> {
        loop {
            let batch = root.next_batch()?;
            if batch.is_empty() {
                return Ok(());
            }
            for mut jr in batch {
                let r = std::mem::replace(&mut jr[0], RelRow { rid: None, values: Vec::new() });
                let rid = r.rid.ok_or_else(|| DbError::Plan("table rows have rowids".into()))?;
                matched.push((rid, r.values));
            }
        }
    })();
    root.close();
    res?;
    Ok(matched)
}
