//! Morsel-driven intra-query parallelism: exchange operators over the
//! shared slave pool.
//!
//! The serial executor in [`crate::operators`] pulls one batch at a
//! time through a single thread. This module adds the classic
//! morsel-driven design on top of it: an exchange cuts its input into
//! *morsels* (slot ranges of a heap table, or probe blocks of a rowid
//! pair stream), seeds them into the work-stealing [`TaskQueue`] from
//! `sdo-tablefunc`, and fans them out to workers on the elastic
//! [`SlavePool`](sdo_tablefunc::SlavePool) — the same pool the paper's
//! parallel table functions use, so one knob governs all slave
//! threads. Each worker filters (and for ORDER BY, partially sorts)
//! its morsels against a shared database-free [`FilterEval`], then
//! ships results back over a bounded channel.
//!
//! Determinism: every emitted row is tagged by its morsel index (and,
//! for sorts, its position within the morsel), and the coordinator
//! merges worker output through a reorder buffer in morsel order — so
//! the row stream is **bit-identical to the serial plan at any degree
//! of parallelism**, tie-breaks included. The equivalence suite pins
//! this at dop 1/2/4.
//!
//! Memory accounting: workers charge the statement's shared
//! [`MemoryGauge`] through RAII [`GaugeCharge`] accounts, enforcing
//! the same `max_resident_rows` budget (with the same error text) as
//! the serial operators. A charge travels *with* the rows — worker →
//! channel → coordinator — so a worker erroring mid-morsel, a dropped
//! channel, or an early `close()` all release exactly what they hold.

use crate::db::Database;
use crate::error::DbError;
use crate::exec::{RelMeta, RelRow, SpatialPred};
use crate::operators::{
    empty_joined, note_batch, BatchOp, ExecCtx, FilterEval, FilterInputs, JoinedBatch, Resident,
    SelectStream, BATCH_ROWS,
};
use crate::sql::ast::{OrderKey, Predicate};
use parking_lot::{Mutex, RwLock};
use sdo_obs::{GaugeCharge, MemoryGauge, ProfileNode};
use sdo_storage::{RowId, Snapshot, Table, Value};
use sdo_tablefunc::pool::{self, PoolJoinHandle};
use sdo_tablefunc::scheduler::TaskQueue;
use sdo_tablefunc::source::TableCursor;
use sdo_tablefunc::RowSource;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Rows per morsel. A morsel is the unit of work stealing: large
/// enough to amortize scheduling and cursor setup, small enough that
/// skew between workers stays bounded. Tests shrink it so small
/// corpora still exercise the parallel paths.
static MORSEL_ROWS: AtomicUsize = AtomicUsize::new(4096);

/// Current morsel size in rows.
pub(crate) fn morsel_rows() -> usize {
    MORSEL_ROWS.load(Ordering::Relaxed).max(1)
}

/// Override the morsel size (rows per work-stealing unit). Intended
/// for tests and benchmarks that need small tables to parallelize;
/// the default of 4096 rows is right for real workloads.
pub fn set_morsel_rows(n: usize) {
    MORSEL_ROWS.store(n.max(1), Ordering::Relaxed);
}

/// Probe-cache capacity per semijoin worker, in cached rows.
const PROBE_CACHE_ROWS: usize = 4096;

/// One slot-range morsel of a heap table: slots `[from, to)`.
#[derive(Debug, Clone, Copy)]
struct Morsel {
    idx: usize,
    from: usize,
    to: usize,
}

/// Cut `[0, hwm)` into morsels of the current size, in slot order.
fn make_morsels(hwm: usize) -> Vec<Morsel> {
    let step = morsel_rows();
    (0..hwm)
        .step_by(step)
        .enumerate()
        .map(|(idx, from)| Morsel { idx, from, to: (from + step).min(hwm) })
        .collect()
}

/// Charge `n` more rows to a worker-side account, enforcing the
/// session budget with the same error text as the serial
/// [`Resident`] account so `max_resident_rows` failures read
/// identically at any dop.
fn charge_rows(
    charge: &mut GaugeCharge,
    limit: u64,
    n: u64,
    operator: &str,
) -> Result<(), DbError> {
    let now = charge.add(n);
    if now > limit {
        return Err(DbError::Plan(format!(
            "resident rows ({now}) exceed MAX_RESIDENT_ROWS ({limit}) in operator {operator}; \
             raise it with ALTER SESSION SET max_resident_rows = <n>"
        )));
    }
    Ok(())
}

/// One finished morsel travelling worker → coordinator. The
/// [`GaugeCharge`] inside carries the gauge liability for `rows`, so
/// dropping the message anywhere (channel teardown, error path)
/// releases the charge.
struct MorselOut {
    idx: usize,
    rows: JoinedBatch,
    charge: GaugeCharge,
}

type WorkerMsg = Result<MorselOut, DbError>;

/// Per-worker profile nodes (`worker 0` … `worker N-1`) under the
/// EXCHANGE node, present only when profiling.
fn worker_nodes(node: &Option<ProfileNode>, dop: usize) -> Vec<Option<ProfileNode>> {
    (0..dop).map(|i| node.as_ref().map(|n| n.child(format!("worker {i}")))).collect()
}

/// Stamp the scheduler's per-worker tallies onto the profile tree.
/// `set_metric` (not `add`) so a zero — no steals — still renders.
fn stamp_worker_metrics(nodes: &[Option<ProfileNode>], queue: &TaskQueue<Morsel>) {
    for (i, wn) in nodes.iter().enumerate() {
        if let Some(n) = wn {
            n.set_metric("morsels_executed", queue.executed(i));
            n.set_metric("morsels_stolen", queue.stolen(i));
        }
    }
}

/// Scan one morsel through the shared filter, returning surviving
/// rows charged against `charge`.
fn scan_morsel(
    table: &Arc<RwLock<Table>>,
    snap: Snapshot,
    width: usize,
    eval: &FilterEval,
    m: Morsel,
    charge: &mut GaugeCharge,
    limit: u64,
) -> Result<JoinedBatch, DbError> {
    let mut cursor = TableCursor::slice(Arc::clone(table), m.from, m.to).at_snapshot(snap);
    let mut out = Vec::new();
    loop {
        let rows = cursor.next_batch(BATCH_ROWS);
        if rows.is_empty() {
            break;
        }
        let mut kept = 0u64;
        for row in rows {
            let mut it = row.into_iter();
            let rid = it.next().and_then(|v| v.as_rowid());
            let mut jr = empty_joined(width);
            jr[0] = RelRow { rid, values: it.collect() };
            if !eval.is_empty() && !eval.row_passes(&jr)? {
                continue;
            }
            out.push(jr);
            kept += 1;
        }
        charge_rows(charge, limit, kept, "EXCHANGE")?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parallel scan + filter
// ---------------------------------------------------------------------------

/// Running exchange state: the channel, scheduler, worker handles and
/// the morsel-ordered reorder buffer.
struct ScanState {
    rx: Receiver<WorkerMsg>,
    queue: Arc<TaskQueue<Morsel>>,
    handles: Vec<PoolJoinHandle>,
    cancel: Arc<AtomicBool>,
    nodes: Vec<Option<ProfileNode>>,
    /// Morsels received out of order, keyed by morsel index.
    pending: BTreeMap<usize, JoinedBatch>,
    /// In-order rows awaiting batch emission.
    out: VecDeque<Vec<RelRow>>,
    next_idx: usize,
    total: usize,
    delivered: usize,
}

/// Morsel-parallel `TableScanExec` + `FilterExec` fusion: the
/// planner's Scan-site exchange. Workers scan disjoint slot ranges
/// under the statement snapshot, filter with per-worker state, and the
/// coordinator merges morsels back in slot order — emitting the exact
/// row stream the serial scan+filter would.
pub(crate) struct ParallelScanFilterExec<'a> {
    db: &'a Database,
    table: Arc<RwLock<Table>>,
    inputs: Option<FilterInputs>,
    width: usize,
    dop: usize,
    state: Option<ScanState>,
    node: Option<ProfileNode>,
    resident: Resident,
    held: u64,
    gauge: MemoryGauge,
    budget: u64,
    snap: Snapshot,
    done: bool,
}

impl<'a> ParallelScanFilterExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        table: Arc<RwLock<Table>>,
        metas: Arc<Vec<RelMeta>>,
        spatial: Vec<SpatialPred>,
        residual: Vec<Predicate>,
        hints: Option<Vec<bool>>,
        dop: usize,
        node: Option<ProfileNode>,
    ) -> Self {
        let resident = ctx.resident("EXCHANGE");
        let width = metas.len();
        ParallelScanFilterExec {
            db: ctx.db,
            table,
            inputs: Some((metas, spatial, residual, hints)),
            width,
            dop: dop.max(1),
            state: None,
            node,
            resident,
            held: 0,
            gauge: ctx.gauge.clone(),
            budget: ctx.max_resident_rows,
            snap: ctx.snap,
            done: false,
        }
    }

    fn start(&mut self) -> Result<(), DbError> {
        let (metas, spatial, residual, hints) = self.inputs.take().expect("exchange inputs");
        let eval = Arc::new(FilterEval::build(
            self.db,
            metas,
            spatial,
            residual,
            hints.as_deref(),
            self.snap,
        )?);
        let hwm = self.table.read().high_water_mark();
        let morsels = make_morsels(hwm);
        if morsels.is_empty() {
            self.done = true;
            return Ok(());
        }
        let total = morsels.len();
        let eff = self.dop.min(total);
        if let Some(n) = &self.node {
            n.set_attr("dop", eff.to_string());
        }
        let queue = TaskQueue::seed_round_robin(morsels, eff);
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<WorkerMsg>(eff * 2);
        let nodes = worker_nodes(&self.node, eff);
        let mut handles = Vec::with_capacity(eff);
        for (w, wnode) in nodes.iter().enumerate() {
            let queue = Arc::clone(&queue);
            let cancel = Arc::clone(&cancel);
            let tx = tx.clone();
            let table = Arc::clone(&self.table);
            let eval = Arc::clone(&eval);
            let gauge = self.gauge.clone();
            let wnode = wnode.clone();
            let (snap, width, budget) = (self.snap, self.width, self.budget);
            handles.push(pool::global().submit(move || {
                scan_worker(w, queue, cancel, tx, table, snap, width, eval, gauge, budget, wnode)
            }));
        }
        drop(tx);
        self.state = Some(ScanState {
            rx,
            queue,
            handles,
            cancel,
            nodes,
            pending: BTreeMap::new(),
            out: VecDeque::new(),
            next_idx: 0,
            total,
            delivered: 0,
        });
        Ok(())
    }

    /// Stop workers, collect their scheduler tallies into the profile
    /// tree, and zero the coordinator's resident account. Safe on
    /// every exit path: success, error, early `close()`.
    fn finish(&mut self) {
        if let Some(st) = self.state.take() {
            let ScanState { rx, queue, handles, cancel, nodes, .. } = st;
            cancel.store(true, Ordering::Relaxed);
            // Drop the receiver first so workers blocked on a full
            // channel fail their send and exit instead of deadlocking
            // against the joins below. In-flight messages release
            // their charges as the channel drops them.
            drop(rx);
            for h in handles {
                h.join();
            }
            stamp_worker_metrics(&nodes, &queue);
        }
        self.held = 0;
        let _ = self.resident.set(0);
    }
}

/// Refill the reorder buffer until a full batch is in order or every
/// morsel has been delivered.
fn fill_in_order(
    st: &mut ScanState,
    resident: &mut Resident,
    held: &mut u64,
) -> Result<(), DbError> {
    loop {
        while let Some(rows) = st.pending.remove(&st.next_idx) {
            st.next_idx += 1;
            st.delivered += 1;
            st.out.extend(rows);
        }
        if st.out.len() >= BATCH_ROWS || st.delivered == st.total {
            return Ok(());
        }
        match st.rx.recv() {
            Ok(Ok(mo)) => {
                // Transfer the liability: release the worker's charge,
                // re-charge the coordinator's account (which re-checks
                // the budget including everything already buffered).
                let n = mo.rows.len() as u64;
                drop(mo.charge);
                resident.add(n)?;
                *held += n;
                st.pending.insert(mo.idx, mo.rows);
            }
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                // All senders gone before every morsel arrived: a
                // worker died without reporting (the pool swallows
                // panics into the join).
                return Err(DbError::Plan("parallel scan worker terminated unexpectedly".into()));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_worker(
    w: usize,
    queue: Arc<TaskQueue<Morsel>>,
    cancel: Arc<AtomicBool>,
    tx: SyncSender<WorkerMsg>,
    table: Arc<RwLock<Table>>,
    snap: Snapshot,
    width: usize,
    eval: Arc<FilterEval>,
    gauge: MemoryGauge,
    budget: u64,
    node: Option<ProfileNode>,
) {
    while !cancel.load(Ordering::Relaxed) {
        let Some(pulled) = queue.pop(w) else { break };
        let t0 = node.as_ref().map(|_| Instant::now());
        let mut charge = gauge.charge();
        match scan_morsel(&table, snap, width, &eval, pulled.task, &mut charge, budget) {
            Ok(rows) => {
                note_batch(&node, rows.len(), t0);
                if tx.send(Ok(MorselOut { idx: pulled.task.idx, rows, charge })).is_err() {
                    break; // coordinator closed early (e.g. LIMIT)
                }
            }
            Err(e) => {
                drop(charge); // release mid-morsel work before reporting
                let _ = tx.send(Err(e));
                break;
            }
        }
    }
}

impl BatchOp for ParallelScanFilterExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.done {
            return Ok(Vec::new());
        }
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        if self.state.is_none() {
            if let Err(e) = self.start() {
                self.done = true;
                self.finish();
                return Err(e);
            }
            if self.done {
                return Ok(Vec::new());
            }
        }
        let res = fill_in_order(
            self.state.as_mut().expect("exchange state"),
            &mut self.resident,
            &mut self.held,
        );
        if let (Some(n), Some(b)) = (&self.node, &before) {
            n.add_metric_deltas(&self.db.counters().diff(b).pairs());
        }
        if let Err(e) = res {
            self.done = true;
            self.finish();
            return Err(e);
        }
        let st = self.state.as_mut().expect("exchange state");
        let n = st.out.len().min(BATCH_ROWS);
        let batch: JoinedBatch = st.out.drain(..n).collect();
        self.held -= n as u64;
        self.resident.set(self.held)?;
        if batch.is_empty() {
            self.done = true;
            self.finish();
        } else {
            note_batch(&self.node, batch.len(), None);
        }
        Ok(batch)
    }

    fn close(&mut self) {
        self.done = true;
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// Parallel sort / top-k
// ---------------------------------------------------------------------------

/// A row ready to merge: evaluated ORDER BY keys, the serial-order
/// sequence tag `(morsel_idx << 32) | pos_in_morsel`, and the row.
type SortedRow = (Vec<Value>, u64, Vec<RelRow>);

/// One worker's fully sorted (and, under LIMIT k, truncated) run.
struct SortRun {
    rows: Vec<SortedRow>,
    charge: GaugeCharge,
}

/// Total order on keyed rows: the ORDER BY keys (honoring per-key
/// direction), then the sequence tag. Because the tag is the row's
/// position in serial scan order, this total order coincides with the
/// serial executor's *stable* sort — bit-identical output, tie-breaks
/// included.
fn cmp_sorted(keys: &[OrderKey], a: &SortedRow, b: &SortedRow) -> std::cmp::Ordering {
    for (i, k) in keys.iter().enumerate() {
        let ord = a.0[i].sql_cmp(&b.0[i]);
        let ord = if k.descending { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.1.cmp(&b.1)
}

/// Morsel-parallel ORDER BY (and top-k): the planner's Sort-site
/// exchange. Workers scan + filter their morsels, evaluate the sort
/// keys once per surviving row, keep a partial sort (truncated to k
/// under a LIMIT, amortized at 2k), and ship one sorted run each; the
/// coordinator merges the ≤ dop runs head-to-head.
pub(crate) struct ParallelSortExec<'a> {
    db: &'a Database,
    table: Arc<RwLock<Table>>,
    inputs: Option<FilterInputs>,
    keys: Vec<OrderKey>,
    limit: Option<usize>,
    width: usize,
    dop: usize,
    runs: Option<Vec<VecDeque<SortedRow>>>,
    node: Option<ProfileNode>,
    resident: Resident,
    held: u64,
    gauge: MemoryGauge,
    budget: u64,
    snap: Snapshot,
    done: bool,
}

impl<'a> ParallelSortExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        table: Arc<RwLock<Table>>,
        metas: Arc<Vec<RelMeta>>,
        spatial: Vec<SpatialPred>,
        residual: Vec<Predicate>,
        hints: Option<Vec<bool>>,
        keys: Vec<OrderKey>,
        limit: Option<usize>,
        dop: usize,
        node: Option<ProfileNode>,
    ) -> Self {
        let resident = ctx.resident("EXCHANGE");
        let width = metas.len();
        ParallelSortExec {
            db: ctx.db,
            table,
            inputs: Some((metas, spatial, residual, hints)),
            keys,
            limit,
            width,
            dop: dop.max(1),
            runs: None,
            node,
            resident,
            held: 0,
            gauge: ctx.gauge.clone(),
            budget: ctx.max_resident_rows,
            snap: ctx.snap,
            done: false,
        }
    }

    /// Fan out, block until every worker delivers its sorted run, and
    /// account the runs to the coordinator. Blocking here mirrors the
    /// serial `SortExec`, which is equally a pipeline breaker.
    fn ensure_runs(&mut self) -> Result<(), DbError> {
        if self.runs.is_some() {
            return Ok(());
        }
        let (metas, spatial, residual, hints) = self.inputs.take().expect("sort exchange inputs");
        let eval = Arc::new(FilterEval::build(
            self.db,
            Arc::clone(&metas),
            spatial,
            residual,
            hints.as_deref(),
            self.snap,
        )?);
        let hwm = self.table.read().high_water_mark();
        let morsels = make_morsels(hwm);
        if morsels.is_empty() {
            self.runs = Some(Vec::new());
            return Ok(());
        }
        let eff = self.dop.min(morsels.len());
        if let Some(n) = &self.node {
            n.set_attr("dop", eff.to_string());
        }
        let queue = TaskQueue::seed_round_robin(morsels, eff);
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<SortRun, DbError>>(eff);
        let nodes = worker_nodes(&self.node, eff);
        let keys = Arc::new(self.keys.clone());
        let mut handles = Vec::with_capacity(eff);
        for (w, wnode) in nodes.iter().enumerate() {
            let queue = Arc::clone(&queue);
            let cancel = Arc::clone(&cancel);
            let tx = tx.clone();
            let table = Arc::clone(&self.table);
            let metas = Arc::clone(&metas);
            let eval = Arc::clone(&eval);
            let keys = Arc::clone(&keys);
            let gauge = self.gauge.clone();
            let wnode = wnode.clone();
            let (snap, width, budget, limit) = (self.snap, self.width, self.budget, self.limit);
            handles.push(pool::global().submit(move || {
                sort_worker(
                    w, queue, cancel, tx, table, snap, width, metas, eval, keys, limit, gauge,
                    budget, wnode,
                )
            }));
        }
        drop(tx);
        let mut runs: Vec<VecDeque<SortedRow>> = Vec::with_capacity(eff);
        let mut failure: Option<DbError> = None;
        for _ in 0..eff {
            match rx.recv() {
                Ok(Ok(run)) => {
                    if failure.is_none() {
                        let n = run.rows.len() as u64;
                        drop(run.charge);
                        match self.resident.add(n) {
                            Ok(()) => {
                                self.held += n;
                                runs.push(run.rows.into());
                            }
                            Err(e) => {
                                cancel.store(true, Ordering::Relaxed);
                                failure = Some(e);
                            }
                        }
                    }
                }
                Ok(Err(e)) => {
                    cancel.store(true, Ordering::Relaxed);
                    if failure.is_none() {
                        failure = Some(e);
                    }
                }
                Err(_) => {
                    if failure.is_none() {
                        failure = Some(DbError::Plan(
                            "parallel sort worker terminated unexpectedly".into(),
                        ));
                    }
                    break;
                }
            }
        }
        drop(rx);
        for h in handles {
            h.join();
        }
        stamp_worker_metrics(&nodes, &queue);
        if let Some(e) = failure {
            self.held = 0;
            let _ = self.resident.set(0);
            return Err(e);
        }
        self.runs = Some(runs);
        Ok(())
    }
}

#[allow(clippy::too_many_arguments)]
fn sort_worker(
    w: usize,
    queue: Arc<TaskQueue<Morsel>>,
    cancel: Arc<AtomicBool>,
    tx: SyncSender<Result<SortRun, DbError>>,
    table: Arc<RwLock<Table>>,
    snap: Snapshot,
    width: usize,
    metas: Arc<Vec<RelMeta>>,
    eval: Arc<FilterEval>,
    keys: Arc<Vec<OrderKey>>,
    limit: Option<usize>,
    gauge: MemoryGauge,
    budget: u64,
    node: Option<ProfileNode>,
) {
    let t0 = node.as_ref().map(|_| Instant::now());
    let mut charge = gauge.charge();
    let mut buf: Vec<SortedRow> = Vec::new();
    let result = (|| -> Result<(), DbError> {
        while !cancel.load(Ordering::Relaxed) {
            let Some(pulled) = queue.pop(w) else { break };
            let m = pulled.task;
            let mut cursor = TableCursor::slice(Arc::clone(&table), m.from, m.to).at_snapshot(snap);
            let mut pos: u64 = 0;
            loop {
                let rows = cursor.next_batch(BATCH_ROWS);
                if rows.is_empty() {
                    break;
                }
                let mut kept = 0u64;
                for row in rows {
                    let mut it = row.into_iter();
                    let rid = it.next().and_then(|v| v.as_rowid());
                    let mut jr = empty_joined(width);
                    jr[0] = RelRow { rid, values: it.collect() };
                    if !eval.is_empty() && !eval.row_passes(&jr)? {
                        continue;
                    }
                    let ks = keys
                        .iter()
                        .map(|k| crate::exec::eval_expr(&metas, &jr, &k.expr))
                        .collect::<Result<Vec<_>, _>>()?;
                    // Serial scan order: morsel index, then surviving
                    // row position within the morsel.
                    let seq = ((m.idx as u64) << 32) | pos;
                    pos += 1;
                    buf.push((ks, seq, jr));
                    kept += 1;
                }
                charge_rows(&mut charge, budget, kept, "EXCHANGE")?;
            }
            // Top-k: never hold more than 2k rows per worker; sort and
            // cut back to k, releasing the difference.
            if let Some(k) = limit {
                if buf.len() >= 2 * k.max(1) {
                    buf.sort_by(|a, b| cmp_sorted(&keys, a, b));
                    buf.truncate(k);
                    charge.set(buf.len() as u64);
                }
            }
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            buf.sort_by(|a, b| cmp_sorted(&keys, a, b));
            if let Some(k) = limit {
                buf.truncate(k);
                charge.set(buf.len() as u64);
            }
            note_batch(&node, buf.len(), t0);
            let _ = tx.send(Ok(SortRun { rows: buf, charge }));
        }
        Err(e) => {
            drop(charge);
            let _ = tx.send(Err(e));
        }
    }
}

impl BatchOp for ParallelSortExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.done {
            return Ok(Vec::new());
        }
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        let started = self.runs.is_none();
        if started {
            let res = self.ensure_runs();
            if let (Some(n), Some(b)) = (&self.node, &before) {
                n.add_metric_deltas(&self.db.counters().diff(b).pairs());
            }
            if let Err(e) = res {
                self.done = true;
                return Err(e);
            }
        }
        let keys = &self.keys;
        let runs = self.runs.as_mut().expect("sorted runs");
        let mut out: JoinedBatch = Vec::with_capacity(BATCH_ROWS.min(self.held as usize));
        while out.len() < BATCH_ROWS {
            // Tournament over the ≤ dop run heads (dop is capped at
            // 64, so a linear scan beats a merge tree's bookkeeping).
            let mut best: Option<usize> = None;
            for (i, r) in runs.iter().enumerate() {
                let Some(head) = r.front() else { continue };
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        let bh = runs[b].front().expect("non-empty best run");
                        if cmp_sorted(keys, head, bh) == std::cmp::Ordering::Less {
                            Some(i)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let Some(b) = best else { break };
            let (_, _, jr) = runs[b].pop_front().expect("non-empty best run");
            out.push(jr);
        }
        self.held -= out.len() as u64;
        self.resident.set(self.held)?;
        if out.is_empty() {
            self.done = true;
            self.runs = None;
        } else {
            note_batch(&self.node, out.len(), None);
        }
        Ok(out)
    }

    fn close(&mut self) {
        self.done = true;
        self.runs = None;
        self.held = 0;
        let _ = self.resident.set(0);
    }
}

// ---------------------------------------------------------------------------
// Parallel rowid-pair semijoin probe
// ---------------------------------------------------------------------------

/// A bounded per-worker cache of fetched base rows, keyed by
/// `(side, rowid)`. Invisible rows cache as `None` so repeat probes
/// skip the table read too. Wholesale clear on overflow keeps it
/// allocation-cheap; hit/miss tallies surface in `EXPLAIN ANALYZE`
/// per worker (hits + misses == 2 × pairs_probed, by construction).
struct ProbeCache {
    map: HashMap<(bool, RowId), Option<Arc<[Value]>>>,
    cap: usize,
    hits: u64,
    misses: u64,
    probed: u64,
}

impl ProbeCache {
    fn new(cap: usize) -> Self {
        ProbeCache { map: HashMap::new(), cap: cap.max(1), hits: 0, misses: 0, probed: 0 }
    }

    fn fetch(
        &mut self,
        left: bool,
        rid: RowId,
        table: &Arc<RwLock<Table>>,
        snap: &Snapshot,
    ) -> Option<Arc<[Value]>> {
        if let Some(v) = self.map.get(&(left, rid)) {
            self.hits += 1;
            return v.clone();
        }
        self.misses += 1;
        let v = table.read().get_at(rid, snap).ok();
        if self.map.len() >= self.cap {
            self.map.clear();
        }
        self.map.insert((left, rid), v.clone());
        v
    }
}

/// One probe block of deduplicated rowid pairs, in pair-stream order.
struct Block {
    idx: usize,
    pairs: Vec<(RowId, RowId)>,
}

/// Morsel-parallel rowid-pair semijoin: the planner's Probe-site
/// exchange, replacing serial `RowidSemiJoinExec` + `FilterExec`.
/// The coordinator drains the table-function subquery and
/// deduplicates serially (IN semantics need a global seen-set), cuts
/// the surviving pairs into blocks, and fans each *wave* of blocks to
/// workers that fetch both base rows through a private [`ProbeCache`]
/// and apply the secondary filters per worker. Blocks reassemble in
/// stream order, so output matches the serial plan row for row.
pub(crate) struct ParallelSemiJoinExec<'a> {
    db: &'a Database,
    sub: SelectStream<'a>,
    l_rel: usize,
    r_rel: usize,
    lt: Arc<RwLock<Table>>,
    rt: Arc<RwLock<Table>>,
    width: usize,
    eval: Arc<FilterEval>,
    filter_active: bool,
    seen: std::collections::HashSet<(RowId, RowId)>,
    dop: usize,
    node: Option<ProfileNode>,
    nodes: Vec<Option<ProfileNode>>,
    caches: Vec<Arc<Mutex<ProbeCache>>>,
    executed: Vec<u64>,
    stolen: Vec<u64>,
    out: VecDeque<Vec<RelRow>>,
    resident: Resident,
    held: u64,
    gauge: MemoryGauge,
    budget: u64,
    snap: Snapshot,
    sub_done: bool,
    done: bool,
    stamped: bool,
}

impl<'a> ParallelSemiJoinExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        sub: SelectStream<'a>,
        l_rel: usize,
        r_rel: usize,
        lt: Arc<RwLock<Table>>,
        rt: Arc<RwLock<Table>>,
        width: usize,
        metas: Arc<Vec<RelMeta>>,
        spatial: Vec<SpatialPred>,
        residual: Vec<Predicate>,
        hints: Option<Vec<bool>>,
        dop: usize,
        node: Option<ProfileNode>,
    ) -> Result<Self, DbError> {
        if sub.columns.len() < 2 {
            return Err(DbError::Plan("rowid-pair subquery must project two rowid columns".into()));
        }
        let filter_active = !spatial.is_empty() || !residual.is_empty();
        let eval = Arc::new(FilterEval::build(
            ctx.db,
            metas,
            spatial,
            residual,
            hints.as_deref(),
            ctx.snap,
        )?);
        let dop = dop.max(1);
        if let Some(n) = &node {
            n.set_attr("dop", dop.to_string());
        }
        let nodes = worker_nodes(&node, dop);
        let caches =
            (0..dop).map(|_| Arc::new(Mutex::new(ProbeCache::new(PROBE_CACHE_ROWS)))).collect();
        let resident = ctx.resident("EXCHANGE");
        Ok(ParallelSemiJoinExec {
            db: ctx.db,
            sub,
            l_rel,
            r_rel,
            lt,
            rt,
            width,
            eval,
            filter_active,
            seen: std::collections::HashSet::new(),
            dop,
            node,
            nodes,
            caches,
            executed: vec![0; dop],
            stolen: vec![0; dop],
            out: VecDeque::new(),
            resident,
            held: 0,
            gauge: ctx.gauge.clone(),
            budget: ctx.max_resident_rows,
            snap: ctx.snap,
            sub_done: false,
            done: false,
            stamped: false,
        })
    }

    /// Pull one wave of pairs from the subquery, probe it in parallel,
    /// and append the reassembled rows to the output buffer. Workers
    /// are joined before this returns, so there is never an
    /// outstanding job between `next_batch` calls.
    fn run_wave(&mut self) -> Result<(), DbError> {
        let block = morsel_rows();
        let target = block * self.dop * 2;
        let mut pairs: Vec<(RowId, RowId)> = Vec::new();
        while pairs.len() < target && !self.sub_done {
            let rows = self.sub.next_rows()?;
            if rows.is_empty() {
                self.sub_done = true;
                break;
            }
            for row in &rows {
                let (Some(l), Some(r)) = (row[0].as_rowid(), row[1].as_rowid()) else {
                    return Err(DbError::Plan(
                        "rowid-pair subquery produced non-rowid values".into(),
                    ));
                };
                if self.seen.insert((l, r)) {
                    pairs.push((l, r));
                }
            }
        }
        if pairs.is_empty() {
            return Ok(());
        }
        let blocks: Vec<Block> = pairs
            .chunks(block)
            .enumerate()
            .map(|(idx, c)| Block { idx, pairs: c.to_vec() })
            .collect();
        let total = blocks.len();
        let eff = self.dop.min(total);
        let queue = TaskQueue::seed_round_robin(blocks, eff);
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<WorkerMsg>(eff * 2);
        let mut handles = Vec::with_capacity(eff);
        for w in 0..eff {
            let queue = Arc::clone(&queue);
            let cancel = Arc::clone(&cancel);
            let tx = tx.clone();
            let (lt, rt) = (Arc::clone(&self.lt), Arc::clone(&self.rt));
            let eval = Arc::clone(&self.eval);
            let cache = Arc::clone(&self.caches[w]);
            let gauge = self.gauge.clone();
            let wnode = self.nodes[w].clone();
            let (snap, width, budget) = (self.snap, self.width, self.budget);
            let (l_rel, r_rel, filter) = (self.l_rel, self.r_rel, self.filter_active);
            handles.push(pool::global().submit(move || {
                probe_worker(
                    w, queue, cancel, tx, lt, rt, snap, width, l_rel, r_rel, eval, filter, cache,
                    gauge, budget, wnode,
                )
            }));
        }
        drop(tx);
        let mut pending: BTreeMap<usize, JoinedBatch> = BTreeMap::new();
        let mut failure: Option<DbError> = None;
        let mut received = 0usize;
        while received < total {
            match rx.recv() {
                Ok(Ok(bo)) => {
                    received += 1;
                    if failure.is_none() {
                        let n = bo.rows.len() as u64;
                        drop(bo.charge);
                        match self.resident.add(n) {
                            Ok(()) => {
                                self.held += n;
                                pending.insert(bo.idx, bo.rows);
                            }
                            Err(e) => {
                                cancel.store(true, Ordering::Relaxed);
                                failure = Some(e);
                            }
                        }
                    }
                }
                Ok(Err(e)) => {
                    received += 1;
                    cancel.store(true, Ordering::Relaxed);
                    if failure.is_none() {
                        failure = Some(e);
                    }
                }
                Err(_) => {
                    if failure.is_none() {
                        failure = Some(DbError::Plan(
                            "parallel probe worker terminated unexpectedly".into(),
                        ));
                    }
                    break;
                }
            }
        }
        drop(rx);
        for h in handles {
            h.join();
        }
        for w in 0..eff {
            self.executed[w] += queue.executed(w);
            self.stolen[w] += queue.stolen(w);
        }
        if let Some(e) = failure {
            return Err(e);
        }
        for (_, rows) in pending {
            self.out.extend(rows);
        }
        Ok(())
    }

    fn stamp(&mut self) {
        if self.stamped {
            return;
        }
        self.stamped = true;
        for (i, wn) in self.nodes.iter().enumerate() {
            if let Some(n) = wn {
                n.set_metric("morsels_executed", self.executed[i]);
                n.set_metric("morsels_stolen", self.stolen[i]);
                let c = self.caches[i].lock();
                n.set_metric("pairs_probed", c.probed);
                n.set_metric("geom_cache_hits", c.hits);
                n.set_metric("geom_cache_misses", c.misses);
            }
        }
    }

    fn finish(&mut self) {
        self.done = true;
        self.stamp();
        self.sub.close();
        self.out.clear();
        self.held = 0;
        let _ = self.resident.set(0);
    }
}

#[allow(clippy::too_many_arguments)]
fn probe_worker(
    w: usize,
    queue: Arc<TaskQueue<Block>>,
    cancel: Arc<AtomicBool>,
    tx: SyncSender<WorkerMsg>,
    lt: Arc<RwLock<Table>>,
    rt: Arc<RwLock<Table>>,
    snap: Snapshot,
    width: usize,
    l_rel: usize,
    r_rel: usize,
    eval: Arc<FilterEval>,
    filter: bool,
    cache: Arc<Mutex<ProbeCache>>,
    gauge: MemoryGauge,
    budget: u64,
    node: Option<ProfileNode>,
) {
    while !cancel.load(Ordering::Relaxed) {
        let Some(pulled) = queue.pop(w) else { break };
        let b = pulled.task;
        let t0 = node.as_ref().map(|_| Instant::now());
        let mut charge = gauge.charge();
        let mut cache = cache.lock();
        let run = (|| -> Result<JoinedBatch, DbError> {
            let mut out = Vec::with_capacity(b.pairs.len());
            for &(lrid, rrid) in &b.pairs {
                // Probe both sides unconditionally so the cache
                // accounting identity (hits + misses == 2 × pairs)
                // holds exactly; pairs with a row invisible under the
                // snapshot are skipped, matching the serial join.
                let lv = cache.fetch(true, lrid, &lt, &snap);
                let rv = cache.fetch(false, rrid, &rt, &snap);
                cache.probed += 1;
                let (Some(lv), Some(rv)) = (lv, rv) else { continue };
                let mut jr = empty_joined(width);
                jr[l_rel] = RelRow { rid: Some(lrid), values: lv.to_vec() };
                jr[r_rel] = RelRow { rid: Some(rrid), values: rv.to_vec() };
                if filter && !eval.row_passes(&jr)? {
                    continue;
                }
                out.push(jr);
            }
            charge_rows(&mut charge, budget, out.len() as u64, "EXCHANGE")?;
            Ok(out)
        })();
        drop(cache);
        match run {
            Ok(rows) => {
                note_batch(&node, rows.len(), t0);
                if tx.send(Ok(MorselOut { idx: b.idx, rows, charge })).is_err() {
                    break;
                }
            }
            Err(e) => {
                drop(charge);
                let _ = tx.send(Err(e));
                break;
            }
        }
    }
}

impl BatchOp for ParallelSemiJoinExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.done {
            return Ok(Vec::new());
        }
        let t0 = self.node.as_ref().map(|_| Instant::now());
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        while self.out.len() < BATCH_ROWS && !self.sub_done {
            if let Err(e) = self.run_wave() {
                if let (Some(n), Some(b)) = (&self.node, &before) {
                    n.add_metric_deltas(&self.db.counters().diff(b).pairs());
                }
                self.finish();
                return Err(e);
            }
        }
        if let (Some(n), Some(b)) = (&self.node, &before) {
            n.add_metric_deltas(&self.db.counters().diff(b).pairs());
        }
        let n = self.out.len().min(BATCH_ROWS);
        let batch: JoinedBatch = self.out.drain(..n).collect();
        self.held -= n as u64;
        self.resident.set(self.held)?;
        if batch.is_empty() {
            self.finish();
        } else {
            note_batch(&self.node, batch.len(), t0);
        }
        Ok(batch)
    }

    fn close(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::sql::ast::{CmpOp, ColumnRef, Expr};
    use sdo_storage::{DataType, Schema};

    fn test_db(rows: i64) -> Database {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("ID", DataType::Integer), ("X", DataType::Integer)]))
            .unwrap();
        for i in 0..rows {
            db.insert_row("t", vec![Value::Integer(i), Value::Integer(i % 7)]).unwrap();
        }
        db
    }

    fn test_ctx(db: &Database, budget: u64, dop: usize) -> ExecCtx<'_> {
        ExecCtx {
            db,
            gauge: MemoryGauge::new(),
            max_resident_rows: budget,
            parallel_dop: dop,
            snap: db.read_snapshot(),
        }
    }

    fn test_metas(db: &Database) -> Arc<Vec<RelMeta>> {
        let table = db.table("t").unwrap();
        let columns = table.read().schema().columns().iter().map(|c| c.name.clone()).collect();
        Arc::new(vec![RelMeta {
            binding: "T".into(),
            columns,
            table: Some(table),
            table_name: Some("T".into()),
        }])
    }

    /// A residual predicate that errors on every row (unknown column).
    fn failing_predicate() -> Predicate {
        Predicate::Compare {
            left: Expr::Column(ColumnRef { qualifier: None, column: "NO_SUCH_COLUMN".into() }),
            op: CmpOp::Eq,
            right: Expr::Literal(Value::Integer(1)),
        }
    }

    fn drain(exec: &mut dyn BatchOp) -> Result<usize, DbError> {
        let mut total = 0;
        loop {
            let b = exec.next_batch()?;
            if b.is_empty() {
                return Ok(total);
            }
            total += b.len();
        }
    }

    #[test]
    fn failing_filter_at_dop_4_releases_every_charge() {
        set_morsel_rows(64);
        let db = test_db(1000);
        let ctx = test_ctx(&db, u64::MAX, 4);
        let gauge = ctx.gauge.clone();
        let mut exec = ParallelScanFilterExec::new(
            &ctx,
            db.table("t").unwrap(),
            test_metas(&db),
            Vec::new(),
            vec![failing_predicate()],
            None,
            4,
            None,
        );
        let err = drain(&mut exec).expect_err("failing filter must fail the query");
        assert!(format!("{err:?}").contains("NO_SUCH_COLUMN"), "unexpected error: {err:?}");
        drop(exec);
        assert_eq!(gauge.current(), 0, "worker charges must be released after a failure");
    }

    #[test]
    fn budget_breach_mid_morsel_releases_every_charge() {
        set_morsel_rows(64);
        let db = test_db(1000);
        // Budget below one morsel: some worker errors mid-morsel on
        // its own charge account.
        let ctx = test_ctx(&db, 40, 4);
        let gauge = ctx.gauge.clone();
        let mut exec = ParallelScanFilterExec::new(
            &ctx,
            db.table("t").unwrap(),
            test_metas(&db),
            Vec::new(),
            Vec::new(),
            None,
            4,
            None,
        );
        let err = drain(&mut exec).expect_err("budget breach must fail the query");
        assert!(
            format!("{err:?}").contains("MAX_RESIDENT_ROWS"),
            "breach must name the budget: {err:?}"
        );
        drop(exec);
        assert_eq!(gauge.current(), 0, "charges must return to zero after a breach");
    }

    #[test]
    fn parallel_scan_preserves_order_and_balances_gauge() {
        set_morsel_rows(64);
        let db = test_db(1000);
        let ctx = test_ctx(&db, u64::MAX, 4);
        let gauge = ctx.gauge.clone();
        let mut exec = ParallelScanFilterExec::new(
            &ctx,
            db.table("t").unwrap(),
            test_metas(&db),
            Vec::new(),
            Vec::new(),
            None,
            4,
            None,
        );
        let mut ids = Vec::new();
        loop {
            let b = exec.next_batch().unwrap();
            if b.is_empty() {
                break;
            }
            for jr in b {
                ids.push(jr[0].values[0].as_integer().unwrap());
            }
        }
        assert_eq!(ids, (0..1000).collect::<Vec<_>>(), "morsel merge must preserve scan order");
        drop(exec);
        assert_eq!(gauge.current(), 0, "gauge must balance after a clean drain");
    }
}
