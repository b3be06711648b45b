//! Morsel-driven intra-query parallelism: exchange operators over the
//! engine's one fan-out runtime.
//!
//! The serial executor in [`crate::operators`] pulls one batch at a
//! time through a single thread. This module adds the classic
//! morsel-driven design on top of it: an exchange cuts its input into
//! *morsels* (slot ranges of a heap table, chunks of an index scan's
//! rowids, or probe blocks of a rowid pair stream), seeds them into the work-stealing [`TaskQueue`] from
//! `sdo-tablefunc`, and runs one worker body per degree of parallelism
//! on [`Fanout`] — the same core (and slave pool) the paper's parallel
//! table functions use, so one runtime spawns, streams, cancels and
//! joins every slave thread. Each worker filters (and for ORDER BY,
//! partially sorts) its morsels against a shared database-free
//! [`FilterEval`] and sends its results over the fan-out's bounded
//! channel; a panicking worker arrives as an error naming it.
//!
//! Determinism: every emitted row is tagged by its morsel index (and,
//! for sorts, its position within the morsel), and the coordinator
//! merges worker output through a reorder buffer in morsel order — so
//! the row stream is **bit-identical to the serial plan at any degree
//! of parallelism**, tie-breaks included. The plan-space test pins
//! this at dop 2 and 4 against dop 1.
//!
//! Memory accounting: workers charge the statement's shared
//! [`MemoryGauge`] through RAII [`GaugeCharge`] accounts, enforcing
//! the same `max_resident_rows` budget (with the same error text) as
//! the serial operators. A charge travels *with* the rows — worker →
//! channel → coordinator — so a worker erroring mid-morsel, a dropped
//! channel, or an early `close()` all release exactly what they hold.

use crate::db::Database;
use crate::error::DbError;
use crate::exec::{cmp_sort_values, sort_values, RelRow, SortKey};
use crate::operators::{
    empty_joined, note_batch, probe_pairs, read_span, rowid_pair, BatchOp, ExecCtx, FilterEval,
    FilterInputs, HeapSpan, IndexAccess, JoinedBatch, Resident, SelectStream, BATCH_ROWS,
};
use parking_lot::{Mutex, RwLock};
use sdo_obs::{GaugeCharge, MemoryGauge, ProfileNode};
use sdo_storage::{RowId, Snapshot, Table, Value};
use sdo_tablefunc::scheduler::TaskQueue;
use sdo_tablefunc::{Fanout, Outbox};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// One morsel of a table: its place in scan order and what it reads.
#[derive(Debug, Clone)]
struct Morsel {
    idx: usize,
    span: Span,
}

/// The rows one morsel reads.
#[derive(Debug, Clone)]
enum Span {
    /// Heap slots `[from, to)`.
    Slots(usize, usize),
    /// A chunk of an index scan's rowids, in emission order.
    Rowids(Vec<RowId>),
}

/// Cut `[0, hwm)` into morsels of the current size, in slot order.
fn make_morsels(hwm: usize) -> Vec<Morsel> {
    let step = morsel_rows();
    (0..hwm)
        .step_by(step)
        .enumerate()
        .map(|(idx, from)| Morsel { idx, span: Span::Slots(from, (from + step).min(hwm)) })
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

/// One worker result travelling worker → coordinator: its place in
/// stream order (morsel or block index; a sorted run's is unused), its
/// rows, and the [`GaugeCharge`] carrying the gauge liability for them,
/// so dropping the message anywhere (channel teardown, error path)
/// releases the charge.
struct Charged<T> {
    idx: usize,
    rows: Vec<T>,
    charge: GaugeCharge,
}

impl<T> Charged<T> {
    /// Transfer the liability: release the worker's charge and
    /// re-charge the coordinator's account, which re-checks the budget
    /// including everything already buffered.
    fn transfer(self, resident: &mut Resident, held: &mut u64) -> Result<(usize, Vec<T>), DbError> {
        let Charged { idx, rows, charge } = self;
        drop(charge);
        resident.add(rows.len() as u64)?;
        *held += rows.len() as u64;
        Ok((idx, rows))
    }
}

type Msg<T> = Result<Charged<T>, DbError>;

/// Per-worker profile nodes (`worker 0` … `worker N-1`) under the
/// EXCHANGE node, present only when profiling.
fn worker_nodes(node: &Option<ProfileNode>, dop: usize) -> Vec<Option<ProfileNode>> {
    (0..dop).map(|i| node.as_ref().map(|n| n.child(format!("worker {i}")))).collect()
}

/// Stamp the scheduler's per-worker tallies onto the profile tree.
/// `set_metric` (not `add`) so a zero — no steals — still renders.
fn stamp_worker_metrics<T>(nodes: &[Option<ProfileNode>], queue: &TaskQueue<T>) {
    for (i, wn) in nodes.iter().enumerate() {
        if let Some(n) = wn {
            n.set_metric("morsels_executed", queue.executed(i));
            n.set_metric("morsels_stolen", queue.stolen(i));
        }
    }
}

/// Run `body(worker, queue, outbox)` for `eff` workers sharing
/// `queue`, on the fan-out core.
fn fan_out<T, R>(
    queue: &Arc<TaskQueue<T>>,
    eff: usize,
    depth: usize,
    body: impl Fn(usize, &TaskQueue<T>, &Outbox<Msg<R>>) + Send + Sync + 'static,
) -> Fanout<Msg<R>>
where
    T: Send + 'static,
    R: Send + 'static,
{
    let body = Arc::new(body);
    let bodies = (0..eff).map(|w| {
        let (queue, body) = (Arc::clone(queue), Arc::clone(&body));
        move |out: &Outbox<Msg<R>>| body(w, &queue, out)
    });
    Fanout::spawn(depth, bodies, |w| Err(DbError::Plan(format!("exchange worker {w} panicked"))))
}

/// The scan and probe worker loop: pop tasks until the queue runs dry
/// or the exchange cancels, run each under a fresh charge, and send its
/// rows as one message tagged with the index `run` returns. Stops after
/// the first error.
fn run_tasks<T>(
    w: usize,
    queue: &TaskQueue<T>,
    out: &Outbox<Msg<Vec<RelRow>>>,
    gauge: &MemoryGauge,
    node: &Option<ProfileNode>,
    mut run: impl FnMut(T, &mut GaugeCharge) -> (usize, Result<JoinedBatch, DbError>),
) {
    while !out.cancelled() {
        let Some(task) = queue.next(w, |_| None) else { break };
        let t0 = node.as_ref().map(|_| Instant::now());
        let mut charge = gauge.charge();
        let (idx, rows) = run(task, &mut charge);
        // On error the charge drops here, releasing mid-task work
        // before the error is reported.
        let msg = rows.map(|rows| {
            note_batch(node, rows.len(), t0);
            Charged { idx, rows, charge }
        });
        let failed = msg.is_err();
        if !out.send(msg) || failed {
            break; // coordinator closed early (e.g. LIMIT), or done
        }
    }
}

/// Receive every message of a fan-out that runs to completion, moving
/// each result's charge into the coordinator's account. The first
/// failure wins: it cancels the remaining workers, and whatever they
/// still send is dropped, releasing its charge.
fn gather<T>(
    fanout: Fanout<Msg<T>>,
    resident: &mut Resident,
    held: &mut u64,
) -> Result<Vec<(usize, Vec<T>)>, DbError> {
    let mut parts = Vec::new();
    let mut failure = None;
    while let Some(msg) = fanout.recv() {
        if failure.is_some() {
            continue;
        }
        match msg.and_then(|c| c.transfer(resident, held)) {
            Ok(part) => parts.push(part),
            Err(e) => {
                fanout.cancel();
                failure = Some(e);
            }
        }
    }
    failure.map_or(Ok(parts), Err)
}

/// What a worker needs to scan and filter morsels of one table, each
/// worker's profile node, and the scan leaf's, which every worker's
/// surviving rows are noted on.
struct MorselScan {
    table: Arc<RwLock<Table>>,
    snap: Snapshot,
    width: usize,
    eval: FilterEval,
    gauge: MemoryGauge,
    budget: u64,
    nodes: Vec<Option<ProfileNode>>,
    leaf: Option<ProfileNode>,
}

impl MorselScan {
    /// Read one morsel through the scan leaf's [`read_span`] — the
    /// shared filter evaluated in place, [`BATCH_ROWS`] rows per table
    /// lock — returning surviving rows charged against `charge`.
    fn scan(&self, m: Morsel, charge: &mut GaugeCharge) -> Result<JoinedBatch, DbError> {
        let mut out = Vec::new();
        let mut read = |span, out: &mut JoinedBatch| {
            let before = out.len();
            read_span(&self.table, span, &self.snap, &self.eval, 0, self.width, out)?;
            charge_rows(charge, self.budget, (out.len() - before) as u64, "EXCHANGE")
        };
        match &m.span {
            Span::Slots(from, to) => {
                for lo in (*from..*to).step_by(BATCH_ROWS) {
                    read(HeapSpan::Slots(lo, (lo + BATCH_ROWS).min(*to)), &mut out)?;
                }
            }
            Span::Rowids(rids) => {
                for chunk in rids.chunks(BATCH_ROWS) {
                    read(HeapSpan::Rowids(chunk), &mut out)?;
                }
            }
        }
        note_batch(&self.leaf, out.len(), None);
        Ok(out)
    }
}

/// The coordinator state the scan and sort exchanges share: the table,
/// index access and filter inputs their fan-out starts from, and the
/// resident account for rows the coordinator holds.
struct TableSite<'a> {
    db: &'a Database,
    table: Arc<RwLock<Table>>,
    /// When set, morsels are chunks of this index scan's rowids
    /// instead of heap slot ranges.
    access: Option<IndexAccess>,
    inputs: Option<FilterInputs>,
    dop: usize,
    node: Option<ProfileNode>,
    /// The fused scan leaf's node.
    leaf: Option<ProfileNode>,
    resident: Resident,
    held: u64,
    gauge: MemoryGauge,
    budget: u64,
    snap: Snapshot,
}

impl<'a> TableSite<'a> {
    fn new(
        ctx: &ExecCtx<'a>,
        table: Arc<RwLock<Table>>,
        access: Option<IndexAccess>,
        inputs: FilterInputs,
        dop: usize,
        [node, leaf]: [Option<ProfileNode>; 2],
    ) -> Self {
        TableSite {
            db: ctx.db,
            table,
            access,
            inputs: Some(inputs),
            dop: dop.max(1),
            node,
            leaf,
            resident: ctx.resident("EXCHANGE"),
            held: 0,
            gauge: ctx.gauge.clone(),
            budget: ctx.max_resident_rows,
            snap: ctx.snap,
        }
    }

    /// Build the filter and cut the table (or the index scan's rowids)
    /// into morsels for `min(dop, morsels)` workers — one profile node
    /// each, and that count stamped as the exchange's `dop`. `None`
    /// when there is nothing to read.
    fn prepare(&mut self) -> Result<Option<(MorselScan, Vec<Morsel>)>, DbError> {
        let inputs = self.inputs.take().expect("exchange inputs");
        let width = inputs.0.len();
        let eval = FilterEval::build(self.db, inputs, self.snap)?;
        let morsels = match self.access.take() {
            Some(access) => {
                let (rids, _) = access.rowids(&self.table, self.snap)?;
                let chunks = rids.chunks(morsel_rows()).map(|c| Span::Rowids(c.to_vec()));
                chunks.enumerate().map(|(idx, span)| Morsel { idx, span }).collect()
            }
            None => make_morsels(self.table.read().high_water_mark()),
        };
        if morsels.is_empty() {
            return Ok(None);
        }
        let eff = self.dop.min(morsels.len());
        if let Some(n) = &self.node {
            n.set_attr("dop", eff.to_string());
        }
        let scan = MorselScan {
            table: Arc::clone(&self.table),
            snap: self.snap,
            width,
            eval,
            gauge: self.gauge.clone(),
            budget: self.budget,
            nodes: worker_nodes(&self.node, eff),
            leaf: self.leaf.clone(),
        };
        Ok(Some((scan, morsels)))
    }

    /// Hand `n` held rows downstream.
    fn emit(&mut self, n: usize) -> Result<(), DbError> {
        self.held -= n as u64;
        self.resident.set(self.held)
    }

    /// Zero the coordinator's resident account.
    fn release(&mut self) {
        self.held = 0;
        let _ = self.resident.set(0);
    }
}

// ---------------------------------------------------------------------------
// Parallel scan + filter
// ---------------------------------------------------------------------------

/// Running exchange state: the fan-out, scheduler, and the
/// morsel-ordered reorder buffer.
struct ScanState {
    fanout: Fanout<Msg<Vec<RelRow>>>,
    queue: Arc<TaskQueue<Morsel>>,
    nodes: Vec<Option<ProfileNode>>,
    /// Morsels received out of order, keyed by morsel index.
    pending: BTreeMap<usize, JoinedBatch>,
    /// In-order rows awaiting batch emission.
    out: VecDeque<Vec<RelRow>>,
    next_idx: usize,
}

/// Morsel-parallel scan leaf (table or index scan, its conjuncts pushed
/// in): the planner's Scan-site exchange. Workers scan disjoint slot
/// ranges (or rowid chunks) under the statement snapshot, filter with
/// per-worker state, and the coordinator merges morsels back in slot
/// order — emitting the exact row stream the serial scan would.
pub(crate) struct ParallelScanFilterExec<'a> {
    site: TableSite<'a>,
    state: Option<ScanState>,
    done: bool,
}

impl<'a> ParallelScanFilterExec<'a> {
    /// `nodes`: the exchange's profile node and the scan leaf's.
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        table: Arc<RwLock<Table>>,
        access: Option<IndexAccess>,
        inputs: FilterInputs,
        dop: usize,
        nodes: [Option<ProfileNode>; 2],
    ) -> Self {
        let site = TableSite::new(ctx, table, access, inputs, dop, nodes);
        ParallelScanFilterExec { site, state: None, done: false }
    }

    fn start(&mut self) -> Result<(), DbError> {
        let Some((scan, morsels)) = self.site.prepare()? else { return Ok(()) };
        let (eff, nodes) = (scan.nodes.len(), scan.nodes.clone());
        let queue = TaskQueue::seed_round_robin(morsels, eff);
        let fanout = fan_out(&queue, eff, 2 * eff, move |w, queue, out| {
            run_tasks(w, queue, out, &scan.gauge, &scan.nodes[w], |m: Morsel, charge| {
                (m.idx, scan.scan(m, charge))
            })
        });
        self.state = Some(ScanState {
            fanout,
            queue,
            nodes,
            pending: BTreeMap::new(),
            out: VecDeque::new(),
            next_idx: 0,
        });
        Ok(())
    }

    /// Stop workers, collect their scheduler tallies into the profile
    /// tree, and zero the coordinator's resident account. Safe on
    /// every exit path: success, error, early `close()`.
    fn finish(&mut self) {
        self.done = true;
        if let Some(mut st) = self.state.take() {
            st.fanout.close();
            stamp_worker_metrics(&st.nodes, &st.queue);
        }
        self.site.release();
    }

    /// Start the fan-out on first use, then refill the reorder buffer
    /// until a full batch is in order or every worker has finished.
    fn fill_in_order(&mut self) -> Result<(), DbError> {
        if self.state.is_none() {
            self.start()?;
        }
        let Some(st) = &mut self.state else { return Ok(()) }; // no slots
        loop {
            while let Some(rows) = st.pending.remove(&st.next_idx) {
                st.next_idx += 1;
                st.out.extend(rows);
            }
            if st.out.len() >= BATCH_ROWS {
                return Ok(());
            }
            // A worker exits only after reporting every morsel it took
            // (as rows, an error or a panic), so once all have exited
            // every morsel has arrived.
            let Some(msg) = st.fanout.recv() else { return Ok(()) };
            let (idx, rows) = msg?.transfer(&mut self.site.resident, &mut self.site.held)?;
            st.pending.insert(idx, rows);
        }
    }
}

impl BatchOp for ParallelScanFilterExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.done {
            return Ok(Vec::new());
        }
        let before = self.site.node.as_ref().map(|_| self.site.db.counters().snapshot());
        let res = self.fill_in_order();
        if let (Some(n), Some(b)) = (&self.site.node, &before) {
            n.add_metric_deltas(&self.site.db.counters().diff(b).pairs());
        }
        if let Err(e) = res {
            self.finish();
            return Err(e);
        }
        let batch: JoinedBatch = match &mut self.state {
            Some(st) => st.out.drain(..st.out.len().min(BATCH_ROWS)).collect(),
            None => Vec::new(),
        };
        self.site.emit(batch.len())?;
        if batch.is_empty() {
            self.finish();
        } else {
            note_batch(&self.site.node, batch.len(), None);
        }
        Ok(batch)
    }

    fn close(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// Parallel sort / top-k
// ---------------------------------------------------------------------------

/// A row ready to merge: evaluated ORDER BY keys, the serial-order
/// sequence tag `(morsel_idx << 32) | pos_in_morsel`, and the row.
type SortedRow = (Vec<Value>, u64, Vec<RelRow>);

/// Total order on keyed rows: the ORDER BY keys (honoring per-key
/// direction), then the sequence tag. Because the tag is the row's
/// position in serial scan order, this total order coincides with the
/// serial executor's *stable* sort — bit-identical output, tie-breaks
/// included.
fn cmp_sorted(keys: &[SortKey], a: &SortedRow, b: &SortedRow) -> std::cmp::Ordering {
    cmp_sort_values(keys, &a.0, &b.0).then(a.1.cmp(&b.1))
}

/// Morsel-parallel ORDER BY (and top-k): the planner's Sort-site
/// exchange. Workers scan + filter their morsels, evaluate the sort
/// keys once per surviving row, keep a partial sort (truncated to k
/// under a LIMIT, amortized at 2k), and ship one sorted run each; the
/// coordinator merges the ≤ dop runs head-to-head.
pub(crate) struct ParallelSortExec<'a> {
    site: TableSite<'a>,
    keys: Arc<Vec<SortKey>>,
    limit: Option<usize>,
    runs: Option<Vec<VecDeque<SortedRow>>>,
    /// The fused SORT's node: the rows of every worker's sorted run.
    sort_node: Option<ProfileNode>,
    done: bool,
}

impl<'a> ParallelSortExec<'a> {
    /// `nodes`: the exchange's profile node, the SORT's and the scan
    /// leaf's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        table: Arc<RwLock<Table>>,
        access: Option<IndexAccess>,
        inputs: FilterInputs,
        keys: Vec<SortKey>,
        limit: Option<usize>,
        dop: usize,
        [node, sort_node, leaf]: [Option<ProfileNode>; 3],
    ) -> Self {
        let site = TableSite::new(ctx, table, access, inputs, dop, [node, leaf]);
        let keys = Arc::new(keys);
        ParallelSortExec { site, keys, limit, runs: None, sort_node, done: false }
    }

    /// Fan out, block until every worker delivers its sorted run, and
    /// account the runs to the coordinator. Blocking here mirrors the
    /// serial `SortExec`, which is equally a pipeline breaker.
    fn ensure_runs(&mut self) -> Result<(), DbError> {
        let Some((scan, morsels)) = self.site.prepare()? else {
            self.runs = Some(Vec::new());
            return Ok(());
        };
        let (eff, nodes) = (scan.nodes.len(), scan.nodes.clone());
        let (keys, limit, sort_node) = (Arc::clone(&self.keys), self.limit, self.sort_node.clone());
        let queue = TaskQueue::seed_round_robin(morsels, eff);
        let fanout = fan_out(&queue, eff, eff, move |w, queue, out| {
            let t0 = scan.nodes[w].as_ref().map(|_| Instant::now());
            let mut charge = scan.gauge.charge();
            let mut buf: Vec<SortedRow> = Vec::new();
            let mut run = || -> Result<(), DbError> {
                while !out.cancelled() {
                    let Some(m) = queue.next(w, |_| None) else { break };
                    let idx = m.idx;
                    for (pos, jr) in scan.scan(m, &mut charge)?.into_iter().enumerate() {
                        // Serial scan order: morsel index, then surviving
                        // row position within the morsel.
                        buf.push((sort_values(&keys, &jr)?, ((idx as u64) << 32) | pos as u64, jr));
                    }
                    // Top-k: never hold more than 2k rows per worker;
                    // sort and cut back to k, releasing the difference.
                    if let Some(k) = limit {
                        if buf.len() >= 2 * k.max(1) {
                            buf.sort_by(|a, b| cmp_sorted(&keys, a, b));
                            buf.truncate(k);
                            charge.set(buf.len() as u64);
                        }
                    }
                }
                Ok(())
            };
            let msg = run().map(|()| {
                buf.sort_by(|a, b| cmp_sorted(&keys, a, b));
                if let Some(k) = limit {
                    buf.truncate(k);
                    charge.set(buf.len() as u64);
                }
                note_batch(&scan.nodes[w], buf.len(), t0);
                note_batch(&sort_node, buf.len(), None);
                Charged { idx: w, rows: buf, charge }
            });
            out.send(msg);
        });
        let runs = gather(fanout, &mut self.site.resident, &mut self.site.held);
        stamp_worker_metrics(&nodes, &queue);
        self.runs = Some(runs?.into_iter().map(|(_, rows)| rows.into()).collect());
        Ok(())
    }
}

impl BatchOp for ParallelSortExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.done {
            return Ok(Vec::new());
        }
        if self.runs.is_none() {
            let before = self.site.node.as_ref().map(|_| self.site.db.counters().snapshot());
            let res = self.ensure_runs();
            if let (Some(n), Some(b)) = (&self.site.node, &before) {
                n.add_metric_deltas(&self.site.db.counters().diff(b).pairs());
            }
            if let Err(e) = res {
                self.close();
                return Err(e);
            }
        }
        let keys = &self.keys;
        let runs = self.runs.as_mut().expect("sorted runs");
        let mut out: JoinedBatch = Vec::with_capacity(BATCH_ROWS.min(self.site.held as usize));
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
        self.site.emit(out.len())?;
        if out.is_empty() {
            self.done = true;
            self.runs = None;
        } else {
            note_batch(&self.site.node, out.len(), None);
        }
        Ok(out)
    }

    fn close(&mut self) {
        self.done = true;
        self.runs = None;
        self.site.release();
    }
}

// ---------------------------------------------------------------------------
// Parallel rowid-pair semijoin probe
// ---------------------------------------------------------------------------

/// One probe block of deduplicated rowid pairs, in pair-stream order.
struct Block {
    idx: usize,
    pairs: Vec<(RowId, RowId)>,
}

/// What a worker needs to probe blocks of rowid pairs: both base tables
/// and the relation slots their rows fill, the secondary filter, and
/// the gauge and budget to charge.
struct PairProbe {
    lt: Arc<RwLock<Table>>,
    rt: Arc<RwLock<Table>>,
    l_rel: usize,
    r_rel: usize,
    width: usize,
    snap: Snapshot,
    eval: Option<FilterEval>,
    gauge: MemoryGauge,
    budget: u64,
    /// The fused semijoin's node (pairs with both rows visible) and its
    /// filter's (pairs that pass).
    semi: Option<ProfileNode>,
    filter: Option<ProfileNode>,
}

/// A probe worker's tallies, stamped on its profile node at finish.
#[derive(Default)]
struct ProbeTally {
    /// Pairs probed.
    probed: u64,
    /// Distinct rows fetched (both sides, summed over blocks).
    fetched: u64,
}

impl PairProbe {
    /// Fetch both rows of every pair in `b` (each block's distinct
    /// rowids once per side), keep the pairs that pass the filter, and
    /// charge them against `charge`. Pairs with a row invisible under
    /// the snapshot are skipped, matching the serial probe.
    fn probe(
        &self,
        b: &Block,
        tally: &mut ProbeTally,
        charge: &mut GaugeCharge,
    ) -> Result<JoinedBatch, DbError> {
        let mut rows = Vec::with_capacity(b.pairs.len());
        let mut visible = 0;
        tally.probed += b.pairs.len() as u64;
        tally.fetched += probe_pairs(&b.pairs, &self.lt, &self.rt, &self.snap, |l, lv, r, rv| {
            let mut jr = empty_joined(self.width);
            jr[self.l_rel] = RelRow { rid: Some(l), values: lv.to_vec() };
            jr[self.r_rel] = RelRow { rid: Some(r), values: rv.to_vec() };
            visible += 1;
            if self.eval.as_ref().map_or(Ok(true), |e| e.row_passes(&jr))? {
                rows.push(jr);
            }
            Ok(())
        })?;
        note_batch(&self.semi, visible, None);
        note_batch(&self.filter, rows.len(), None);
        charge_rows(charge, self.budget, rows.len() as u64, "EXCHANGE")?;
        Ok(rows)
    }
}

/// Morsel-parallel rowid-pair semijoin: the planner's Probe-site
/// exchange, replacing serial `RowidSemiJoinExec` + `FilterExec`.
/// The coordinator drains the table-function subquery and
/// deduplicates serially (IN semantics need a global seen-set), cuts
/// the surviving pairs into blocks, and fans each *wave* of blocks to
/// workers that fetch each block's distinct base rows once per side
/// and apply the secondary filters per worker. Blocks reassemble in
/// stream order, so output matches the serial plan row for row.
pub(crate) struct ParallelSemiJoinExec<'a> {
    db: &'a Database,
    sub: SelectStream<'a>,
    probe: Arc<PairProbe>,
    seen: std::collections::HashSet<(RowId, RowId)>,
    dop: usize,
    node: Option<ProfileNode>,
    nodes: Vec<Option<ProfileNode>>,
    tallies: Vec<Arc<Mutex<ProbeTally>>>,
    /// One queue across every wave, so its per-worker tallies are the
    /// exchange's.
    queue: Arc<TaskQueue<Block>>,
    out: VecDeque<Vec<RelRow>>,
    resident: Resident,
    held: u64,
    sub_done: bool,
    done: bool,
}

impl<'a> ParallelSemiJoinExec<'a> {
    /// `nodes`: the exchange's profile node, the semijoin's and the
    /// filter's (when `filter` is set).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &ExecCtx<'a>,
        sub: SelectStream<'a>,
        l_rel: usize,
        r_rel: usize,
        lt: Arc<RwLock<Table>>,
        rt: Arc<RwLock<Table>>,
        width: usize,
        filter: Option<FilterInputs>,
        dop: usize,
        [node, semi, filter_node]: [Option<ProfileNode>; 3],
    ) -> Result<Self, DbError> {
        if sub.columns.len() < 2 {
            return Err(DbError::Plan("rowid-pair subquery must project two rowid columns".into()));
        }
        let eval = filter.map(|f| FilterEval::build(ctx.db, f, ctx.snap)).transpose()?;
        let (snap, gauge, budget) = (ctx.snap, ctx.gauge.clone(), ctx.max_resident_rows);
        let probe = Arc::new(PairProbe {
            lt,
            rt,
            l_rel,
            r_rel,
            width,
            snap,
            eval,
            gauge,
            budget,
            semi,
            filter: filter_node,
        });
        let dop = dop.max(1);
        if let Some(n) = &node {
            n.set_attr("dop", dop.to_string());
        }
        Ok(ParallelSemiJoinExec {
            db: ctx.db,
            sub,
            probe,
            seen: std::collections::HashSet::new(),
            dop,
            nodes: worker_nodes(&node, dop),
            node,
            tallies: (0..dop).map(|_| Arc::default()).collect(),
            queue: Arc::new(TaskQueue::new(dop)),
            out: VecDeque::new(),
            resident: ctx.resident("EXCHANGE"),
            held: 0,
            sub_done: false,
            done: false,
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
                let pair = rowid_pair(row)?;
                if self.seen.insert(pair) {
                    pairs.push(pair);
                }
            }
        }
        if pairs.is_empty() {
            return Ok(());
        }
        let eff = self.dop.min(pairs.len().div_ceil(block));
        for (idx, c) in pairs.chunks(block).enumerate() {
            self.queue.push(idx % eff, Block { idx, pairs: c.to_vec() });
        }
        let (probe, tallies, nodes) =
            (Arc::clone(&self.probe), self.tallies.clone(), self.nodes.clone());
        let fanout = fan_out(&self.queue, eff, 2 * eff, move |w, queue, out| {
            run_tasks(w, queue, out, &probe.gauge, &nodes[w], |b: Block, charge| {
                (b.idx, probe.probe(&b, &mut tallies[w].lock(), charge))
            })
        });
        let parts = gather(fanout, &mut self.resident, &mut self.held);
        let mut parts = parts?;
        parts.sort_unstable_by_key(|&(idx, _)| idx);
        for (_, rows) in parts {
            self.out.extend(rows);
        }
        Ok(())
    }

    /// Stamp the per-worker tallies (set, so a repeat call is harmless),
    /// close the subquery, and zero the resident account.
    fn finish(&mut self) {
        self.done = true;
        stamp_worker_metrics(&self.nodes, &self.queue);
        for (wn, tally) in self.nodes.iter().zip(&self.tallies) {
            if let Some(n) = wn {
                let t = tally.lock();
                n.set_metric("pairs_probed", t.probed);
                n.set_metric("rows_fetched", t.fetched);
            }
        }
        self.sub.close();
        self.out.clear();
        self.held = 0;
        let _ = self.resident.set(0);
    }
}

impl BatchOp for ParallelSemiJoinExec<'_> {
    fn next_batch(&mut self) -> Result<JoinedBatch, DbError> {
        if self.done {
            return Ok(Vec::new());
        }
        let t0 = self.node.as_ref().map(|_| Instant::now());
        let before = self.node.as_ref().map(|_| self.db.counters().snapshot());
        let mut res = Ok(());
        while res.is_ok() && self.out.len() < BATCH_ROWS && !self.sub_done {
            res = self.run_wave();
        }
        if let (Some(n), Some(b)) = (&self.node, &before) {
            n.add_metric_deltas(&self.db.counters().diff(b).pairs());
        }
        if let Err(e) = res {
            self.finish();
            return Err(e);
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
    use crate::exec::RelMeta;
    use crate::planner::Filter;
    use crate::sql::ast::{CmpOp, ColumnRef, Expr, OrderKey, Predicate};
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
            snap: db.txn_manager().snapshot(),
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

    /// A residual predicate that errors on every row (unknown function;
    /// an unknown column fails when the filter compiles, before any
    /// worker runs).
    fn failing_predicate() -> Predicate {
        let x = Expr::Column(ColumnRef { qualifier: None, column: "X".into() });
        Predicate::Compare {
            left: Expr::FnCall { name: "NO_SUCH_FUNCTION".into(), args: vec![x] },
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

    /// The scan exchange and the sort exchange (ORDER BY X) over `t`
    /// at dop 4, both filtering with `residual`.
    fn exchanges<'a>(
        ctx: &ExecCtx<'a>,
        db: &Database,
        residual: Vec<Predicate>,
    ) -> Vec<(&'static str, Box<dyn BatchOp + 'a>)> {
        let table = db.table("t").unwrap();
        let by_x = OrderKey {
            expr: Expr::Column(ColumnRef { qualifier: None, column: "X".into() }),
            descending: false,
        };
        let filter = || Filter { residual: residual.clone(), ..Filter::default() };
        let inputs = || (test_metas(db), filter());
        let scan =
            ParallelScanFilterExec::new(ctx, Arc::clone(&table), None, inputs(), 4, [None, None]);
        let keys = SortKey::compile_all(&test_metas(db), &[by_x]).unwrap();
        let sort =
            ParallelSortExec::new(ctx, table, None, inputs(), keys, None, 4, [None, None, None]);
        vec![("scan", Box::new(scan)), ("sort", Box::new(sort))]
    }

    #[test]
    fn failing_filter_at_dop_4_releases_every_charge() {
        set_morsel_rows(64);
        let db = test_db(1000);
        let ctx = test_ctx(&db, u64::MAX, 4);
        for (site, mut exec) in exchanges(&ctx, &db, vec![failing_predicate()]) {
            let err = drain(exec.as_mut()).expect_err("failing filter must fail the query");
            assert!(format!("{err:?}").contains("NO_SUCH_FUNCTION"), "{site}: {err:?}");
            drop(exec);
            assert_eq!(ctx.gauge.current(), 0, "{site}: charges must be released after a failure");
        }
    }

    #[test]
    fn budget_breach_mid_morsel_releases_every_charge() {
        set_morsel_rows(64);
        let db = test_db(1000);
        // Budget below one morsel: some worker errors mid-morsel on
        // its own charge account.
        let ctx = test_ctx(&db, 40, 4);
        for (site, mut exec) in exchanges(&ctx, &db, Vec::new()) {
            let err = drain(exec.as_mut()).expect_err("budget breach must fail the query");
            assert!(format!("{err:?}").contains("MAX_RESIDENT_ROWS"), "{site}: {err:?}");
            drop(exec);
            assert_eq!(
                ctx.gauge.current(),
                0,
                "{site}: charges must return to zero after a breach"
            );
        }
    }

    #[test]
    fn parallel_scan_preserves_order_and_balances_gauge() {
        set_morsel_rows(64);
        let db = test_db(1000);
        let ctx = test_ctx(&db, u64::MAX, 4);
        let gauge = ctx.gauge.clone();
        let inputs = (test_metas(&db), Filter::default());
        let table = db.table("t").unwrap();
        let mut exec = ParallelScanFilterExec::new(&ctx, table, None, inputs, 4, [None, None]);
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
