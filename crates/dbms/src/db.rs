//! The database façade: catalog + registries + transactional DML with
//! index maintenance, WAL durability, and crash recovery.

use crate::error::DbError;
use crate::extensible::{DomainIndex, IndexType};
use crate::session::{Session, SessionState};
use parking_lot::{Mutex, RwLock};
use sdo_storage::snapshot::IndexDirective;
use sdo_storage::{
    Catalog, Counters, IndexMetadata, RowId, Schema, Snapshot, StorageError, Table, TableStats,
    Value, Wal, WalRecord, ANALYZE_SAMPLE,
};
use sdo_tablefunc::{Row, TableFunction};
use sdo_txn::recovery::RecoveryReport;
use sdo_txn::{Deferred, TxnManager, TxnToken};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Checkpoint base image file name inside a database directory.
pub const BASE_FILE: &str = "base.sdb";
/// Write-ahead log file name inside a database directory.
pub const WAL_FILE: &str = "wal.log";

/// A table-function argument at execution time.
pub enum TfArg {
    /// A scalar value argument.
    Scalar(Value),
    /// A materialized `CURSOR(SELECT ...)` argument.
    Cursor(Vec<Row>),
}

impl TfArg {
    /// The scalar value, or an error for cursor arguments.
    pub fn scalar(&self) -> Result<&Value, DbError> {
        match self {
            TfArg::Scalar(v) => Ok(v),
            TfArg::Cursor(_) => Err(DbError::Plan("expected scalar argument, got cursor".into())),
        }
    }

    /// The argument as a string.
    pub fn text(&self) -> Result<&str, DbError> {
        self.scalar()?.as_text().ok_or_else(|| DbError::Plan("expected string argument".into()))
    }

    /// The argument as an integer.
    pub fn integer(&self) -> Result<i64, DbError> {
        self.scalar()?.as_integer().ok_or_else(|| DbError::Plan("expected integer argument".into()))
    }

    /// The argument as a double (integers widen).
    pub fn double(&self) -> Result<f64, DbError> {
        self.scalar()?.as_double().ok_or_else(|| DbError::Plan("expected numeric argument".into()))
    }

    /// The materialized cursor rows, or an error for scalars.
    pub fn cursor(&self) -> Result<&[Row], DbError> {
        match self {
            TfArg::Cursor(rows) => Ok(rows),
            TfArg::Scalar(_) => Err(DbError::Plan("expected cursor argument, got scalar".into())),
        }
    }
}

/// A table function instance plus the column names of the rows it
/// produces (Oracle: the collection type's attributes).
pub struct TfInstance {
    /// The pipelined function, ready for `start`.
    pub func: Box<dyn TableFunction>,
    /// Output column names, in row order.
    pub columns: Vec<String>,
}

/// Factory signature for registered table functions. The snapshot is
/// the calling statement's read view: the function must read the heap
/// through it, so it sees what the statement sees (a transaction's own
/// writes included) under the statement's pin.
pub type TfFactory =
    dyn Fn(&Database, Snapshot, Vec<TfArg>) -> Result<TfInstance, DbError> + Send + Sync;

/// Result set of a query: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows (empty for DDL).
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// An empty (DDL-style) result.
    pub fn empty() -> Self {
        QueryResult { columns: Vec::new(), rows: Vec::new() }
    }

    /// Convenience: the single integer cell of a `COUNT(*)` result.
    pub fn count(&self) -> Option<i64> {
        self.rows.first().and_then(|r| r.first()).and_then(|v| v.as_integer())
    }
}

/// Shared handle to a live domain-index instance.
pub type IndexHandle = Arc<RwLock<Box<dyn DomainIndex>>>;

/// The top-level engine object: a catalog, the extensible-indexing
/// registries, the table-function registry, and the transaction
/// subsystem (MVCC manager + optional write-ahead log).
pub struct Database {
    catalog: Catalog,
    txn: TxnManager,
    /// Write-ahead log; `None` for purely in-memory databases.
    wal: RwLock<Option<Arc<Wal>>>,
    /// Directory backing [`Database::open`]; `None` when in-memory.
    data_dir: RwLock<Option<PathBuf>>,
    /// Domain indexes recovery says to rebuild (see
    /// [`Database::recover_indexes`]).
    pending_indexes: Mutex<Vec<IndexDirective>>,
    /// What the last [`Database::open`] replayed, for smoke tests.
    last_recovery: RwLock<Option<RecoveryReport>>,
    indextypes: RwLock<HashMap<String, Arc<dyn IndexType>>>,
    indexes: RwLock<HashMap<String, IndexHandle>>,
    table_functions: RwLock<HashMap<String, Arc<TfFactory>>>,
    /// Engine-level option defaults; new sessions start from a copy.
    default_options: RwLock<SessionOptions>,
    /// The built-in session behind the connectionless APIs
    /// ([`Database::execute`], [`Database::insert_row`], ...). Session
    /// id 0; behaves exactly like the pre-session single-connection
    /// engine.
    default_session: Arc<SessionState>,
    /// Live [`Session`] handles (the default session not included).
    session_count: AtomicU64,
    /// Next session id to hand out (0 is the default session).
    next_session_id: AtomicU64,
}

/// When a committed transaction's WAL records are forced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// `fsync` the log up to the commit record before acknowledging
    /// the commit (the default): a committed transaction survives a
    /// crash.
    Fsync,
    /// Append without syncing: group commit at OS-buffer speed; a
    /// crash may lose the most recent commits, but recovery still
    /// yields a clean serial prefix.
    Buffered,
}

/// Per-session executor options, set via `ALTER SESSION SET ...`.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Resident-row budget per statement, enforced by the executor's
    /// [`sdo_obs::MemoryGauge`]. Exceeding it fails the query, naming
    /// the operator that tipped it over.
    pub max_resident_rows: u64,
    /// Commit durability policy (`durability = fsync | buffered`).
    pub durability: Durability,
    /// Ceiling on intra-query degree of parallelism
    /// (`parallel_dop = 1..=64`). The planner may pick any dop up to
    /// this when it places an exchange; `1` forces fully serial
    /// execution. Defaults to the machine's available parallelism,
    /// clamped to `[1, 16]`.
    pub parallel_dop: usize,
}

/// Hard ceiling for every SQL degree of parallelism: `ALTER SESSION
/// SET parallel_dop`, `CREATE INDEX … PARALLEL n` and the `dop`
/// argument of `SPATIAL_JOIN`. More workers than this never helps, and
/// each one costs a pool thread plus per-slave state allocated up front.
pub const MAX_PARALLEL_DOP: usize = 64;

impl Default for SessionOptions {
    fn default() -> Self {
        let dop = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 16);
        SessionOptions {
            max_resident_rows: 5_000_000,
            durability: Durability::Fsync,
            parallel_dop: dop,
        }
    }
}

impl SessionOptions {
    /// Set an option by name. Recognised options: `max_resident_rows`
    /// (a positive row count, full `u64` range), `durability`
    /// (`fsync`/`buffered`), and `parallel_dop` (1..=64). Unknown
    /// options and unknown values both fail, naming the option.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), DbError> {
        match name.to_ascii_lowercase().as_str() {
            "max_resident_rows" => {
                // u64, not i64: the budget is a row *count*, and legal
                // values above i64::MAX must not be rejected.
                let n: u64 = value.parse().map_err(|_| {
                    DbError::Plan(format!("invalid value '{value}' for MAX_RESIDENT_ROWS"))
                })?;
                if n == 0 {
                    return Err(DbError::Plan(
                        "MAX_RESIDENT_ROWS must be a positive row count".into(),
                    ));
                }
                self.max_resident_rows = n;
            }
            "parallel_dop" => {
                let n: usize = value.parse().map_err(|_| {
                    DbError::Plan(format!("invalid value '{value}' for PARALLEL_DOP"))
                })?;
                if n == 0 || n > MAX_PARALLEL_DOP {
                    return Err(DbError::Plan(format!(
                        "PARALLEL_DOP must be between 1 and {MAX_PARALLEL_DOP}"
                    )));
                }
                self.parallel_dop = n;
            }
            "durability" => match value.to_ascii_lowercase().as_str() {
                "fsync" => self.durability = Durability::Fsync,
                "buffered" => self.durability = Durability::Buffered,
                other => {
                    return Err(DbError::Plan(format!(
                        "invalid value '{other}' for DURABILITY (expected fsync/buffered)"
                    )))
                }
            },
            other => return Err(DbError::Plan(format!("unknown session option '{other}'"))),
        }
        Ok(())
    }
}

/// Book-keeping for one open transaction: the MVCC token plus the
/// side effects that must be applied or undone at commit/abort.
///
/// Domain-index maintenance enlists here. `on_insert` runs eagerly at
/// DML time (index probes tolerate entries for uncommitted rows —
/// every candidate funnels through a snapshot-aware heap fetch that
/// skips invisible rows), recording an undo `on_delete` for abort.
/// `on_delete` is deferred until the horizon passes the commit (see
/// [`sdo_txn::TxnManager`]), so readers on older snapshots never miss
/// entries for rows they can still see; the dead heap versions of the
/// rows it updated or deleted are pruned at the same time.
pub(crate) struct TxnCtx {
    token: TxnToken,
    /// Commit durability, captured from the owning session's options
    /// when the transaction began — a concurrent `ALTER SESSION` in
    /// another session must not change this commit's policy.
    durability: Durability,
    /// Whether the WAL `Begin` record has been appended. Lazy: a
    /// read-only transaction logs nothing at all.
    began_logged: bool,
    /// `on_delete(rid, row)` undos to run if the transaction aborts.
    abort_index_ops: Vec<(IndexHandle, RowId, Vec<Value>)>,
    /// `on_delete(rid, row)` to run once the horizon passes the commit.
    commit_index_ops: Vec<(IndexHandle, RowId, Vec<Value>)>,
    /// What the transaction did to each (uppercased) table.
    writes: HashMap<String, TableWrites>,
}

/// One transaction's effects on one table.
#[derive(Default)]
struct TableWrites {
    /// Net live-row delta, applied at commit.
    live_delta: i64,
    /// Rows it updated or deleted: their chains hold a dead version
    /// once the commit is old enough.
    rewritten: Vec<RowId>,
    /// Lowest and highest slot it inserted into. Only an abort reads
    /// this (its inserts are then dead), and pruning the other slots
    /// in between is harmless, so a range is enough.
    inserted: Option<(u64, u64)>,
}

/// The cleanup a finished transaction hands to the transaction
/// manager: retire the index entries of versions it superseded, then
/// prune the dead versions from the listed slots. `None` when there is
/// nothing to do, as for a commit that only inserted.
fn cleanup(
    index_deletes: Vec<(IndexHandle, RowId, Vec<Value>)>,
    slots: Vec<(Arc<RwLock<Table>>, Vec<RowId>)>,
) -> Option<Deferred> {
    if index_deletes.is_empty() && slots.is_empty() {
        return None;
    }
    Some(Box::new(move |horizon| {
        for (idx, rid, row) in index_deletes {
            let _ = idx.write().on_delete(rid, &row);
        }
        for (table, rids) in slots {
            table.write().prune(rids, horizon);
        }
    }))
}

/// RAII handle for an explicit transaction opened with
/// [`Database::begin`]. Dropping the handle without calling
/// [`Txn::commit`] rolls the transaction back.
///
/// Unlike the SQL session transaction (`BEGIN`/`COMMIT` statements,
/// one per session), any number of `Txn` handles may run concurrently
/// on different threads; conflicts surface as
/// [`StorageError::WriteConflict`].
pub struct Txn<'a> {
    db: &'a Database,
    ctx: Option<TxnCtx>,
}

impl Txn<'_> {
    /// The read snapshot this transaction runs under.
    pub fn snapshot(&self) -> Snapshot {
        self.ctx.as_ref().expect("open transaction").token.snap
    }

    /// Insert a row within this transaction.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<RowId, DbError> {
        let ctx = self.ctx.as_mut().expect("open transaction");
        self.db.txn_insert(ctx, table, row)
    }

    /// Update a row within this transaction (first-updater-wins).
    pub fn update(&mut self, table: &str, rid: RowId, row: Vec<Value>) -> Result<(), DbError> {
        let ctx = self.ctx.as_mut().expect("open transaction");
        self.db.txn_update(ctx, table, rid, row)
    }

    /// Delete a row within this transaction (first-updater-wins).
    pub fn delete(&mut self, table: &str, rid: RowId) -> Result<(), DbError> {
        let ctx = self.ctx.as_mut().expect("open transaction");
        self.db.txn_delete(ctx, table, rid)
    }

    /// Durably commit: all of this transaction's writes become visible
    /// atomically.
    pub fn commit(mut self) -> Result<(), DbError> {
        self.db.commit_ctx(self.ctx.take().expect("open transaction"))
    }

    /// Roll the transaction back explicitly.
    pub fn rollback(mut self) {
        self.db.abort_ctx(self.ctx.take().expect("open transaction"));
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            self.db.abort_ctx(ctx);
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// A fresh in-memory session with empty catalog and registries
    /// (no WAL; use [`Database::open`] for a durable database).
    pub fn new() -> Self {
        let catalog = Catalog::new();
        let txn = TxnManager::new(Arc::clone(catalog.status()), Arc::clone(catalog.counters()));
        Database {
            catalog,
            txn,
            wal: RwLock::new(None),
            data_dir: RwLock::new(None),
            pending_indexes: Mutex::new(Vec::new()),
            last_recovery: RwLock::new(None),
            indextypes: RwLock::new(HashMap::new()),
            indexes: RwLock::new(HashMap::new()),
            table_functions: RwLock::new(HashMap::new()),
            default_options: RwLock::new(SessionOptions::default()),
            default_session: Arc::new(SessionState::new(0, SessionOptions::default())),
            session_count: AtomicU64::new(0),
            next_session_id: AtomicU64::new(1),
        }
    }

    // -- sessions -------------------------------------------------------------

    /// Open a new session: a connection-scoped view of this engine
    /// with its own options (copied from the engine defaults), its own
    /// explicit-transaction slot, profile slot, and prepared
    /// statements. Any number may run concurrently.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::attach(Arc::clone(self))
    }

    /// Number of live [`Session`] handles (the built-in default
    /// session is not counted).
    pub fn session_count(&self) -> u64 {
        self.session_count.load(Ordering::Relaxed)
    }

    /// Change an engine-level default. Affects sessions opened later;
    /// existing sessions (including the default session) keep their
    /// current options.
    pub fn set_default_option(&self, name: &str, value: &str) -> Result<(), DbError> {
        self.default_options.write().set(name, value)
    }

    pub(crate) fn default_session_state(&self) -> &Arc<SessionState> {
        &self.default_session
    }

    pub(crate) fn new_session_state(&self) -> Arc<SessionState> {
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        let options = self.default_options.read().clone();
        self.session_count.fetch_add(1, Ordering::Relaxed);
        Arc::new(SessionState::new(id, options))
    }

    pub(crate) fn release_session(&self) {
        self.session_count.fetch_sub(1, Ordering::Relaxed);
    }

    /// Open (or create) a durable database in `dir`.
    ///
    /// Reads the checkpoint base image (if any), replays the WAL's
    /// durable record prefix over it — committed transactions redo in
    /// full, uncommitted ones are discarded — and attaches the log for
    /// subsequent writes. Domain indexes are *not* live yet: register
    /// the indextypes the database was created with, then call
    /// [`Database::recover_indexes`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Database, DbError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::Io(format!("create {}: {e}", dir.display())))?;
        let db = Database::new();

        let base_path = dir.join(BASE_FILE);
        let mut directives: Vec<IndexDirective> = Vec::new();
        if base_path.exists() {
            let payload = sdo_storage::pager::read_base(&base_path)?;
            directives = sdo_storage::snapshot::load_catalog(&db.catalog, &payload[..])?;
        }

        let wal_path = dir.join(WAL_FILE);
        let records =
            if wal_path.exists() { sdo_storage::wal::read_wal(&wal_path)? } else { Vec::new() };
        let report = sdo_txn::recovery::replay(&records, &db.catalog)?;
        // Base-image indexes dropped later in the log must not be
        // rebuilt; WAL-created ones append after the survivors.
        for rec in &records {
            match rec {
                WalRecord::DropIndex { name } => {
                    directives.retain(|d| !d.index_name.eq_ignore_ascii_case(name));
                }
                WalRecord::DropTable { name } => {
                    directives.retain(|d| !d.table_name.eq_ignore_ascii_case(name));
                }
                _ => {}
            }
        }
        directives.extend(report.directives.iter().cloned());

        // New transaction ids must not collide with ids still in the
        // log: a second recovery would otherwise mix the DML of an old
        // committed transaction into a new one with the same id.
        let max_txid = records.iter().filter_map(|r| r.txid()).max().unwrap_or(0);
        let status = db.catalog.status();
        while (status.allocated() as u64) < max_txid {
            let t = status.begin();
            status.abort(t);
        }

        let wal = Wal::open(&wal_path, Arc::clone(db.catalog.counters()))?;
        *db.wal.write() = Some(Arc::new(wal));
        *db.data_dir.write() = Some(dir.to_path_buf());
        *db.pending_indexes.lock() = directives;
        *db.last_recovery.write() = Some(report);
        Ok(db)
    }

    /// Rebuild the domain indexes recorded by recovery, through the
    /// (now registered) indextypes. Returns how many were rebuilt.
    ///
    /// Each index rebuilds from the recovered table, which by
    /// construction equals a fresh build over the committed state.
    pub fn recover_indexes(&self) -> Result<usize, DbError> {
        let directives: Vec<IndexDirective> = std::mem::take(&mut *self.pending_indexes.lock());
        let n = directives.len();
        for d in directives {
            self.create_domain_index_unlogged(
                &d.index_name,
                &d.table_name,
                &d.column_name,
                "SPATIAL_INDEX",
                &d.parameters,
                d.create_dop,
            )?;
        }
        Ok(n)
    }

    /// What the last [`Database::open`] replayed, if this database was
    /// opened from a directory.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.last_recovery.read().clone()
    }

    /// Flush a checkpoint: write the full catalog (tables + index
    /// metadata) as the new base image, then truncate the WAL.
    ///
    /// The caller must quiesce writers first — checkpointing refuses
    /// to run while any transaction is in flight, because the base
    /// image is a `LATEST`-snapshot serialization.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        // Open session transactions hold a begun MVCC token, so
        // `active_count` covers explicit SQL transactions on every
        // session as well as Rust `Txn` handles.
        if self.txn.active_count() > 0 {
            return Err(DbError::Txn("checkpoint requires no in-flight transactions".into()));
        }
        let dir = self.data_dir.read().clone().ok_or_else(|| {
            DbError::Txn("checkpoint requires a directory-backed database (Database::open)".into())
        })?;
        let payload = self.save_snapshot();
        sdo_storage::pager::write_base(dir.join(BASE_FILE), &payload)?;
        if let Some(w) = self.wal_handle() {
            w.truncate()?;
        }
        Ok(())
    }

    /// Current options of the default session (copy). Connection
    /// sessions carry their own options; see [`Session::options`].
    pub fn options(&self) -> SessionOptions {
        self.default_session.options.read().clone()
    }

    /// Set an option on the default session (see
    /// [`SessionOptions::set`] for the recognised names). Connection
    /// sessions are unaffected; use [`Session::set_option`] or
    /// [`Database::set_default_option`] for those.
    pub fn set_option(&self, name: &str, value: &str) -> Result<(), DbError> {
        self.default_session.options.write().set(name, value)
    }

    /// The operator profile of the most recent statement executed via
    /// [`Database::execute`], if any. Every statement records one; use
    /// `EXPLAIN ANALYZE` to render it as result rows instead.
    /// Per-connection profiles live on [`Session::last_profile`].
    pub fn last_profile(&self) -> Option<sdo_obs::QueryProfile> {
        self.default_session.last_profile.read().clone()
    }

    /// The underlying storage catalog.
    #[inline]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session-wide work counters.
    #[inline]
    pub fn counters(&self) -> &Arc<Counters> {
        self.catalog.counters()
    }

    // -- registries -----------------------------------------------------------

    /// Register an indextype under a name (e.g. `SPATIAL_INDEX`).
    pub fn register_indextype(&self, name: &str, it: Arc<dyn IndexType>) {
        self.indextypes.write().insert(name.to_ascii_uppercase(), it);
    }

    /// Register a table function callable from `FROM TABLE(name(...))`.
    pub fn register_table_function(
        &self,
        name: &str,
        factory: impl Fn(&Database, Snapshot, Vec<TfArg>) -> Result<TfInstance, DbError>
            + Send
            + Sync
            + 'static,
    ) {
        self.table_functions.write().insert(name.to_ascii_uppercase(), Arc::new(factory));
    }

    /// Instantiate a registered table function for a statement reading
    /// at `snap`.
    pub fn make_table_function(
        &self,
        name: &str,
        snap: Snapshot,
        args: Vec<TfArg>,
    ) -> Result<TfInstance, DbError> {
        let factory = self
            .table_functions
            .read()
            .get(&name.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| DbError::Plan(format!("unknown table function {name}")))?;
        factory(self, snap, args)
    }

    /// The operator names every registered indextype implements.
    pub fn operator_names(&self) -> Vec<String> {
        self.indextypes
            .read()
            .values()
            .flat_map(|it| it.operators().iter().map(|s| s.to_string()))
            .collect()
    }

    // -- tables ----------------------------------------------------------------

    /// Create a table (fails if the name is taken). DDL autocommits:
    /// it is logged and durable immediately, and is rejected inside an
    /// explicit transaction.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), DbError> {
        self.create_table_in(&self.default_session, name, schema)
    }

    pub(crate) fn create_table_in(
        &self,
        sess: &SessionState,
        name: &str,
        schema: Schema,
    ) -> Result<(), DbError> {
        Self::reject_in_txn(sess, "CREATE TABLE")?;
        self.catalog.create_table(name, schema.clone())?;
        self.log_ddl(
            &WalRecord::CreateTable { name: name.to_ascii_uppercase(), schema },
            sess.options.read().durability,
        )?;
        Ok(())
    }

    fn reject_in_txn(sess: &SessionState, what: &str) -> Result<(), DbError> {
        if sess.txn.lock().is_some() {
            return Err(DbError::Txn(format!(
                "{what} is not allowed inside an explicit transaction (DDL autocommits)"
            )));
        }
        Ok(())
    }

    /// Look up a table handle by name (case-insensitive).
    pub fn table(&self, name: &str) -> Result<Arc<RwLock<Table>>, DbError> {
        Ok(self.catalog.table(name)?)
    }

    /// Drop a table along with its domain indexes and metadata.
    pub fn drop_table(&self, name: &str) -> Result<(), DbError> {
        self.drop_table_in(&self.default_session, name)
    }

    pub(crate) fn drop_table_in(&self, sess: &SessionState, name: &str) -> Result<(), DbError> {
        Self::reject_in_txn(sess, "DROP TABLE")?;
        // Drop dependent domain indexes first.
        let dependent: Vec<String> = {
            let indexes = self.indexes.read();
            indexes
                .keys()
                .filter(|iname| {
                    self.catalog
                        .index_metadata(iname)
                        .map(|m| m.table_name.eq_ignore_ascii_case(name))
                        .unwrap_or(false)
                })
                .cloned()
                .collect()
        };
        for iname in dependent {
            self.indexes.write().remove(&iname);
        }
        self.catalog.drop_table(name)?;
        self.log_ddl(
            &WalRecord::DropTable { name: name.to_ascii_uppercase() },
            sess.options.read().durability,
        )?;
        Ok(())
    }

    /// `ANALYZE <table>`: sample the table, build per-column and
    /// spatial statistics, install them for the planner, and log them
    /// through the WAL (autocommitted, like other DDL).
    pub(crate) fn analyze_table_in(
        &self,
        sess: &SessionState,
        name: &str,
    ) -> Result<Arc<TableStats>, DbError> {
        Self::reject_in_txn(sess, "ANALYZE")?;
        let handle = self.catalog.table(name)?;
        let stats = {
            let t = handle.read();
            TableStats::analyze(&t, ANALYZE_SAMPLE)
        };
        let stats = Arc::new(stats);
        self.catalog.set_table_stats((*stats).clone());
        self.log_ddl(
            &WalRecord::Analyze { table: stats.table.clone(), stats: (*stats).clone() },
            sess.options.read().durability,
        )?;
        Ok(stats)
    }

    /// Insert a row, maintaining every domain index on the table —
    /// the automatic index-update trigger of extensible indexing.
    /// Joins the default session's open transaction, or autocommits.
    pub fn insert_row(&self, table: &str, row: Vec<Value>) -> Result<RowId, DbError> {
        self.with_txn_in(&self.default_session, move |db, ctx| db.txn_insert(ctx, table, row))
    }

    /// Delete a row by rowid, maintaining domain indexes.
    pub fn delete_row(&self, table: &str, rid: RowId) -> Result<(), DbError> {
        self.with_txn_in(&self.default_session, move |db, ctx| db.txn_delete(ctx, table, rid))
    }

    // -- transactions -------------------------------------------------------

    /// The MVCC read view for a new statement in `sess`: the session
    /// transaction's snapshot when one is open (own writes + world as
    /// of `BEGIN`), otherwise the latest committed state. The caller
    /// must hold a pin (a statement's, see [`TxnManager::pin`]) taken
    /// before this is read.
    pub(crate) fn read_snapshot_in(&self, sess: &SessionState) -> Snapshot {
        match sess.txn.lock().as_ref() {
            Some(ctx) => ctx.token.snap,
            None => self.txn.snapshot(),
        }
    }

    /// The transaction manager (snapshots, CSNs, commit protocol).
    #[inline]
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txn
    }

    /// Begin an explicit transaction owned by the caller (Rust API).
    /// Any number may run concurrently; see [`Txn`].
    pub fn begin(&self) -> Txn<'_> {
        let durability = self.default_session.options.read().durability;
        Txn { db: self, ctx: Some(self.new_ctx(durability)) }
    }

    /// `BEGIN`: open `sess`'s explicit transaction. Each session has
    /// its own slot, so concurrent sessions can all be in
    /// transactions; a second `BEGIN` on the *same* session fails.
    pub(crate) fn begin_txn_in(&self, sess: &SessionState) -> Result<(), DbError> {
        let mut slot = sess.txn.lock();
        if slot.is_some() {
            return Err(DbError::Txn("transaction already in progress".into()));
        }
        *slot = Some(self.new_ctx(sess.options.read().durability));
        Ok(())
    }

    /// `COMMIT`: durably commit `sess`'s open transaction.
    pub(crate) fn commit_txn_in(&self, sess: &SessionState) -> Result<(), DbError> {
        let ctx = sess
            .txn
            .lock()
            .take()
            .ok_or_else(|| DbError::Txn("COMMIT with no open transaction".into()))?;
        self.commit_ctx(ctx)
    }

    /// `ROLLBACK`: abort `sess`'s open transaction.
    pub(crate) fn rollback_txn_in(&self, sess: &SessionState) -> Result<(), DbError> {
        let ctx = sess
            .txn
            .lock()
            .take()
            .ok_or_else(|| DbError::Txn("ROLLBACK with no open transaction".into()))?;
        self.abort_ctx(ctx);
        Ok(())
    }

    /// Whether the default session has an open explicit transaction.
    pub fn in_txn(&self) -> bool {
        self.default_session.txn.lock().is_some()
    }

    fn new_ctx(&self, durability: Durability) -> TxnCtx {
        TxnCtx {
            token: self.txn.begin(),
            durability,
            began_logged: false,
            abort_index_ops: Vec::new(),
            commit_index_ops: Vec::new(),
            writes: HashMap::new(),
        }
    }

    /// Run `f` inside `sess`'s open transaction, or inside a fresh
    /// autocommitted one (commit on `Ok`, roll back on `Err` — a
    /// failed autocommit statement leaves no trace).
    pub(crate) fn with_txn_in<R>(
        &self,
        sess: &SessionState,
        f: impl FnOnce(&Database, &mut TxnCtx) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        let mut slot = sess.txn.lock();
        if let Some(ctx) = slot.as_mut() {
            return f(self, ctx);
        }
        drop(slot);
        let mut ctx = self.new_ctx(sess.options.read().durability);
        match f(self, &mut ctx) {
            Ok(v) => {
                self.commit_ctx(ctx)?;
                Ok(v)
            }
            Err(e) => {
                self.abort_ctx(ctx);
                Err(e)
            }
        }
    }

    fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.wal.read().clone()
    }

    /// Append the transaction's `Begin` record on its first write.
    fn ensure_begin_logged(&self, ctx: &mut TxnCtx) -> Result<(), DbError> {
        if !ctx.began_logged {
            if let Some(w) = self.wal_handle() {
                w.append(&WalRecord::Begin { txid: ctx.token.txid })?;
            }
            ctx.began_logged = true;
        }
        Ok(())
    }

    /// Append a DDL record and make it durable per the issuing
    /// session's policy.
    fn log_ddl(&self, rec: &WalRecord, durability: Durability) -> Result<(), DbError> {
        if let Some(w) = self.wal_handle() {
            let lsn = w.append(rec)?;
            if durability == Durability::Fsync {
                w.sync_to(lsn)?;
            }
        }
        Ok(())
    }

    pub(crate) fn txn_insert(
        &self,
        ctx: &mut TxnCtx,
        table: &str,
        row: Vec<Value>,
    ) -> Result<RowId, DbError> {
        self.ensure_begin_logged(ctx)?;
        let tname = table.to_ascii_uppercase();
        let t = self.table(&tname)?;
        let rid = t.write().insert_txn(ctx.token.txid, row.clone())?;
        if let Some(w) = self.wal_handle() {
            w.append(&WalRecord::Insert {
                txid: ctx.token.txid,
                table: tname.clone(),
                rid,
                row: row.clone(),
            })?;
        }
        for (_, idx) in self.indexes_on_table(&tname) {
            idx.write().on_insert(rid, &row)?;
            ctx.abort_index_ops.push((Arc::clone(&idx), rid, row.clone()));
        }
        let w = ctx.writes.entry(tname).or_default();
        w.live_delta += 1;
        let slot = rid.0;
        w.inserted = Some(w.inserted.map_or((slot, slot), |(lo, hi)| (lo.min(slot), hi.max(slot))));
        Ok(rid)
    }

    pub(crate) fn txn_update(
        &self,
        ctx: &mut TxnCtx,
        table: &str,
        rid: RowId,
        row: Vec<Value>,
    ) -> Result<(), DbError> {
        self.ensure_begin_logged(ctx)?;
        let tname = table.to_ascii_uppercase();
        let t = self.table(&tname)?;
        let old = t.read().get_at(rid, &ctx.token.snap)?.to_vec();
        t.write().update_txn(ctx.token.txid, ctx.token.snap.csn, rid, row.clone())?;
        if let Some(w) = self.wal_handle() {
            w.append(&WalRecord::Update {
                txid: ctx.token.txid,
                table: tname.clone(),
                rid,
                row: row.clone(),
            })?;
        }
        // An update that leaves an index's column equal leaves that
        // index alone. Otherwise the new entry goes in eagerly (undone on
        // abort); the old entry stays until no pinned snapshot can see
        // the old version. Readers re-check each candidate against the
        // heap under their snapshot, and the tree join emits only through
        // the entry whose MBR matches the visible geometry.
        for (column, idx) in self.indexes_on_table(table) {
            let col = t.read().schema().column_index(&column);
            if col.is_some_and(|c| old.get(c) == row.get(c)) {
                continue;
            }
            idx.write().on_insert(rid, &row)?;
            ctx.abort_index_ops.push((Arc::clone(&idx), rid, row.clone()));
            ctx.commit_index_ops.push((idx, rid, old.clone()));
        }
        ctx.writes.entry(tname).or_default().rewritten.push(rid);
        Ok(())
    }

    pub(crate) fn txn_delete(
        &self,
        ctx: &mut TxnCtx,
        table: &str,
        rid: RowId,
    ) -> Result<(), DbError> {
        self.ensure_begin_logged(ctx)?;
        let tname = table.to_ascii_uppercase();
        let t = self.table(&tname)?;
        let old = t.read().get_at(rid, &ctx.token.snap)?.to_vec();
        t.write().delete_txn(ctx.token.txid, ctx.token.snap.csn, rid)?;
        if let Some(w) = self.wal_handle() {
            w.append(&WalRecord::Delete { txid: ctx.token.txid, table: tname.clone(), rid })?;
        }
        // Deferred: the index entry must outlive the commit for as long
        // as a pinned snapshot can still see the row.
        for (_, idx) in self.indexes_on_table(table) {
            ctx.commit_index_ops.push((idx, rid, old.clone()));
        }
        let w = ctx.writes.entry(tname).or_default();
        w.live_delta -= 1;
        w.rewritten.push(rid);
        Ok(())
    }

    /// The commit protocol: WAL commit record → durability sync →
    /// status flip (the commit point) → live-row deltas. Index deletes
    /// and version pruning are handed to the transaction manager, which
    /// runs them once no pinned snapshot predates the commit.
    pub(crate) fn commit_ctx(&self, ctx: TxnCtx) -> Result<(), DbError> {
        if ctx.began_logged {
            if let Some(w) = self.wal_handle() {
                let lsn = match w.append(&WalRecord::Commit { txid: ctx.token.txid }) {
                    Ok(lsn) => lsn,
                    Err(e) => {
                        // Nothing durable marks this commit; roll back.
                        self.abort_ctx(ctx);
                        return Err(e.into());
                    }
                };
                if ctx.durability == Durability::Fsync {
                    if let Err(e) = w.sync_to(lsn) {
                        // Conservative: treat an undurable commit as
                        // failed. (Recovery may still see the record if
                        // the OS got it out — the classic ack-lost
                        // window.)
                        self.abort_ctx(ctx);
                        return Err(e.into());
                    }
                }
            }
        }
        let TxnCtx { token, commit_index_ops, mut writes, .. } = ctx;
        // Only the rows it updated or deleted can hold a dead version:
        // a commit that only inserted builds no cleanup at all.
        let rewritten: Vec<_> = writes
            .iter_mut()
            .filter(|(_, w)| !w.rewritten.is_empty())
            .filter_map(|(name, w)| {
                Some((self.table(name).ok()?, std::mem::take(&mut w.rewritten)))
            })
            .collect();
        self.txn.commit(token, cleanup(commit_index_ops, rewritten));
        for (name, w) in writes {
            if w.live_delta != 0 {
                self.table(&name)?.write().apply_live_delta(w.live_delta);
            }
        }
        Ok(())
    }

    /// Roll back: flip the status (O(1) — versions become invisible
    /// immediately), undo eager index insertions, and hand the slots it
    /// wrote to the transaction manager for pruning. The WAL `Abort`
    /// record is advisory; a missing commit record discards the
    /// transaction at recovery anyway.
    pub(crate) fn abort_ctx(&self, ctx: TxnCtx) {
        let TxnCtx { token, began_logged, abort_index_ops, writes, .. } = ctx;
        if began_logged {
            if let Some(w) = self.wal_handle() {
                let _ = w.append(&WalRecord::Abort { txid: token.txid });
            }
        }
        // Everything it wrote is dead: the rows it rewrote and the
        // slots it inserted into.
        let written = writes
            .into_iter()
            .filter_map(|(name, w)| {
                let inserted = w.inserted.into_iter().flat_map(|(lo, hi)| lo..=hi);
                let mut rids = w.rewritten;
                rids.extend(inserted.map(RowId::new));
                Some((self.table(&name).ok()?, rids))
            })
            .collect();
        self.txn.abort(token, cleanup(Vec::new(), written));
        for (idx, rid, row) in abort_index_ops.into_iter().rev() {
            let _ = idx.write().on_delete(rid, &row);
        }
    }

    // -- domain indexes -----------------------------------------------------------

    /// Create a domain index through a registered indextype. The
    /// indextype registers its own [`IndexMetadata`] row. DDL
    /// autocommits; rejected inside an explicit transaction.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn create_domain_index_in(
        &self,
        sess: &SessionState,
        index_name: &str,
        table: &str,
        column: &str,
        indextype: &str,
        params: &str,
        dop: usize,
    ) -> Result<(), DbError> {
        Self::reject_in_txn(sess, "CREATE INDEX")?;
        if dop > MAX_PARALLEL_DOP {
            return Err(DbError::Plan(format!(
                "CREATE INDEX degree of parallelism {dop} exceeds the maximum of {MAX_PARALLEL_DOP}"
            )));
        }
        self.create_domain_index_unlogged(index_name, table, column, indextype, params, dop)?;
        self.log_ddl(
            &WalRecord::CreateIndex {
                index_name: index_name.to_ascii_uppercase(),
                table_name: table.to_ascii_uppercase(),
                column_name: column.to_string(),
                parameters: params.to_string(),
                create_dop: dop,
            },
            sess.options.read().durability,
        )?;
        Ok(())
    }

    /// `create_domain_index_in` without the WAL record: used
    /// for index rebuilds (snapshot load, recovery) whose creation is
    /// already recorded in the base image or log.
    fn create_domain_index_unlogged(
        &self,
        index_name: &str,
        table: &str,
        column: &str,
        indextype: &str,
        params: &str,
        dop: usize,
    ) -> Result<(), DbError> {
        let it = self
            .indextypes
            .read()
            .get(&indextype.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| DbError::Plan(format!("unknown indextype {indextype}")))?;
        let key = index_name.to_ascii_uppercase();
        if self.indexes.read().contains_key(&key) {
            return Err(DbError::Index(format!("index {key} already exists")));
        }
        let index = it.create_index(self, &key, table, column, params, dop)?;
        self.indexes.write().insert(key, Arc::new(RwLock::new(index)));
        Ok(())
    }

    /// Drop a domain index (instance + metadata).
    pub(crate) fn drop_domain_index_in(
        &self,
        sess: &SessionState,
        index_name: &str,
    ) -> Result<(), DbError> {
        Self::reject_in_txn(sess, "DROP INDEX")?;
        let key = index_name.to_ascii_uppercase();
        self.indexes
            .write()
            .remove(&key)
            .ok_or_else(|| DbError::Index(format!("no such index {key}")))?;
        let _ = self.catalog.drop_index(&key);
        self.log_ddl(&WalRecord::DropIndex { name: key }, sess.options.read().durability)?;
        Ok(())
    }

    /// Fetch a live index instance by name.
    pub fn index_instance(&self, index_name: &str) -> Option<IndexHandle> {
        self.indexes.read().get(&index_name.to_ascii_uppercase()).cloned()
    }

    /// The index (metadata + instance) on `(table, column)`, if any.
    pub fn index_on(&self, table: &str, column: &str) -> Option<(IndexMetadata, IndexHandle)> {
        let meta = self.catalog.index_on(table, column)?;
        let inst = self.index_instance(&meta.index_name)?;
        Some((meta, inst))
    }

    /// The domain indexes on `table`, each with its indexed column.
    fn indexes_on_table(&self, table: &str) -> Vec<(String, IndexHandle)> {
        let indexes = self.indexes.read();
        indexes
            .iter()
            .filter_map(|(name, v)| {
                let m = self.catalog.index_metadata(name).ok()?;
                m.table_name.eq_ignore_ascii_case(table).then(|| (m.column_name, Arc::clone(v)))
            })
            .collect()
    }

    // -- snapshots --------------------------------------------------------------

    /// Serialize every table and index-metadata row into snapshot
    /// bytes (see [`sdo_storage::snapshot`]). Domain indexes are not
    /// serialized; they rebuild from their recorded parameters on load.
    pub fn save_snapshot(&self) -> bytes::Bytes {
        let metas: Vec<IndexMetadata> = {
            let indexes = self.indexes.read();
            indexes.keys().filter_map(|name| self.catalog.index_metadata(name).ok()).collect()
        };
        sdo_storage::snapshot::save_catalog(&self.catalog, &metas)
    }

    /// Restore a snapshot into this (empty) database, rebuilding every
    /// domain index through the registered indextypes. The indextypes
    /// used at save time must be registered before calling this.
    pub fn load_snapshot(&self, bytes: impl bytes::Buf) -> Result<(), DbError> {
        let directives = sdo_storage::snapshot::load_catalog(&self.catalog, bytes)?;
        for d in directives {
            // All snapshot-recorded spatial indexes came from the
            // SPATIAL_INDEX indextype in this codebase. Rebuilds are
            // not re-logged: their creation is already in the image.
            self.create_domain_index_unlogged(
                &d.index_name,
                &d.table_name,
                &d.column_name,
                "SPATIAL_INDEX",
                &d.parameters,
                d.create_dop,
            )?;
        }
        Ok(())
    }

    // -- SQL ------------------------------------------------------------------------

    /// Parse and execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult, DbError> {
        let stmt = crate::sql::parse(sql)?;
        crate::exec::execute(self, &stmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_storage::DataType;

    #[test]
    fn registry_roundtrips() {
        let db = Database::new();
        db.register_table_function("NUMS", |_db, _snap, args| {
            let n = args[0].integer()?;
            Ok(TfInstance {
                func: Box::new(sdo_tablefunc::table_function::BufferedFn::new(move || {
                    Ok((0..n).map(|i| vec![Value::Integer(i)]).collect())
                })),
                columns: vec!["N".into()],
            })
        });
        let mut inst = db
            .make_table_function("nums", Snapshot::LATEST, vec![TfArg::Scalar(Value::Integer(3))])
            .unwrap();
        let rows = sdo_tablefunc::collect_all(inst.func.as_mut(), 10).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(inst.columns, vec!["N".to_string()]);
        assert!(db.make_table_function("missing", Snapshot::LATEST, vec![]).is_err());
    }

    #[test]
    fn dml_without_indexes() {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("ID", DataType::Integer)])).unwrap();
        let rid = db.insert_row("t", vec![Value::Integer(1)]).unwrap();
        assert_eq!(db.table("t").unwrap().read().len(), 1);
        db.delete_row("t", rid).unwrap();
        assert_eq!(db.table("t").unwrap().read().len(), 0);
        assert!(db.delete_row("t", rid).is_err());
    }

    #[test]
    fn tfarg_accessors() {
        assert_eq!(TfArg::Scalar(Value::Integer(4)).integer().unwrap(), 4);
        assert_eq!(TfArg::Scalar(Value::Double(1.5)).double().unwrap(), 1.5);
        assert_eq!(TfArg::Scalar(Value::from("x")).text().unwrap(), "x");
        assert!(TfArg::Scalar(Value::from("x")).integer().is_err());
        assert!(TfArg::Cursor(vec![]).scalar().is_err());
        assert_eq!(TfArg::Cursor(vec![vec![]]).cursor().unwrap().len(), 1);
    }
}
