//! Per-connection sessions.
//!
//! A [`Session`] owns everything Oracle scopes to a connection: the
//! `ALTER SESSION` options, the open explicit transaction, the last
//! statement's operator profile, and named prepared statements. The
//! engine itself ([`Database`]) holds only shared state — catalog,
//! MVCC manager, WAL, registries — plus engine-level *defaults* that
//! new sessions start from, so concurrent connections never observe
//! each other's `ALTER SESSION`, `BEGIN`, or `EXPLAIN ANALYZE` output.
//!
//! `Database::execute` and the other connectionless convenience APIs
//! keep working: they run against a built-in *default session* (id 0),
//! which behaves exactly like the pre-session single-connection engine.

use crate::db::{Database, QueryResult, SessionOptions, TxnCtx};
use crate::error::DbError;
use crate::sql::{self, Statement};
use parking_lot::{Mutex, RwLock};
use sdo_storage::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How deep `EXECUTE` may nest within one statement. Prepared
/// statements may invoke each other, so a self- or mutually-referential
/// chain (`PREPARE a AS EXECUTE a`) would otherwise recurse until the
/// stack overflows and takes the whole server process with it.
pub(crate) const MAX_EXECUTE_DEPTH: usize = 16;

/// A parsed statement cached under a name by `PREPARE` /
/// [`Session::prepare`], with its `?` placeholder count.
pub(crate) struct Prepared {
    /// The statement body, placeholders intact.
    pub(crate) stmt: Statement,
    /// Number of `?` placeholders to bind at execute time.
    pub(crate) nparams: usize,
}

/// The state one connection owns. Interior-mutable so a shared
/// `Arc<SessionState>` can serve a whole connection lifetime.
pub(crate) struct SessionState {
    /// Session id (0 is the embedded default session).
    pub(crate) id: u64,
    /// This session's `ALTER SESSION` options.
    pub(crate) options: RwLock<SessionOptions>,
    /// The session's open explicit transaction, if any.
    pub(crate) txn: Mutex<Option<TxnCtx>>,
    /// Operator profile of the session's most recent statement.
    pub(crate) last_profile: RwLock<Option<sdo_obs::QueryProfile>>,
    /// Named prepared statements (`PREPARE name AS ...`).
    pub(crate) prepared: RwLock<HashMap<String, Arc<Prepared>>>,
    /// Current `EXECUTE` nesting depth (see [`MAX_EXECUTE_DEPTH`]).
    exec_depth: AtomicUsize,
}

/// RAII guard for one level of `EXECUTE` nesting; restores the
/// session's depth on drop, error paths included.
pub(crate) struct ExecDepthGuard<'a>(&'a AtomicUsize);

impl Drop for ExecDepthGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl SessionState {
    pub(crate) fn new(id: u64, options: SessionOptions) -> Self {
        SessionState {
            id,
            options: RwLock::new(options),
            txn: Mutex::new(None),
            last_profile: RwLock::new(None),
            prepared: RwLock::new(HashMap::new()),
            exec_depth: AtomicUsize::new(0),
        }
    }

    /// Enter one level of `EXECUTE` nesting, erroring past
    /// [`MAX_EXECUTE_DEPTH`] so self-referential prepared statements
    /// (`PREPARE a AS EXECUTE a`, or mutually recursive chains) fail
    /// cleanly instead of overflowing the stack.
    pub(crate) fn enter_execute(&self) -> Result<ExecDepthGuard<'_>, DbError> {
        let prev = self.exec_depth.fetch_add(1, Ordering::Relaxed);
        // Build the guard first so the increment is undone even on
        // the error path.
        let guard = ExecDepthGuard(&self.exec_depth);
        if prev >= MAX_EXECUTE_DEPTH {
            return Err(DbError::Plan(format!(
                "EXECUTE nesting exceeds depth limit {MAX_EXECUTE_DEPTH} \
                 (self-referential prepared statement?)"
            )));
        }
        Ok(guard)
    }

    /// Cache a parsed statement under `name` (replacing any previous
    /// statement of that name), returning its placeholder count.
    pub(crate) fn insert_prepared(&self, name: &str, stmt: Statement) -> usize {
        let nparams = sql::param_count(&stmt);
        self.prepared
            .write()
            .insert(name.to_ascii_uppercase(), Arc::new(Prepared { stmt, nparams }));
        nparams
    }

    pub(crate) fn get_prepared(&self, name: &str) -> Result<Arc<Prepared>, DbError> {
        self.prepared
            .read()
            .get(&name.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| DbError::Plan(format!("no prepared statement named {name}")))
    }

    pub(crate) fn remove_prepared(&self, name: &str) -> Result<(), DbError> {
        self.prepared
            .write()
            .remove(&name.to_ascii_uppercase())
            .map(|_| ())
            .ok_or_else(|| DbError::Plan(format!("no prepared statement named {name}")))
    }
}

/// A connection handle: shared engine + per-connection state.
///
/// Created via [`Database::session`]. Dropping a session rolls back
/// its open explicit transaction, like a connection reset.
pub struct Session {
    db: Arc<Database>,
    state: Arc<SessionState>,
}

impl Session {
    pub(crate) fn attach(db: Arc<Database>) -> Self {
        let state = db.new_session_state();
        Session { db, state }
    }

    /// This session's id (unique per engine; 0 is the default session).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// The engine this session is connected to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Parse and execute one SQL statement in this session.
    pub fn execute(&self, sql_text: &str) -> Result<QueryResult, DbError> {
        let stmt = sql::parse(sql_text)?;
        crate::exec::execute_in(&self.db, &self.state, &stmt)
    }

    /// Cache a parsed statement under `name`; returns how many `?`
    /// placeholders it expects. Equivalent to `PREPARE name AS sql`.
    pub fn prepare(&self, name: &str, sql_text: &str) -> Result<usize, DbError> {
        let stmt = sql::parse(sql_text)?;
        if matches!(stmt, Statement::Prepare { .. }) {
            return Err(DbError::Plan("cannot PREPARE a PREPARE statement".into()));
        }
        Ok(self.state.insert_prepared(name, stmt))
    }

    /// Execute a prepared statement with positional bind values.
    pub fn execute_prepared(&self, name: &str, params: &[Value]) -> Result<QueryResult, DbError> {
        let prepared = self.state.get_prepared(name)?;
        if params.len() != prepared.nparams {
            return Err(DbError::Plan(format!(
                "prepared statement {name} expects {} bind values, got {}",
                prepared.nparams,
                params.len()
            )));
        }
        let bound = sql::bind_statement(&prepared.stmt, params)?;
        crate::exec::execute_in(&self.db, &self.state, &bound)
    }

    /// Drop a prepared statement. Equivalent to `DEALLOCATE name`.
    pub fn deallocate(&self, name: &str) -> Result<(), DbError> {
        self.state.remove_prepared(name)
    }

    /// Current options of this session (copy).
    pub fn options(&self) -> SessionOptions {
        self.state.options.read().clone()
    }

    /// Set one of this session's options (see
    /// [`SessionOptions::set`]); other sessions are unaffected.
    pub fn set_option(&self, name: &str, value: &str) -> Result<(), DbError> {
        self.state.options.write().set(name, value)
    }

    /// The operator profile of this session's most recent statement.
    pub fn last_profile(&self) -> Option<sdo_obs::QueryProfile> {
        self.state.last_profile.read().clone()
    }

    /// Whether this session has an open explicit transaction.
    pub fn in_txn(&self) -> bool {
        self.state.txn.lock().is_some()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A dropped connection rolls back whatever it left open.
        let ctx = self.state.txn.lock().take();
        if let Some(ctx) = ctx {
            self.db.abort_ctx(ctx);
        }
        self.db.release_session();
    }
}
