//! Statement execution.
//!
//! * Statement dispatch: DDL, DML, transaction control, `ALTER SESSION`,
//!   `PREPARE`/`EXECUTE`, `ANALYZE` and `EXPLAIN [ANALYZE]`, each under
//!   a profile session.
//! * SELECT entry: the cost-based planner (`planner`) draws the one
//!   plan of a statement, which `EXPLAIN` renders and the streaming
//!   operator pipeline (`operators`) runs. DELETE and UPDATE find
//!   their rows through the plan of the same one-table SELECT.
//! * Expression evaluation shared by the planner and the operators:
//!   constants, scalar `SDO_*` functions, the exact form of spatial
//!   operators, predicates, column resolution and projection.

use crate::db::{Database, QueryResult};
use crate::error::DbError;
use crate::extensible::ExactPredicate;
use crate::operators::{self, ExecCtx};
use crate::session::SessionState;
use crate::sql::ast::*;
use parking_lot::RwLock;
use sdo_geom::Geometry;
use sdo_obs::ProfileSession;
use sdo_storage::{ColumnDef, CountersSnapshot, RowId, Schema, Table, Value};
use sdo_tablefunc::Row;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Execute a parsed statement on the default session.
pub fn execute(db: &Database, stmt: &Statement) -> Result<QueryResult, DbError> {
    execute_in(db, db.default_session_state(), stmt)
}

/// Execute a parsed statement in a session.
///
/// Every top-level statement runs under an [`sdo_obs`] profile session,
/// so the session's `last_profile` always reflects its most recent
/// statement. `EXPLAIN ANALYZE` executes the wrapped statement the same
/// way but returns the rendered profile tree as its result rows.
pub(crate) fn execute_in(
    db: &Database,
    sess: &SessionState,
    stmt: &Statement,
) -> Result<QueryResult, DbError> {
    if let Statement::ExplainAnalyze(inner) = stmt {
        let session = ProfileSession::begin(statement_label(inner));
        let before = db.counters().snapshot();
        let result = execute_pinned(db, sess, inner);
        if let Ok(r) = &result {
            session.root().add_rows(r.rows.len() as u64);
        }
        note_txn_counters(db, session.root(), &before);
        let profile = session.finish();
        result?;
        *sess.last_profile.write() = Some(profile.clone());
        return Ok(explain_result(profile.render_text().lines().map(String::from).collect()));
    }
    if sdo_obs::current().is_some() {
        // Already inside an enclosing profile node (e.g. a harness that
        // opened its own session): contribute to it, don't nest sessions.
        return execute_pinned(db, sess, stmt);
    }
    let session = ProfileSession::begin(statement_label(stmt));
    let before = db.counters().snapshot();
    let result = execute_pinned(db, sess, stmt);
    if let Ok(r) = &result {
        session.root().add_rows(r.rows.len() as u64);
    }
    note_txn_counters(db, session.root(), &before);
    *sess.last_profile.write() = Some(session.finish());
    result
}

/// Run one statement under a pin on the current CSN, taken before any
/// snapshot is read, so no version the statement can see is pruned
/// while it runs. Releasing the pin at the end runs the cleanup it held
/// back — this statement's own commit's, typically.
fn execute_pinned(
    db: &Database,
    sess: &SessionState,
    stmt: &Statement,
) -> Result<QueryResult, DbError> {
    let _pin = db.txn_manager().pin();
    execute_inner(db, sess, stmt)
}

/// Publish the statement's transaction/WAL work on the profile root:
/// commits, aborts, heap versions pruned, log bytes, and log syncs it
/// caused.
fn note_txn_counters(db: &Database, root: &sdo_obs::ProfileNode, before: &CountersSnapshot) {
    let diff = db.counters().diff(before);
    let pairs: Vec<(&str, u64)> =
        ["txn_commits", "txn_aborts", "heap_versions_pruned", "wal_bytes_written", "wal_fsyncs"]
            .iter()
            .map(|n| (*n, diff.get(n).unwrap_or(0)))
            .collect();
    root.add_metric_deltas(&pairs);
}

/// Root label for a statement's profile tree.
fn statement_label(stmt: &Statement) -> String {
    match stmt {
        Statement::CreateTable { name, .. } => format!("CREATE TABLE {name}"),
        Statement::DropTable { name } => format!("DROP TABLE {name}"),
        Statement::Insert { table, .. } => format!("INSERT {table}"),
        Statement::Delete { table, .. } => format!("DELETE {table}"),
        Statement::Update { table, .. } => format!("UPDATE {table}"),
        Statement::CreateIndex { name, .. } => format!("CREATE INDEX {name}"),
        Statement::DropIndex { name } => format!("DROP INDEX {name}"),
        Statement::Select(_) => "SELECT".into(),
        Statement::Explain(_) => "EXPLAIN".into(),
        Statement::ExplainAnalyze(_) => "EXPLAIN ANALYZE".into(),
        Statement::AlterSession { name, .. } => format!("ALTER SESSION SET {name}"),
        Statement::Begin => "BEGIN".into(),
        Statement::Commit => "COMMIT".into(),
        Statement::Rollback => "ROLLBACK".into(),
        Statement::Prepare { name, .. } => format!("PREPARE {name}"),
        Statement::ExecutePrepared { name, .. } => format!("EXECUTE {name}"),
        Statement::Deallocate { name } => format!("DEALLOCATE {name}"),
        Statement::Analyze { table } => format!("ANALYZE {table}"),
    }
}

/// Publish the statement's peak resident-row count on the enclosing
/// profile node (rendered by `EXPLAIN ANALYZE`).
fn note_peak_resident(ctx: &ExecCtx<'_>) {
    if let Some(p) = sdo_obs::current() {
        p.set_metric("peak_resident_rows", ctx.gauge.peak());
    }
}

fn execute_inner(
    db: &Database,
    sess: &SessionState,
    stmt: &Statement,
) -> Result<QueryResult, DbError> {
    match stmt {
        Statement::CreateTable { name, columns } => {
            let schema = Schema::new(columns.iter().map(|(n, t)| ColumnDef::new(n, *t)).collect());
            db.create_table_in(sess, name, schema)?;
            Ok(QueryResult::empty())
        }
        Statement::DropTable { name } => {
            db.drop_table_in(sess, name)?;
            Ok(QueryResult::empty())
        }
        Statement::Insert { table, values } => {
            let row = values.iter().map(eval_const).collect::<Result<Vec<_>, _>>()?;
            db.with_txn_in(sess, move |db, txn| db.txn_insert(txn, table, row))?;
            Ok(QueryResult::empty())
        }
        Statement::Delete { table, where_clause } => {
            // The doomed set is collected through the same streaming
            // scan + filter operators as SELECT.
            let ctx = ExecCtx::new(db, sess);
            let matched = operators::collect_matching(&ctx, table, where_clause)?;
            let n = matched.len();
            // One transaction for the whole statement: an autocommitted
            // multi-row DELETE is all-or-nothing.
            db.with_txn_in(sess, |db, txn| {
                for (rid, _) in matched {
                    db.txn_delete(txn, table, rid)?;
                }
                Ok(())
            })?;
            note_peak_resident(&ctx);
            Ok(QueryResult {
                columns: vec!["DELETED".into()],
                rows: vec![vec![Value::Integer(n as i64)]],
            })
        }
        Statement::Update { table, assignments, where_clause } => {
            let ctx = ExecCtx::new(db, sess);
            let handle = db.table(table)?;
            let columns: Vec<String> =
                handle.read().schema().columns().iter().map(|c| c.name.clone()).collect();
            let metas = [RelMeta {
                binding: table.to_ascii_uppercase(),
                columns,
                table: Some(handle),
                table_name: Some(table.to_ascii_uppercase()),
            }];
            // Resolve assignment targets against the table schema and
            // compile their expressions, once for every matched row.
            let targets: Vec<(usize, Scalar)> = assignments
                .iter()
                .map(|(col, e)| {
                    let ci = metas[0]
                        .columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(col))
                        .ok_or_else(|| DbError::Plan(format!("no column {col} on {table}")))?;
                    Ok((ci, Scalar::compile(&metas, e)?))
                })
                .collect::<Result<_, DbError>>()?;
            let matched = operators::collect_matching(&ctx, table, where_clause)?;
            let mut updates = Vec::with_capacity(matched.len());
            for (rid, mut values) in matched {
                let row = HeapRow { rel: 0, rid, values: &values };
                let new_values = targets
                    .iter()
                    .map(|(_, e)| e.eval(&row).map(Cow::into_owned))
                    .collect::<Result<Vec<_>, _>>()?;
                for ((ci, _), v) in targets.iter().zip(new_values) {
                    values[*ci] = v;
                }
                updates.push((rid, values));
            }
            let n = updates.len();
            // Statement-atomic, like DELETE above.
            db.with_txn_in(sess, |db, txn| {
                for (rid, row) in updates {
                    db.txn_update(txn, table, rid, row)?;
                }
                Ok(())
            })?;
            note_peak_resident(&ctx);
            Ok(QueryResult {
                columns: vec!["UPDATED".into()],
                rows: vec![vec![Value::Integer(n as i64)]],
            })
        }
        Statement::CreateIndex { name, table, column, indextype, parameters, parallel } => {
            db.create_domain_index_in(sess, name, table, column, indextype, parameters, *parallel)?;
            Ok(QueryResult::empty())
        }
        Statement::DropIndex { name } => {
            db.drop_domain_index_in(sess, name)?;
            Ok(QueryResult::empty())
        }
        Statement::Select(sel) => run_select_top(db, sess, sel),
        Statement::Explain(sel) => explain_select(db, sess, sel),
        // A nested `EXPLAIN ANALYZE` re-enters the profiling wrapper.
        Statement::ExplainAnalyze(_) => execute_in(db, sess, stmt),
        Statement::AlterSession { name, value } => {
            sess.options.write().set(name, value)?;
            Ok(QueryResult::empty())
        }
        Statement::Begin => {
            db.begin_txn_in(sess)?;
            Ok(QueryResult::empty())
        }
        Statement::Commit => {
            db.commit_txn_in(sess)?;
            Ok(QueryResult::empty())
        }
        Statement::Rollback => {
            db.rollback_txn_in(sess)?;
            Ok(QueryResult::empty())
        }
        Statement::Prepare { name, stmt: body } => {
            if matches!(**body, Statement::Prepare { .. }) {
                return Err(DbError::Plan("cannot PREPARE a PREPARE statement".into()));
            }
            let nparams = sess.insert_prepared(name, (**body).clone());
            Ok(QueryResult {
                columns: vec!["PREPARED".into(), "PARAMS".into()],
                rows: vec![vec![Value::text(name.clone()), Value::Integer(nparams as i64)]],
            })
        }
        Statement::ExecutePrepared { name, args } => {
            let prepared = sess.get_prepared(name)?;
            let vals = args.iter().map(eval_const).collect::<Result<Vec<_>, _>>()?;
            if vals.len() != prepared.nparams {
                return Err(DbError::Plan(format!(
                    "prepared statement {name} expects {} bind values, got {}",
                    prepared.nparams,
                    vals.len()
                )));
            }
            let bound = crate::sql::bind_statement(&prepared.stmt, &vals)?;
            // Prepared bodies may themselves EXECUTE other prepared
            // statements; the session's depth guard turns recursive
            // chains into an error instead of a stack overflow.
            let _depth = sess.enter_execute()?;
            execute_inner(db, sess, &bound)
        }
        Statement::Deallocate { name } => {
            sess.remove_prepared(name)?;
            Ok(QueryResult::empty())
        }
        Statement::Analyze { table } => {
            let stats = db.analyze_table_in(sess, table)?;
            let histograms = stats.spatial.iter().flatten().count();
            Ok(QueryResult {
                columns: vec![
                    "TABLE".into(),
                    "ROWS".into(),
                    "COLUMNS".into(),
                    "SPATIAL_HISTOGRAMS".into(),
                ],
                rows: vec![vec![
                    Value::text(stats.table.clone()),
                    Value::Integer(stats.rows as i64),
                    Value::Integer(stats.columns.len() as i64),
                    Value::Integer(histograms as i64),
                ]],
            })
        }
    }
}

/// Describe the costed plan a SELECT would execute, without executing
/// it: the planner's operator tree with estimated rows, cost, and the
/// reason each path was chosen. Table functions are not instantiated
/// and `CURSOR(...)` arguments never run.
fn explain_select(
    db: &Database,
    sess: &crate::session::SessionState,
    sel: &Select,
) -> Result<QueryResult, DbError> {
    let env = crate::planner::PlanEnv::from_options(&sess.options.read());
    let plan = crate::planner::plan_select(db, sel, &env, crate::planner::Binding::Explain)?;
    Ok(explain_result(plan.root.render_lines()))
}

fn explain_result(lines: Vec<String>) -> QueryResult {
    QueryResult {
        columns: vec!["PLAN".into()],
        rows: lines.into_iter().map(|l| vec![Value::text(l)]).collect(),
    }
}

// ---------------------------------------------------------------------------
// Relations
// ---------------------------------------------------------------------------

/// Schema view of one bound FROM item, shared by the planner, the
/// streaming operators and predicate/expression evaluation.
#[derive(Clone)]
pub(crate) struct RelMeta {
    pub(crate) binding: String,
    pub(crate) columns: Vec<String>,
    /// Set for base tables (used for index lookup and rowid fetch).
    pub(crate) table: Option<Arc<RwLock<Table>>>,
    pub(crate) table_name: Option<String>,
}

/// One relation's contribution to a joined row.
#[derive(Clone)]
pub(crate) struct RelRow {
    pub(crate) rid: Option<RowId>,
    pub(crate) values: Row,
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

/// Top-level SELECT entry: builds the execution context from the
/// session options, runs the query, and publishes the statement's peak
/// resident-row count.
fn run_select_top(
    db: &Database,
    sess: &SessionState,
    sel: &Select,
) -> Result<QueryResult, DbError> {
    let ctx = ExecCtx::new(db, sess);
    let res = operators::run_select(&ctx, sel);
    note_peak_resident(&ctx);
    res
}

// ---------------------------------------------------------------------------
// Spatial predicate classification
// ---------------------------------------------------------------------------

/// `OP(target, other, …) = 'TRUE'` over a spatial operator, its
/// arguments compiled once per statement.
pub(crate) struct SpatialPred {
    pub(crate) op: SpatialOp,
    /// `(relation index, column index)` of the target geometry column.
    pub(crate) target: (usize, usize),
    /// Second argument: another column (join) or a constant geometry.
    pub(crate) other: SpatialOperand,
}

/// What a spatial operator asks of its target rows.
pub(crate) enum SpatialOp {
    /// A pairwise test: `SDO_RELATE`, `SDO_WITHIN_DISTANCE`,
    /// `SDO_FILTER`.
    Exact(ExactPredicate),
    /// `SDO_NN`'s result count: the `k` rows nearest the operand, a
    /// ranking with no per-row form.
    Nearest(usize),
}

impl SpatialOp {
    /// Compile spatial operator `name`'s arguments after its two
    /// geometries; `Ok(None)` when `name` is a scalar function.
    pub(crate) fn compile(name: &str, args: &[Expr]) -> Result<Option<SpatialOp>, DbError> {
        let values = || args.iter().map(eval_const).collect::<Result<Vec<_>, _>>();
        Ok(Some(match name.to_ascii_uppercase().as_str() {
            "SDO_NN" => SpatialOp::Nearest(num_res(values()?.first())?),
            op @ ("SDO_RELATE" | "SDO_WITHIN_DISTANCE" | "SDO_FILTER") => {
                SpatialOp::Exact(ExactPredicate::from_operator(op, &values()?)?)
            }
            _ => return Ok(None),
        }))
    }

    /// The pairwise test, which `SDO_NN` does not have.
    pub(crate) fn into_exact(self) -> Result<ExactPredicate, DbError> {
        match self {
            SpatialOp::Exact(p) => Ok(p),
            SpatialOp::Nearest(_) => Err(DbError::Plan(
                "SDO_NN ranks rows and cannot be evaluated pairwise; \
                 use it as a single-table predicate = 'TRUE'"
                    .into(),
            )),
        }
    }
}

/// `SDO_NN`'s result count: a bare integer or Oracle's
/// `'sdo_num_res=k'` parameter string (default 1).
fn num_res(arg: Option<&Value>) -> Result<usize, DbError> {
    use crate::extensible::{param, parse_params};
    let k = match arg.map(|v| (v.as_integer(), v.as_text().map(parse_params))) {
        None => 1,
        Some((Some(k), _)) => k,
        Some((None, p)) => {
            let k = p.as_deref().and_then(|p| param(p, "sdo_num_res")).unwrap_or_default();
            k.parse().map_err(|_| DbError::Plan(format!("bad sdo_num_res '{k}'")))?
        }
    };
    let k = usize::try_from(k).ok().filter(|&k| k >= 1);
    k.ok_or_else(|| DbError::Plan("SDO_NN result count must be >= 1".into()))
}

pub(crate) enum SpatialOperand {
    Column(usize, usize),
    Const(Arc<Geometry>),
}

impl SpatialPred {
    /// The operator's name, as `EXPLAIN` shows it.
    pub(crate) fn name(&self) -> &'static str {
        match &self.op {
            SpatialOp::Exact(p) => p.operator(),
            SpatialOp::Nearest(_) => "SDO_NN",
        }
    }

    pub(crate) fn is_join(&self) -> bool {
        matches!(self.other, SpatialOperand::Column(..))
    }

    /// The `(outer, inner)` `(relation, column)` of a column-column
    /// predicate run as a nested loop; `swap` makes the second
    /// argument's relation the outer side.
    pub(crate) fn loop_sides(&self, swap: bool) -> Option<((usize, usize), (usize, usize))> {
        let SpatialOperand::Column(r, c) = self.other else { return None };
        Some(if swap { ((r, c), self.target) } else { (self.target, (r, c)) })
    }
}

/// Classify `name(args…) = 'TRUE'`, `name` a registered operator: its
/// arguments compiled (a bad one is the statement's error), its column
/// and operand resolved.
pub(crate) fn classify_spatial(
    metas: &[RelMeta],
    name: &str,
    args: &[Expr],
) -> Result<SpatialPred, DbError> {
    if args.len() < 2 {
        return Err(DbError::Plan(format!("{name} needs at least 2 arguments")));
    }
    let op = SpatialOp::compile(name, &args[2..])?
        .ok_or_else(|| DbError::Plan(format!("{name} is not a spatial operator")))?;
    let target = match &args[0] {
        Expr::Column(cr) => resolve_column_meta(metas, cr)?,
        _ => return Err(DbError::Plan(format!("{name}: first argument must be a column"))),
    };
    let other = match &args[1] {
        Expr::Column(cr) => {
            let (r, c) = resolve_column_meta(metas, cr)?;
            SpatialOperand::Column(r, c)
        }
        e => {
            let v = eval_const(e)?;
            let g = v.as_geometry().cloned().ok_or_else(|| {
                DbError::Plan(format!("{name}: second argument must be a geometry"))
            })?;
            return Ok(SpatialPred { op, target, other: SpatialOperand::Const(g) });
        }
    };
    // A join tests pairs.
    Ok(SpatialPred { op: SpatialOp::Exact(op.into_exact()?), target, other })
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// Evaluate a constant expression (no column references).
pub fn eval_const(e: &Expr) -> Result<Value, DbError> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(cr) => {
            Err(DbError::Plan(format!("column {} not allowed in constant expression", cr.column)))
        }
        Expr::FnCall { name, args } => eval_scalar_fn(name, args),
        Expr::Param(ordinal) => Err(unbound_param(*ordinal)),
    }
}

fn eval_scalar_fn(name: &str, args: &[Expr]) -> Result<Value, DbError> {
    let vals = args.iter().map(eval_const).collect::<Result<Vec<_>, _>>()?;
    apply_scalar_fn(name, &vals)
}

/// Apply a scalar function to already-evaluated argument values. Covers
/// both geometry constructors (`SDO_GEOMETRY`, `SDO_POINT`) and the
/// `SDO_GEOM`-package-style measurement functions.
pub fn apply_scalar_fn(name: &str, vals: &[Value]) -> Result<Value, DbError> {
    let geom_arg = |i: usize| -> Result<&Arc<Geometry>, DbError> {
        vals.get(i)
            .and_then(|v| v.as_geometry())
            .ok_or_else(|| DbError::Plan(format!("{name}: argument {} must be a geometry", i + 1)))
    };
    match name.to_ascii_uppercase().as_str() {
        // A function of a NULL argument is NULL, as in SQL.
        "SDO_GEOMETRY" | "SDO_POINT" | "SDO_AREA" | "SDO_NUM_POINTS" | "SDO_DISTANCE"
        | "SDO_CENTROID" | "SDO_MBR" | "SDO_WKT" | "SDO_LENGTH" | "SDO_VALIDATE"
            if vals.iter().any(Value::is_null) =>
        {
            Ok(Value::Null)
        }
        // SDO_GEOMETRY('<wkt>'): geometry literal constructor.
        "SDO_GEOMETRY" => {
            let wkt = vals
                .first()
                .and_then(|v| v.as_text())
                .ok_or_else(|| DbError::Plan("SDO_GEOMETRY takes one WKT string".into()))?;
            Ok(Value::geometry(sdo_geom::wkt::parse_wkt(wkt)?))
        }
        // SDO_POINT(x, y) convenience constructor.
        "SDO_POINT" => {
            let x = vals
                .first()
                .and_then(|v| v.as_double())
                .ok_or_else(|| DbError::Plan("SDO_POINT x must be numeric".into()))?;
            let y = vals
                .get(1)
                .and_then(|v| v.as_double())
                .ok_or_else(|| DbError::Plan("SDO_POINT y must be numeric".into()))?;
            Ok(Value::geometry(Geometry::Point(sdo_geom::Point::new(x, y))))
        }
        // SDO_GEOM package equivalents over geometry values.
        "SDO_AREA" => Ok(Value::Double(geom_arg(0)?.area())),
        "SDO_NUM_POINTS" => Ok(Value::Integer(geom_arg(0)?.num_points() as i64)),
        "SDO_DISTANCE" => {
            let a = Arc::clone(geom_arg(0)?);
            let b = Arc::clone(geom_arg(1)?);
            Ok(Value::Double(sdo_geom::distance(&a, &b)))
        }
        "SDO_CENTROID" => {
            let c = sdo_geom::algorithms::centroid(geom_arg(0)?);
            Ok(Value::geometry(Geometry::Point(c)))
        }
        "SDO_MBR" => {
            let bb = geom_arg(0)?.bbox();
            Ok(Value::geometry(Geometry::Polygon(sdo_geom::Polygon::from_rect(&bb))))
        }
        "SDO_WKT" => Ok(Value::text(sdo_geom::wkt::to_wkt(geom_arg(0)?))),
        "SDO_LENGTH" => Ok(Value::Double(geom_arg(0)?.length())),
        // SDO_GEOM.VALIDATE_GEOMETRY equivalent: 'TRUE' or the error text.
        "SDO_VALIDATE" => Ok(match sdo_geom::validate::validate(geom_arg(0)?) {
            Ok(()) => Value::text("TRUE"),
            Err(e) => Value::text(e.to_string()),
        }),
        other => Err(DbError::Plan(format!("unknown function {other}"))),
    }
}

pub(crate) fn resolve_column_meta(
    metas: &[RelMeta],
    cr: &ColumnRef,
) -> Result<(usize, usize), DbError> {
    let col = cr.column.to_ascii_uppercase();
    if let Some(q) = &cr.qualifier {
        let q = q.to_ascii_uppercase();
        let (ri, rel) = metas
            .iter()
            .enumerate()
            .find(|(_, r)| r.binding == q)
            .ok_or_else(|| DbError::Plan(format!("unknown binding {q}")))?;
        if cr.is_rowid() {
            return Ok((ri, usize::MAX));
        }
        let ci = rel
            .columns
            .iter()
            .position(|c| *c == col)
            .ok_or_else(|| DbError::Plan(format!("no column {col} in {q}")))?;
        return Ok((ri, ci));
    }
    if cr.is_rowid() && metas.len() == 1 {
        return Ok((0, usize::MAX));
    }
    let mut hit = None;
    for (ri, rel) in metas.iter().enumerate() {
        if let Some(ci) = rel.columns.iter().position(|c| *c == col) {
            if hit.is_some() {
                return Err(DbError::Plan(format!("ambiguous column {col}")));
            }
            hit = Some((ri, ci));
        }
    }
    hit.ok_or_else(|| DbError::Plan(format!("unknown column {col}")))
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// What a compiled expression reads: a column of one relation of the
/// row under evaluation, or that relation's rowid. A joined row answers
/// for every relation; a heap row read in place ([`HeapRow`]) for its
/// own.
pub(crate) trait Columns {
    fn column(&self, rel: usize, col: usize) -> Option<&Value>;
    fn rowid(&self, rel: usize) -> Option<RowId>;
}

impl Columns for [RelRow] {
    fn column(&self, rel: usize, col: usize) -> Option<&Value> {
        self.get(rel)?.values.get(col)
    }

    fn rowid(&self, rel: usize) -> Option<RowId> {
        self.get(rel)?.rid
    }
}

/// One base-table row version borrowed from the heap, bound as
/// relation `rel` of the statement.
pub(crate) struct HeapRow<'r> {
    pub(crate) rel: usize,
    pub(crate) rid: RowId,
    pub(crate) values: &'r [Value],
}

impl Columns for HeapRow<'_> {
    fn column(&self, rel: usize, col: usize) -> Option<&Value> {
        if rel == self.rel {
            self.values.get(col)
        } else {
            None
        }
    }

    fn rowid(&self, rel: usize) -> Option<RowId> {
        (rel == self.rel).then_some(self.rid)
    }
}

/// A scalar expression with its column references resolved to
/// `(relation, column)` once per statement, so evaluating it per row
/// looks nothing up by name and copies no column it only compares.
#[derive(Debug, Clone)]
pub(crate) enum Scalar {
    Literal(Value),
    Column(usize, usize),
    RowId(usize),
    Fn(String, Vec<Scalar>),
}

impl Scalar {
    pub(crate) fn compile(metas: &[RelMeta], e: &Expr) -> Result<Scalar, DbError> {
        Ok(match e {
            Expr::Literal(v) => Scalar::Literal(v.clone()),
            Expr::Column(cr) => match resolve_column_meta(metas, cr)? {
                (ri, usize::MAX) => Scalar::RowId(ri),
                (ri, ci) => Scalar::Column(ri, ci),
            },
            Expr::FnCall { name, args } => Scalar::Fn(
                name.clone(),
                args.iter().map(|a| Scalar::compile(metas, a)).collect::<Result<_, _>>()?,
            ),
            Expr::Param(ordinal) => return Err(unbound_param(*ordinal)),
        })
    }

    /// True when evaluation calls no function: a column, rowid or
    /// literal, cheap enough to test under a table lock.
    fn is_plain(&self) -> bool {
        !matches!(self, Scalar::Fn(..))
    }

    /// The value of a column present in `row`, or of a literal, as a
    /// plain borrow; `None` for anything [`Scalar::eval`] must build.
    #[inline]
    fn borrowed<'r, R: Columns + ?Sized>(&'r self, row: &'r R) -> Option<&'r Value> {
        match self {
            Scalar::Literal(v) => Some(v),
            Scalar::Column(ri, ci) => row.column(*ri, *ci),
            _ => None,
        }
    }

    /// The expression's value for `row`, borrowed from the row (or the
    /// literal) when it is a column or a constant.
    pub(crate) fn eval<'r, R: Columns + ?Sized>(
        &'r self,
        row: &'r R,
    ) -> Result<Cow<'r, Value>, DbError> {
        match self {
            Scalar::Literal(v) => Ok(Cow::Borrowed(v)),
            Scalar::Column(ri, ci) => row
                .column(*ri, *ci)
                .map(Cow::Borrowed)
                .ok_or_else(|| DbError::Plan(format!("column {ci} of relation {ri} out of range"))),
            Scalar::RowId(ri) => row
                .rowid(*ri)
                .map(|r| Cow::Owned(Value::RowId(r)))
                .ok_or_else(|| DbError::Plan("relation has no rowids".into())),
            Scalar::Fn(name, args) => {
                let vals =
                    args.iter()
                        .map(|a| a.eval(row).map(Cow::into_owned))
                        .collect::<Result<Vec<_>, _>>()?;
                apply_scalar_fn(name, &vals).map(Cow::Owned)
            }
        }
    }
}

fn unbound_param(ordinal: usize) -> DbError {
    DbError::Plan(format!(
        "unbound parameter ?{} — run via PREPARE/EXECUTE with bind values",
        ordinal + 1
    ))
}

/// A WHERE conjunct compiled like [`Scalar`].
pub(crate) enum Cond {
    /// `left <op> right` under SQL's NULL rule: a NULL operand fails.
    Compare { left: Scalar, op: CmpOp, right: Scalar },
    /// `OP(a, b, …) <op> want`: a spatial operator's exact test
    /// compared with `'TRUE'`/`'FALSE'` (a residual after a join, or
    /// an operator the index path does not take).
    Spatial { pred: ExactPredicate, a: Scalar, b: Scalar, op: CmpOp, want: Scalar },
}

impl Cond {
    pub(crate) fn compile(metas: &[RelMeta], p: &Predicate) -> Result<Cond, DbError> {
        let Predicate::Compare { left, op, right } = p else {
            return Err(DbError::Plan(
                "rowid-pair IN must be the driving predicate of a two-table select".into(),
            ));
        };
        if let Expr::FnCall { name, args } = left {
            if let [a, b, args @ ..] = args.as_slice() {
                if let Some(spatial) = SpatialOp::compile(name, args)? {
                    return Ok(Cond::Spatial {
                        pred: spatial.into_exact()?,
                        a: Scalar::compile(metas, a)?,
                        b: Scalar::compile(metas, b)?,
                        op: *op,
                        want: Scalar::compile(metas, right)?,
                    });
                }
            }
        }
        Ok(Cond::Compare {
            left: Scalar::compile(metas, left)?,
            op: *op,
            right: Scalar::compile(metas, right)?,
        })
    }

    /// True when the conjunct calls no function (see
    /// [`Scalar::is_plain`]).
    pub(crate) fn is_plain(&self) -> bool {
        matches!(self, Cond::Compare { left, right, .. } if left.is_plain() && right.is_plain())
    }

    pub(crate) fn eval<R: Columns + ?Sized>(&self, row: &R) -> Result<bool, DbError> {
        match self {
            Cond::Compare { left, op, right } => {
                // The common shape — column against literal — compares
                // the borrowed values with nothing built per row.
                let (l, r) = match (left.borrowed(row), right.borrowed(row)) {
                    (Some(l), Some(r)) => (Cow::Borrowed(l), Cow::Borrowed(r)),
                    _ => (left.eval(row)?, right.eval(row)?),
                };
                Ok(!l.is_null() && !r.is_null() && op.eval(l.sql_cmp(&r)))
            }
            Cond::Spatial { pred, a, b, op, want } => {
                let (a, b) = (a.eval(row)?, b.eval(row)?);
                if a.is_null() || b.is_null() {
                    return Ok(false);
                }
                let (Some(ga), Some(gb)) = (a.as_geometry(), b.as_geometry()) else {
                    return Err(DbError::Plan(format!("{} needs two geometries", pred.operator())));
                };
                let result = pred.test(ga, gb);
                Ok(match want.eval(row)?.as_text() {
                    Some("TRUE") => result == (*op == CmpOp::Eq),
                    Some("FALSE") => result != (*op == CmpOp::Eq),
                    _ => false,
                })
            }
        }
    }
}

/// An ORDER BY key compiled like [`Scalar`].
pub(crate) struct SortKey {
    expr: Scalar,
    descending: bool,
}

impl SortKey {
    pub(crate) fn compile_all(
        metas: &[RelMeta],
        keys: &[OrderKey],
    ) -> Result<Vec<SortKey>, DbError> {
        keys.iter()
            .map(|k| {
                Ok(SortKey { expr: Scalar::compile(metas, &k.expr)?, descending: k.descending })
            })
            .collect()
    }
}

/// The ORDER BY key values of one joined row.
pub(crate) fn sort_values(keys: &[SortKey], jr: &[RelRow]) -> Result<Vec<Value>, DbError> {
    keys.iter().map(|k| k.expr.eval(jr).map(Cow::into_owned)).collect()
}

/// Compare two rows' key values in ORDER BY order (per-key direction).
/// A NULL key sorts after every value, as in Oracle (last ascending,
/// first descending), so that the kNN pushdown, which ranks the rows
/// that have a geometry, agrees with a full sort.
pub(crate) fn cmp_sort_values(keys: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for (i, key) in keys.iter().enumerate() {
        let ord = match (a[i].is_null(), b[i].is_null()) {
            (false, false) => a[i].sql_cmp(&b[i]),
            nulls => nulls.0.cmp(&nulls.1),
        };
        let ord = if key.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

/// Resolve the output column names of a projection, validating the
/// select list (`*` and `COUNT(*)` cannot mix with other items).
pub(crate) fn projection_columns(
    metas: &[RelMeta],
    items: &[SelectItem],
) -> Result<Vec<String>, DbError> {
    if items.len() == 1 && items[0] == SelectItem::CountStar {
        return Ok(vec!["COUNT(*)".into()]);
    }
    if items.len() == 1 && items[0] == SelectItem::Star {
        let qualify = metas.len() > 1;
        let mut columns = Vec::new();
        for m in metas {
            for c in &m.columns {
                columns.push(if qualify { format!("{}.{}", m.binding, c) } else { c.clone() });
            }
        }
        return Ok(columns);
    }
    let mut columns = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::CountStar => columns.push("COUNT(*)".to_string()),
            SelectItem::Star => {
                return Err(DbError::Plan("'*' cannot mix with other select items".into()))
            }
            SelectItem::Expr { expr, alias } => columns.push(match alias {
                Some(a) => a.clone(),
                None => match expr {
                    Expr::Column(cr) => cr.column.to_ascii_uppercase(),
                    _ => format!("COL{}", columns.len() + 1),
                },
            }),
        }
    }
    if items.contains(&SelectItem::CountStar) {
        return Err(DbError::Plan("COUNT(*) cannot mix with other select items".into()));
    }
    Ok(columns)
}

/// A (pre-validated) select list compiled like [`Scalar`].
pub(crate) enum Projection {
    /// `*`: every column of every relation.
    Star,
    /// `COUNT(*)`: aggregation, not projection — callers handle it.
    CountStar,
    Exprs(Vec<Scalar>),
}

impl Projection {
    pub(crate) fn compile(metas: &[RelMeta], items: &[SelectItem]) -> Result<Self, DbError> {
        match items {
            [SelectItem::Star] => Ok(Projection::Star),
            [SelectItem::CountStar] => Ok(Projection::CountStar),
            _ => items
                .iter()
                .map(|item| match item {
                    SelectItem::Expr { expr, .. } => Scalar::compile(metas, expr),
                    _ => Err(DbError::Plan("COUNT(*) cannot be projected per row".into())),
                })
                .collect::<Result<_, _>>()
                .map(Projection::Exprs),
        }
    }

    /// Project one joined row.
    pub(crate) fn row(&self, jr: &[RelRow]) -> Result<Row, DbError> {
        match self {
            Projection::Star => Ok(jr.iter().flat_map(|r| r.values.iter().cloned()).collect()),
            Projection::CountStar => {
                Err(DbError::Plan("COUNT(*) cannot be projected per row".into()))
            }
            Projection::Exprs(exprs) => {
                exprs.iter().map(|e| e.eval(jr).map(Cow::into_owned)).collect()
            }
        }
    }
}
