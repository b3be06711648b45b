//! Statement execution.
//!
//! * Statement dispatch: DDL, DML, transaction control, `ALTER SESSION`,
//!   `PREPARE`/`EXECUTE`, `ANALYZE` and `EXPLAIN [ANALYZE]`, each under
//!   a profile session.
//! * SELECT entry: the pipelined `COUNT(*) FROM TABLE(...)` fast path,
//!   else the streaming operator pipeline (`operators`), whose
//!   join and access-path strategies the cost-based planner
//!   (`planner`) chooses. DELETE and UPDATE find their rows
//!   through the same scan + filter operators.
//! * Expression evaluation shared by the planner and the operators:
//!   constants, scalar `SDO_*` functions, the exact form of spatial
//!   operators, predicates, column resolution and projection.

use crate::db::{Database, QueryResult, TfArg};
use crate::error::DbError;
use crate::operators::{self, ExecCtx};
use crate::session::SessionState;
use crate::sql::ast::*;
use parking_lot::RwLock;
use sdo_geom::{Geometry, RelateMask};
use sdo_obs::ProfileSession;
use sdo_storage::{ColumnDef, CountersSnapshot, RowId, Schema, Table, Value};
use sdo_tablefunc::Row;
use std::sync::Arc;
use std::time::Instant;

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
            let matched = operators::collect_matching(&ctx, table, where_clause)?;
            let handle = db.table(table)?;
            let columns: Vec<String> =
                handle.read().schema().columns().iter().map(|c| c.name.clone()).collect();
            // Resolve assignment targets against the table schema.
            let targets: Vec<(usize, &Expr)> = assignments
                .iter()
                .map(|(col, e)| {
                    columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(col))
                        .map(|i| (i, e))
                        .ok_or_else(|| DbError::Plan(format!("no column {col} on {table}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let metas = [RelMeta {
                binding: table.to_ascii_uppercase(),
                columns,
                table: Some(handle),
                table_name: Some(table.to_ascii_uppercase()),
            }];
            let mut updates = Vec::with_capacity(matched.len());
            for (rid, values) in matched {
                let joined = vec![RelRow { rid: Some(rid), values }];
                let mut new_row = joined[0].values.clone();
                for (ci, e) in &targets {
                    new_row[*ci] = eval_expr(&metas, &joined, e)?;
                }
                updates.push((rid, new_row));
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

/// Describe the costed plan `run_select` would execute, without
/// executing it: the planner's operator tree with estimated rows, cost,
/// and the reason each path was chosen. `CURSOR(...)` arguments are
/// never evaluated.
fn explain_select(
    db: &Database,
    sess: &crate::session::SessionState,
    sel: &Select,
) -> Result<QueryResult, DbError> {
    let env = crate::planner::PlanEnv::from_options(&sess.options.read());
    let plan = crate::planner::plan_select(db, sel, &env)?;
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
    let res = run_select(&ctx, sel);
    note_peak_resident(&ctx);
    res
}

/// Evaluate table-function arguments: scalars as constants,
/// `CURSOR(SELECT ...)` arguments by running the subquery in the
/// enclosing statement's context, sharing its resident-row gauge.
pub(crate) fn eval_tf_args(ctx: &ExecCtx<'_>, args: &[TfArgAst]) -> Result<Vec<TfArg>, DbError> {
    args.iter()
        .map(|a| match a {
            TfArgAst::Expr(e) => Ok(TfArg::Scalar(eval_const(e)?)),
            TfArgAst::Cursor(sub) => Ok(TfArg::Cursor(run_select(ctx, sub)?.rows)),
        })
        .collect()
}

pub(crate) fn run_select(ctx: &ExecCtx<'_>, sel: &Select) -> Result<QueryResult, DbError> {
    let db = ctx.db;
    // Pipelined aggregation fast path: `SELECT COUNT(*) FROM TABLE(f(...))`
    // with no other clauses streams batches through the table function
    // without ever materializing the result — the memory property the
    // paper's pipelining provides. Without this, counting a 250K-star
    // self-join (tens of millions of rowid pairs) would materialize
    // gigabytes for a single scalar.
    if sel.projection == [SelectItem::CountStar]
        && sel.where_clause.is_empty()
        && sel.order_by.is_empty()
        && sel.limit.is_none()
        && sel.from.len() == 1
    {
        if let FromItem::TableFunction { name, args, .. } = &sel.from[0] {
            let mut inst = db.make_table_function(name, ctx.snap, eval_tf_args(ctx, args)?)?;
            let op = sdo_obs::current().map(|c| c.child(format!("PIPELINED COUNT TABLE({name})")));
            let before = op.as_ref().map(|_| db.counters().snapshot());
            let t0 = op.as_ref().map(|_| Instant::now());
            if let Some(node) = &op {
                inst.func.attach_profile(node);
            }
            if let Err(e) = inst.func.start() {
                // Release any resources start() acquired before
                // failing (a parallel executor may have launched some
                // slaves already).
                inst.func.close();
                return Err(e.into());
            }
            let mut resident = ctx.resident(format!("PIPELINED COUNT TABLE({name})"));
            let mut n: i64 = 0;
            loop {
                let batch = match inst.func.fetch(8192) {
                    Ok(b) => b,
                    Err(e) => {
                        inst.func.close();
                        return Err(e.into());
                    }
                };
                if batch.is_empty() {
                    break;
                }
                // Only the batch in flight is ever resident.
                resident.set(batch.len() as u64)?;
                n += batch.len() as i64;
                if let Some(node) = &op {
                    node.add_batches(1);
                    node.add_rows(batch.len() as u64);
                }
            }
            inst.func.close();
            if let (Some(node), Some(t0), Some(b)) = (&op, t0, &before) {
                node.add_wall(t0.elapsed());
                node.add_metric_deltas(&db.counters().diff(b).pairs());
            }
            return Ok(QueryResult {
                columns: vec!["COUNT(*)".into()],
                rows: vec![vec![Value::Integer(n)]],
            });
        }
    }

    operators::run_select_streaming(ctx, sel)
}

// ---------------------------------------------------------------------------
// Spatial predicate classification
// ---------------------------------------------------------------------------

pub(crate) struct SpatialPred {
    /// Operator name, uppercased.
    pub(crate) name: String,
    /// `(relation index, column index)` of the target geometry column.
    pub(crate) target: (usize, usize),
    /// Second argument: another column (join) or a constant geometry.
    pub(crate) other: SpatialOperand,
    /// Remaining evaluated arguments (mask / distance).
    pub(crate) extra: Vec<Value>,
}

pub(crate) enum SpatialOperand {
    Column(usize, usize),
    Const(Arc<Geometry>),
}

impl SpatialPred {
    pub(crate) fn is_join(&self) -> bool {
        matches!(self.other, SpatialOperand::Column(..))
    }
}

pub(crate) fn classify_spatial(
    metas: &[RelMeta],
    name: &str,
    args: &[Expr],
) -> Result<SpatialPred, DbError> {
    if args.len() < 2 {
        return Err(DbError::Plan(format!("{name} needs at least 2 arguments")));
    }
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
            SpatialOperand::Const(g)
        }
    };
    let extra = args[2..].iter().map(eval_const).collect::<Result<Vec<_>, _>>()?;
    Ok(SpatialPred { name: name.to_ascii_uppercase(), target, other, extra })
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
        Expr::Param(ordinal) => Err(DbError::Plan(format!(
            "unbound parameter ?{} — run via PREPARE/EXECUTE with bind values",
            ordinal + 1
        ))),
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

/// The operators [`eval_spatial_fn`] evaluates; every other `SDO_*`
/// call is a scalar function.
const SPATIAL_OPERATORS: [&str; 4] = ["SDO_RELATE", "SDO_WITHIN_DISTANCE", "SDO_FILTER", "SDO_NN"];

/// Evaluate the exact (functional) form of a spatial operator.
pub fn eval_spatial_fn(
    name: &str,
    a: &Geometry,
    b: &Geometry,
    extra: &[Value],
) -> Result<bool, DbError> {
    match name.to_ascii_uppercase().as_str() {
        "SDO_RELATE" => {
            let mask = extra.first().and_then(|v| v.as_text()).unwrap_or("ANYINTERACT");
            let masks = RelateMask::parse_list(mask)?;
            Ok(sdo_geom::relate::relate_any(a, b, &masks))
        }
        "SDO_WITHIN_DISTANCE" => {
            let d = parse_distance(extra)?;
            Ok(sdo_geom::within_distance(a, b, d))
        }
        "SDO_FILTER" => Ok(a.bbox().intersects(&b.bbox())),
        "SDO_NN" => Err(DbError::Plan(
            "SDO_NN ranks rows and cannot be evaluated pairwise; \
             use it as a single-table predicate"
                .into(),
        )),
        other => Err(DbError::Plan(format!("unknown spatial operator {other}"))),
    }
}

/// Transpose operator arguments for a swapped-operand index probe:
/// `SDO_RELATE` masks transpose (INSIDE ⇄ CONTAINS, COVERS ⇄
/// COVEREDBY); distance and filter predicates are symmetric.
pub(crate) fn transpose_spatial_extra(name: &str, extra: &[Value]) -> Result<Vec<Value>, DbError> {
    if !name.eq_ignore_ascii_case("SDO_RELATE") {
        return Ok(extra.to_vec());
    }
    let mask = extra.first().and_then(|v| v.as_text()).unwrap_or("ANYINTERACT");
    let masks = RelateMask::parse_list(mask)?;
    let transposed = masks
        .iter()
        .map(|m| format!("{:?}", m.transpose()).to_ascii_uppercase())
        .collect::<Vec<_>>()
        .join("+");
    let mut out = vec![Value::text(transposed)];
    out.extend(extra.iter().skip(1).cloned());
    Ok(out)
}

/// Accept both `SDO_WITHIN_DISTANCE(a, b, 0.5)` and Oracle's
/// `SDO_WITHIN_DISTANCE(a, b, 'distance=0.5')`.
pub fn parse_distance(extra: &[Value]) -> Result<f64, DbError> {
    let v = extra
        .first()
        .ok_or_else(|| DbError::Plan("SDO_WITHIN_DISTANCE needs a distance".into()))?;
    if let Some(d) = v.as_double() {
        return Ok(d);
    }
    if let Some(s) = v.as_text() {
        let params = crate::extensible::parse_params(s);
        if let Some(d) = crate::extensible::param(&params, "distance") {
            return d.parse().map_err(|_| DbError::Plan(format!("bad distance '{d}'")));
        }
    }
    Err(DbError::Plan("SDO_WITHIN_DISTANCE needs a numeric distance".into()))
}

/// Parse `SDO_NN`'s result-count argument: a bare integer or Oracle's
/// `'sdo_num_res=k'` parameter string (default 1).
pub fn parse_num_res(extra: &[Value]) -> Result<usize, DbError> {
    let Some(v) = extra.first() else { return Ok(1) };
    let k = if let Some(k) = v.as_integer() {
        k
    } else if let Some(k) = v.as_text().and_then(|s| {
        crate::extensible::param(&crate::extensible::parse_params(s), "sdo_num_res")
            .map(str::to_string)
    }) {
        k.parse::<i64>().map_err(|_| DbError::Index(format!("bad sdo_num_res '{k}'")))?
    } else {
        return Err(DbError::Index("SDO_NN needs a result count (k or 'sdo_num_res=k')".into()));
    };
    if k < 1 {
        return Err(DbError::Index("SDO_NN result count must be >= 1".into()));
    }
    Ok(k as usize)
}

pub(crate) fn eval_expr(metas: &[RelMeta], joined: &[RelRow], e: &Expr) -> Result<Value, DbError> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::FnCall { name, args } => {
            let vals =
                args.iter().map(|a| eval_expr(metas, joined, a)).collect::<Result<Vec<_>, _>>()?;
            apply_scalar_fn(name, &vals)
        }
        Expr::Column(cr) => {
            let (ri, ci) = resolve_column_meta(metas, cr)?;
            if ci == usize::MAX {
                return joined[ri]
                    .rid
                    .map(Value::RowId)
                    .ok_or_else(|| DbError::Plan("relation has no rowids".into()));
            }
            joined[ri]
                .values
                .get(ci)
                .cloned()
                .ok_or_else(|| DbError::Plan(format!("column {} out of range", cr.column)))
        }
        Expr::Param(ordinal) => Err(DbError::Plan(format!(
            "unbound parameter ?{} — run via PREPARE/EXECUTE with bind values",
            ordinal + 1
        ))),
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

pub(crate) fn eval_predicate(
    metas: &[RelMeta],
    joined: &[RelRow],
    p: &Predicate,
) -> Result<bool, DbError> {
    match p {
        Predicate::Compare { left, op, right } => {
            // Spatial operators compared to 'TRUE' evaluate functionally
            // here (used as residuals after a join).
            if let Expr::FnCall { name, args } = left {
                if SPATIAL_OPERATORS.iter().any(|o| o.eq_ignore_ascii_case(name)) && args.len() >= 2
                {
                    let a = eval_expr(metas, joined, &args[0])?;
                    let b = eval_expr(metas, joined, &args[1])?;
                    if let (Some(ga), Some(gb)) = (a.as_geometry(), b.as_geometry()) {
                        let extra =
                            args[2..].iter().map(eval_const).collect::<Result<Vec<_>, _>>()?;
                        let result = eval_spatial_fn(name, ga, gb, &extra)?;
                        let want = eval_expr(metas, joined, right)?;
                        return Ok(match want.as_text() {
                            Some("TRUE") => result == (*op == CmpOp::Eq),
                            Some("FALSE") => result != (*op == CmpOp::Eq),
                            _ => false,
                        });
                    }
                }
            }
            let l = eval_expr(metas, joined, left)?;
            let r = eval_expr(metas, joined, right)?;
            if l.is_null() || r.is_null() {
                return Ok(false);
            }
            Ok(op.eval(l.sql_cmp(&r)))
        }
        Predicate::RowidPairIn { .. } => Err(DbError::Plan(
            "rowid-pair IN must be the driving predicate of a two-table select".into(),
        )),
    }
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

/// Project one joined row through a (pre-validated) select list.
/// `COUNT(*)` is aggregation, not projection — callers handle it.
pub(crate) fn project_row(
    metas: &[RelMeta],
    jr: &[RelRow],
    items: &[SelectItem],
) -> Result<Row, DbError> {
    if items.len() == 1 && items[0] == SelectItem::Star {
        return Ok(jr.iter().flat_map(|r| r.values.iter().cloned()).collect());
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(DbError::Plan("COUNT(*) cannot be projected per row".into()));
        };
        out.push(eval_expr(metas, jr, expr)?);
    }
    Ok(out)
}
