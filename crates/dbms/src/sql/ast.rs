//! Abstract syntax for the mini SQL dialect.

use sdo_storage::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// `(column name, type)` pairs in declaration order.
        columns: Vec<(String, DataType)>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Single-row `INSERT INTO t VALUES (...)`.
    Insert {
        /// Target table.
        table: String,
        /// One expression per column, in schema order.
        values: Vec<Expr>,
    },
    /// `DELETE FROM t WHERE <conjuncts>` (predicates optional).
    Delete {
        /// Target table.
        table: String,
        /// AND-ed row filter; empty deletes every row.
        where_clause: Vec<Predicate>,
    },
    /// `UPDATE t SET col = expr [, ...] WHERE <conjuncts>`.
    Update {
        /// Target table.
        table: String,
        /// `(column, new value expression)` pairs.
        assignments: Vec<(String, Expr)>,
        /// AND-ed row filter; empty updates every row.
        where_clause: Vec<Predicate>,
    },
    /// `CREATE INDEX name ON t(col) INDEXTYPE IS type
    ///  [PARAMETERS('...')] [PARALLEL n]`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
        /// Registered indextype name (e.g. `SPATIAL_INDEX`).
        indextype: String,
        /// Raw `PARAMETERS` string (empty when omitted).
        parameters: String,
        /// Requested creation degree of parallelism (1 when omitted).
        parallel: usize,
    },
    /// `DROP INDEX name`.
    DropIndex {
        /// Index name.
        name: String,
    },
    /// A `SELECT` query.
    Select(Select),
    /// `EXPLAIN SELECT ...` — describe the chosen strategy instead of
    /// executing the query.
    Explain(Select),
    /// `EXPLAIN ANALYZE <statement>` — execute the statement with a
    /// profile session attached and return the per-operator profile
    /// tree (rows, batches, wall time, work-counter deltas) instead of
    /// the statement's own result.
    ExplainAnalyze(Box<Statement>),
    /// `BEGIN [TRANSACTION | WORK]` — open an explicit transaction on
    /// the session. DML until `COMMIT`/`ROLLBACK` shares one snapshot
    /// and becomes visible atomically.
    Begin,
    /// `COMMIT [WORK]` — durably commit the session's open transaction.
    Commit,
    /// `ROLLBACK [WORK]` — abort the session's open transaction.
    Rollback,
    /// `ALTER SESSION SET name = value` — set a session option
    /// (`max_resident_rows`, `durability`, `parallel_dop`).
    AlterSession {
        /// Option name (case-insensitive).
        name: String,
        /// Raw option value (identifier, number, or string literal).
        value: String,
    },
    /// `PREPARE name AS <statement>` — parse once, cache under `name`
    /// on the session. The statement may contain `?` placeholders,
    /// bound positionally at `EXECUTE` time.
    Prepare {
        /// Statement name (case-insensitive, session-scoped).
        name: String,
        /// The prepared statement body.
        stmt: Box<Statement>,
    },
    /// `EXECUTE name [(expr, ...)]` — run a prepared statement with
    /// the given bind-parameter values.
    ExecutePrepared {
        /// Prepared-statement name.
        name: String,
        /// Constant bind values, one per `?` placeholder.
        args: Vec<Expr>,
    },
    /// `DEALLOCATE [PREPARE] name` — drop a prepared statement.
    Deallocate {
        /// Prepared-statement name.
        name: String,
    },
    /// `ANALYZE [TABLE] name` — sample the table, build per-column
    /// NDV/min-max statistics plus spatial histograms, and persist
    /// them (WAL + snapshot) for the cost-based planner.
    Analyze {
        /// Table to analyze.
        table: String,
    },
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// The select list.
    pub projection: Vec<SelectItem>,
    /// FROM items, in order (tables and `TABLE(...)` scans).
    pub from: Vec<FromItem>,
    /// AND-ed conjuncts.
    pub where_clause: Vec<Predicate>,
    /// `ORDER BY expr [DESC]` keys, applied before projection.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Key expression, evaluated per joined row.
    pub expr: Expr,
    /// `DESC` when true; `ASC` otherwise.
    pub descending: bool,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `COUNT(*)`
    CountStar,
    /// An expression with an optional alias.
    Expr {
        /// Projected expression.
        expr: Expr,
        /// Output column alias, when given.
        alias: Option<String>,
    },
}

/// One item of a FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// A base table, optionally aliased.
    Table {
        /// Table name.
        name: String,
        /// Binding alias, when given.
        alias: Option<String>,
    },
    /// `TABLE(f(arg, ..., CURSOR(SELECT ...)))`
    TableFunction {
        /// Registered table-function name.
        name: String,
        /// Scalar and cursor arguments, in order.
        args: Vec<TfArgAst>,
        /// Binding alias, when given.
        alias: Option<String>,
    },
}

impl FromItem {
    /// The name this item binds in the query's scope.
    pub fn binding(&self) -> &str {
        match self {
            FromItem::Table { name, alias } => alias.as_deref().unwrap_or(name),
            FromItem::TableFunction { name, alias, .. } => alias.as_deref().unwrap_or(name),
        }
    }
}

/// A table-function argument: scalar expression or nested cursor.
#[derive(Debug, Clone, PartialEq)]
pub enum TfArgAst {
    /// A scalar argument expression.
    Expr(Expr),
    /// A `CURSOR(SELECT ...)` argument, materialized before the call.
    Cursor(Select),
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant value.
    Literal(Value),
    /// A (possibly qualified) column reference.
    Column(ColumnRef),
    /// Function call, e.g. `SDO_GEOMETRY('POINT (1 2)')` or a spatial
    /// operator like `SDO_RELATE(a.geom, b.geom, 'mask=ANYINTERACT')`.
    FnCall {
        /// Function name, uppercased by the lexer.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// A `?` bind-parameter placeholder, numbered left to right from
    /// zero. Only valid inside a prepared statement; executing a
    /// statement with unbound parameters is a plan error.
    Param(usize),
}

/// `qualifier.column` or bare `column`; `column` may be the pseudo
/// column `ROWID`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Binding qualifier (`a` in `a.geom`), when given.
    pub qualifier: Option<String>,
    /// Column name (or the pseudo column `ROWID`).
    pub column: String,
}

impl ColumnRef {
    /// Build a reference from an optional qualifier and a column name.
    pub fn new(qualifier: Option<&str>, column: &str) -> Self {
        ColumnRef { qualifier: qualifier.map(|s| s.to_string()), column: column.to_string() }
    }

    /// True when this references the `ROWID` pseudo column.
    pub fn is_rowid(&self) -> bool {
        self.column.eq_ignore_ascii_case("ROWID")
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are their own documentation
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator as SQL writes it.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Apply the operator to a comparison result.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// One conjunct of a WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `left <op> right`.
    Compare {
        /// Left operand.
        left: Expr,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Expr,
    },
    /// `(a.ROWID, b.ROWID) IN (SELECT ... FROM TABLE(...))` — the
    /// rowid-pair semijoin the paper uses to connect a spatial-join
    /// table function back to the base tables.
    RowidPairIn {
        /// Rowid reference into the first table.
        left: ColumnRef,
        /// Rowid reference into the second table.
        right: ColumnRef,
        /// The pair-producing subquery (typically a `TABLE(...)` scan).
        subquery: Select,
    },
}
