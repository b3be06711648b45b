//! The pipelined `start` / `fetch` / `close` interface.

use crate::row::Row;
use crate::TfError;

/// A pipelined table function.
///
/// Mirrors the paper's §2 interface: "perform the function (or part of
/// it) in the start routine, iteratively return the result rows in the
/// fetch routine and release memory resources in the close routine."
///
/// Contract:
/// * `start` runs once before the first `fetch`,
/// * `fetch(max)` returns between 1 and `max` rows while results
///   remain; an **empty** batch signals exhaustion,
/// * `close` runs once after the last `fetch` (or on early abandonment)
///   and must be idempotent.
pub trait TableFunction: Send {
    /// Run setup once before the first fetch.
    fn start(&mut self) -> Result<(), TfError>;
    /// Produce up to `max_rows` more rows; empty means exhausted.
    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError>;
    /// Release resources; idempotent, also called on early abandonment.
    fn close(&mut self);
    /// Attach a profile node for `EXPLAIN ANALYZE`-style instrumentation.
    ///
    /// Called before `start` when a [`sdo_obs::ProfileSession`] is
    /// active. Implementations that want to report per-operator detail
    /// (e.g. per-slave rows for a parallel executor) keep the node and
    /// record into it or its children; the default ignores it, which is
    /// always safe — callers still time the fetches from outside.
    fn attach_profile(&mut self, _node: &sdo_obs::ProfileNode) {}
}

/// Drive a table function to completion, collecting every row.
///
/// `fetch_size` bounds each fetch call, exactly like the array-fetch
/// size of a SQL cursor.
///
/// ```
/// use sdo_tablefunc::table_function::{collect_all, BufferedFn};
/// use sdo_storage::Value;
///
/// let mut f = BufferedFn::new(|| {
///     Ok((0..10).map(|i| vec![Value::Integer(i)]).collect())
/// });
/// let rows = collect_all(&mut f, 3).unwrap(); // fetched in batches of 3
/// assert_eq!(rows.len(), 10);
/// ```
pub fn collect_all(f: &mut dyn TableFunction, fetch_size: usize) -> Result<Vec<Row>, TfError> {
    f.start()?;
    let mut out = Vec::new();
    loop {
        let batch = match f.fetch(fetch_size) {
            Ok(b) => b,
            Err(e) => {
                f.close();
                return Err(e);
            }
        };
        if batch.is_empty() {
            break;
        }
        out.extend(batch);
    }
    f.close();
    Ok(out)
}

/// A table function defined by a closure producing all rows at `start`
/// and pipelining them out of an internal buffer. Useful for tests and
/// for small metadata-producing functions (e.g. `subtree_root`).
pub struct BufferedFn<G> {
    generate: Option<G>,
    buf: Vec<Row>,
    pos: usize,
    started: bool,
}

impl<G: FnOnce() -> Result<Vec<Row>, TfError> + Send> BufferedFn<G> {
    /// A function whose rows come from running `generate` at `start`.
    pub fn new(generate: G) -> Self {
        BufferedFn { generate: Some(generate), buf: Vec::new(), pos: 0, started: false }
    }
}

impl<G: FnOnce() -> Result<Vec<Row>, TfError> + Send> TableFunction for BufferedFn<G> {
    fn start(&mut self) -> Result<(), TfError> {
        let generate = self.generate.take().ok_or(TfError::Protocol("start called twice"))?;
        self.buf = generate()?;
        self.pos = 0;
        self.started = true;
        Ok(())
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        if !self.started {
            return Err(TfError::Protocol("fetch before start"));
        }
        let end = (self.pos + max_rows).min(self.buf.len());
        let batch = self.buf[self.pos..end].to_vec();
        self.pos = end;
        Ok(batch)
    }

    fn close(&mut self) {
        self.buf = Vec::new();
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_storage::Value;

    fn ints(n: i64) -> BufferedFn<impl FnOnce() -> Result<Vec<Row>, TfError> + Send> {
        BufferedFn::new(move || Ok((0..n).map(|i| vec![Value::Integer(i)]).collect()))
    }

    #[test]
    fn collect_all_respects_fetch_size() {
        let mut f = ints(10);
        let rows = collect_all(&mut f, 3).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[9][0].as_integer(), Some(9));
    }

    #[test]
    fn fetch_before_start_is_protocol_error() {
        let mut f = ints(1);
        assert!(matches!(f.fetch(10), Err(TfError::Protocol(_))));
    }

    #[test]
    fn error_from_start_is_surfaced_once() {
        struct Failing;
        impl TableFunction for Failing {
            fn start(&mut self) -> Result<(), TfError> {
                Err(TfError::Execution("boom".into()))
            }
            fn fetch(&mut self, _max: usize) -> Result<Vec<Row>, TfError> {
                unreachable!()
            }
            fn close(&mut self) {}
        }
        // collect_all returns the start error without ever fetching.
        assert_eq!(collect_all(&mut Failing, 2), Err(TfError::Execution("boom".into())));
    }

    #[test]
    fn empty_function_yields_nothing() {
        let rows = collect_all(&mut ints(0), 8).unwrap();
        assert!(rows.is_empty());
    }
}
