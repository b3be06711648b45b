//! Composition helpers: table functions over input cursors.

use crate::row::Row;
use crate::source::RowSource;
use crate::table_function::TableFunction;
use crate::TfError;

/// A table function that consumes an input cursor and emits zero or
/// more rows per input row.
///
/// This is the shape of the paper's tessellation function (§5, Fig. 2):
/// "a table function that takes as input a cursor for fetching the
/// geometries and tessellates these geometries". The parallel path runs
/// the same body in [`crate::scheduler::WorkStealingFn`] slaves that
/// pull chunks of the cursor from a shared
/// [`crate::scheduler::TaskQueue`].
pub struct CursorFn<S, F> {
    input: S,
    f: F,
    out: std::collections::VecDeque<Row>,
    started: bool,
    input_done: bool,
    profile: Option<sdo_obs::ProfileNode>,
}

impl<S, F> CursorFn<S, F>
where
    S: RowSource,
    F: FnMut(Row) -> Result<Vec<Row>, TfError> + Send,
{
    /// Wrap an input cursor with a per-row body.
    pub fn new(input: S, f: F) -> Self {
        CursorFn {
            input,
            f,
            out: std::collections::VecDeque::new(),
            started: false,
            input_done: false,
            profile: None,
        }
    }
}

impl<S, F> TableFunction for CursorFn<S, F>
where
    S: RowSource,
    F: FnMut(Row) -> Result<Vec<Row>, TfError> + Send,
{
    fn start(&mut self) -> Result<(), TfError> {
        if self.started {
            return Err(TfError::Protocol("start called twice"));
        }
        self.started = true;
        Ok(())
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        if !self.started {
            return Err(TfError::Protocol("fetch before start"));
        }
        let fetch_started = self.profile.as_ref().map(|_| std::time::Instant::now());
        while self.out.len() < max_rows && !self.input_done {
            let batch = self.input.next_batch(max_rows.max(16));
            if batch.is_empty() {
                self.input_done = true;
                break;
            }
            for row in batch {
                self.out.extend((self.f)(row)?);
            }
        }
        let n = self.out.len().min(max_rows);
        if let (Some(node), Some(t0)) = (&self.profile, fetch_started) {
            node.add_wall(t0.elapsed());
            if n > 0 {
                node.add_batches(1);
                node.add_rows(n as u64);
            }
        }
        Ok(self.out.drain(..n).collect())
    }

    fn close(&mut self) {
        self.out.clear();
        self.input_done = true;
    }

    fn attach_profile(&mut self, node: &sdo_obs::ProfileNode) {
        // Record into a child so the attached node's own rows/batches
        // stay whatever the *caller* accounts there (executor scans,
        // parallel slave loops) — attaching must never double-count.
        self.profile = Some(node.child("cursor pipeline"));
    }
}

/// Boxed per-row body used by [`FilterFn`].
type BoxedRowFn = Box<dyn FnMut(Row) -> Result<Vec<Row>, TfError> + Send>;

/// A filtering table function: keeps input rows satisfying a predicate.
pub struct FilterFn<S, P> {
    inner: CursorFn<S, BoxedRowFn>,
    _marker: std::marker::PhantomData<P>,
}

impl<S, P> FilterFn<S, P>
where
    S: RowSource,
    P: FnMut(&Row) -> bool + Send + 'static,
{
    /// Wrap an input cursor with a keep-predicate.
    pub fn new(input: S, mut pred: P) -> Self {
        let f: BoxedRowFn = Box::new(move |row| Ok(if pred(&row) { vec![row] } else { vec![] }));
        FilterFn { inner: CursorFn::new(input, f), _marker: std::marker::PhantomData }
    }
}

impl<S, P> TableFunction for FilterFn<S, P>
where
    S: RowSource,
    P: FnMut(&Row) -> bool + Send,
{
    fn start(&mut self) -> Result<(), TfError> {
        self.inner.start()
    }

    fn fetch(&mut self, max_rows: usize) -> Result<Vec<Row>, TfError> {
        self.inner.fetch(max_rows)
    }

    fn close(&mut self) {
        self.inner.close()
    }

    fn attach_profile(&mut self, node: &sdo_obs::ProfileNode) {
        self.inner.attach_profile(node)
    }
}

/// Adapt a running table function into a [`RowSource`], so pipelined
/// stages chain: `cursor -> function -> cursor -> function`.
pub struct FnSource<F: TableFunction> {
    f: F,
    started: bool,
    done: bool,
}

impl<F: TableFunction> FnSource<F> {
    /// Adapt a (not yet started) table function into a cursor.
    pub fn new(f: F) -> Self {
        FnSource { f, started: false, done: false }
    }
}

impl<F: TableFunction> RowSource for FnSource<F> {
    fn next_batch(&mut self, max: usize) -> Vec<Row> {
        if self.done {
            return Vec::new();
        }
        if !self.started {
            self.started = true;
            if self.f.start().is_err() {
                self.done = true;
                return Vec::new();
            }
        }
        match self.f.fetch(max) {
            Ok(batch) if batch.is_empty() => {
                self.done = true;
                self.f.close();
                Vec::new()
            }
            Ok(batch) => batch,
            Err(_) => {
                self.done = true;
                self.f.close();
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use crate::table_function::collect_all;
    use sdo_storage::Value;

    fn ints(n: i64) -> VecSource {
        VecSource::new((0..n).map(|i| vec![Value::Integer(i)]).collect())
    }

    #[test]
    fn cursor_fn_flat_maps() {
        // each input i emits i copies of itself (0 emits nothing)
        let mut f = CursorFn::new(ints(4), |row| {
            let v = row[0].as_integer().unwrap();
            Ok((0..v).map(|_| row.clone()).collect())
        });
        let rows = collect_all(&mut f, 3).unwrap();
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
        assert_eq!(vals, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn cursor_fn_propagates_errors() {
        let mut f = CursorFn::new(ints(10), |row| {
            if row[0].as_integer() == Some(5) {
                Err(TfError::Execution("bad row".into()))
            } else {
                Ok(vec![row])
            }
        });
        f.start().unwrap();
        let mut err = None;
        loop {
            match f.fetch(3) {
                Ok(b) if b.is_empty() => break,
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(TfError::Execution("bad row".into())));
    }

    #[test]
    fn filter_fn_keeps_matches() {
        let mut f = FilterFn::new(ints(10), |r: &Row| r[0].as_integer().unwrap() % 2 == 0);
        let rows = collect_all(&mut f, 4).unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn fn_source_chains_stages() {
        // stage 1: double each value; stage 2: keep values > 5
        let stage1 = CursorFn::new(ints(6), |row| {
            let v = row[0].as_integer().unwrap();
            Ok(vec![vec![Value::Integer(v * 2)]])
        });
        let chained = FnSource::new(stage1);
        let mut stage2 = FilterFn::new(chained, |r: &Row| r[0].as_integer().unwrap() > 5);
        let rows = collect_all(&mut stage2, 2).unwrap();
        let vals: Vec<i64> = rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
        assert_eq!(vals, vec![6, 8, 10]);
    }

    #[test]
    fn parallel_cursor_fn_equals_serial() {
        use crate::parallel::execute_parallel;
        use crate::scheduler::{TaskQueue, WorkStealingFn};
        use std::sync::Arc;

        let square = |r: &Row| {
            let v = r[0].as_integer().unwrap();
            vec![Value::Integer(v * v)]
        };
        let rows: Vec<Row> = (0..200).map(|i| vec![Value::Integer(i)]).collect();
        // serial
        let mut serial = CursorFn::new(VecSource::new(rows.clone()), |r| Ok(vec![square(&r)]));
        let mut expect: Vec<i64> = collect_all(&mut serial, 64)
            .unwrap()
            .iter()
            .map(|r| r[0].as_integer().unwrap())
            .collect();
        expect.sort_unstable();

        // parallel: 4 slaves pull 16-row chunks of the cursor
        let rows = Arc::new(rows);
        let chunks: Vec<(usize, usize)> =
            (0..rows.len()).step_by(16).map(|lo| (lo, (lo + 16).min(rows.len()))).collect();
        let queue = TaskQueue::seed_round_robin(chunks, 4);
        let instances: Vec<Box<dyn TableFunction>> = (0..4)
            .map(|worker| {
                let rows = Arc::clone(&rows);
                Box::new(WorkStealingFn::new(Arc::clone(&queue), worker, move |(lo, hi)| {
                    Ok(rows[lo..hi].iter().map(square).collect())
                })) as Box<dyn TableFunction>
            })
            .collect();
        let mut got: Vec<i64> = execute_parallel(instances, 32)
            .unwrap()
            .iter()
            .map(|r| r[0].as_integer().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, expect);
    }
}
