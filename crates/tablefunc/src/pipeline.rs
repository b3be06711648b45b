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
/// geometries and tessellates these geometries". `TESSELLATE` runs it
/// serially; the parallel index build runs the same tessellation in
/// slaves that pull cursor ranges from a shared
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
}
