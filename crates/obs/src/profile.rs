//! Structured per-operator query profiles.
//!
//! A profile is a tree of [`ProfileNode`]s, one per operator (scan,
//! join, filter, ...). Executors create a [`ProfileSession`] around a
//! statement; operators discover the active node through a thread
//! local ([`current`]) or have one attached explicitly (parallel
//! table-function slaves get per-slave child nodes and [`enter`] the
//! tree from their own thread).
//!
//! The global [`profiling`] flag is a single relaxed atomic: when no
//! session is active anywhere in the process, instrumented code paths
//! skip all bookkeeping.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
struct NodeInner {
    name: String,
    rows: AtomicU64,
    batches: AtomicU64,
    wall_ns: AtomicU64,
    metrics: Mutex<BTreeMap<String, u64>>,
    attrs: Mutex<BTreeMap<String, String>>,
    children: Mutex<Vec<Arc<NodeInner>>>,
}

/// Handle to one operator's slot in a profile tree. Cloning shares the
/// slot; all mutation is thread-safe.
#[derive(Debug, Clone)]
pub struct ProfileNode(Arc<NodeInner>);

impl ProfileNode {
    /// Append a child operator node and return its handle.
    pub fn child(&self, name: impl Into<String>) -> ProfileNode {
        let node = ProfileNode::detached(name);
        self.adopt(&node);
        node
    }

    /// A node in no tree yet, for an operator that runs before the node
    /// that will hold it exists; [`ProfileNode::adopt`] attaches it.
    pub fn detached(name: impl Into<String>) -> ProfileNode {
        ProfileNode(Arc::new(NodeInner { name: name.into(), ..NodeInner::default() }))
    }

    /// Append `node`, with what it recorded so far, as the last child.
    pub fn adopt(&self, node: &ProfileNode) {
        self.0.children.lock().expect("profile poisoned").push(Arc::clone(&node.0));
    }

    /// Add produced rows.
    pub fn add_rows(&self, n: u64) {
        self.0.rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Add fetched batches.
    pub fn add_batches(&self, n: u64) {
        self.0.batches.fetch_add(n, Ordering::Relaxed);
    }

    /// Add wall time spent in this operator.
    pub fn add_wall(&self, d: Duration) {
        self.0.wall_ns.fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Accumulate a named work metric (counter delta, cache hits, ...).
    pub fn add_metric(&self, name: &str, value: u64) {
        if value == 0 {
            return;
        }
        *self.0.metrics.lock().expect("profile poisoned").entry(name.to_string()).or_insert(0) +=
            value;
    }

    /// Set a named metric to an absolute value, recording it even when
    /// zero. `add_metric` drops zeros because an absent delta carries
    /// no information; for state flushed once at close — a parallel
    /// slave's `tasks_executed`, say — zero IS the information (it
    /// means the slave starved), so it must render.
    pub fn set_metric(&self, name: &str, value: u64) {
        self.0.metrics.lock().expect("profile poisoned").insert(name.to_string(), value);
    }

    /// Record every non-zero `(name, delta)` pair as a metric.
    pub fn add_metric_deltas(&self, deltas: &[(&str, u64)]) {
        for (name, delta) in deltas {
            self.add_metric(name, *delta);
        }
    }

    /// Set a descriptive attribute (strategy name, DOP, ...).
    pub fn set_attr(&self, name: &str, value: impl Into<String>) {
        self.0.attrs.lock().expect("profile poisoned").insert(name.to_string(), value.into());
    }

    /// Immutable deep copy of this subtree.
    pub fn snapshot(&self) -> OpProfile {
        let inner = &self.0;
        OpProfile {
            name: inner.name.clone(),
            rows: inner.rows.load(Ordering::Relaxed),
            batches: inner.batches.load(Ordering::Relaxed),
            wall: Duration::from_nanos(inner.wall_ns.load(Ordering::Relaxed)),
            metrics: inner
                .metrics
                .lock()
                .expect("profile poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            attrs: inner
                .attrs
                .lock()
                .expect("profile poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            children: inner
                .children
                .lock()
                .expect("profile poisoned")
                .iter()
                .map(|c| ProfileNode(Arc::clone(c)).snapshot())
                .collect(),
        }
    }
}

/// Immutable snapshot of one operator's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Operator display name.
    pub name: String,
    /// Rows produced by this operator.
    pub rows: u64,
    /// Batches fetched from this operator.
    pub batches: u64,
    /// Wall time attributed to this operator.
    pub wall: Duration,
    /// Named work metrics (sorted by name).
    pub metrics: Vec<(String, u64)>,
    /// Descriptive attributes (sorted by name).
    pub attrs: Vec<(String, String)>,
    /// Child operators in creation order.
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// Depth-first iteration over this subtree (self first).
    pub fn walk(&self) -> Vec<(usize, &OpProfile)> {
        fn push<'a>(node: &'a OpProfile, depth: usize, out: &mut Vec<(usize, &'a OpProfile)>) {
            out.push((depth, node));
            for c in &node.children {
                push(c, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        push(self, 0, &mut out);
        out
    }

    /// Find the first node (depth-first) whose name contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&OpProfile> {
        self.walk().into_iter().map(|(_, n)| n).find(|n| n.name.contains(needle))
    }

    /// Value of a named metric on this node, if recorded.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Sum of a named metric over this whole subtree — e.g. total
    /// `tasks_stolen` across every parallel slave under an operator.
    pub fn metric_sum(&self, name: &str) -> u64 {
        self.walk().into_iter().filter_map(|(_, n)| n.metric(name)).sum()
    }
}

/// Completed profile for one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Root operator (the statement itself).
    pub root: OpProfile,
}

impl QueryProfile {
    /// Multi-line indented text rendering (one line per operator).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (depth, node) in self.root.walk() {
            let mut line = format!(
                "{:indent$}{} rows={} batches={} wall={:.3}ms",
                "",
                node.name,
                node.rows,
                node.batches,
                node.wall.as_secs_f64() * 1e3,
                indent = depth * 2
            );
            for (k, v) in &node.attrs {
                line.push_str(&format!(" {k}={v}"));
            }
            for (k, v) in &node.metrics {
                line.push_str(&format!(" {k}={v}"));
            }
            line.push('\n');
            out.push_str(&line);
        }
        out
    }
}

/// Count of live [`ProfileSession`]s across all threads.
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Vec<ProfileNode>> = const { RefCell::new(Vec::new()) };
}

/// `true` when any profile session is active in the process. One
/// relaxed load — this is the fast-path gate for all instrumentation.
#[inline]
pub fn profiling() -> bool {
    ACTIVE_SESSIONS.load(Ordering::Relaxed) > 0
}

/// The innermost profile node entered on this thread, if profiling.
#[inline]
pub fn current() -> Option<ProfileNode> {
    if !profiling() {
        return None;
    }
    CURRENT.with(|stack| stack.borrow().last().cloned())
}

/// Make `node` the thread's current profile node until the guard
/// drops. Used by operators scoping their children and by parallel
/// slaves joining a profile from a new thread.
pub fn enter(node: ProfileNode) -> EnterGuard {
    CURRENT.with(|stack| stack.borrow_mut().push(node));
    EnterGuard { _private: () }
}

/// RAII guard returned by [`enter`]; pops the node on drop.
pub struct EnterGuard {
    _private: (),
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Active profile collection for one statement. Creating a session
/// turns the global [`profiling`] flag on and pushes the root node on
/// this thread; [`ProfileSession::finish`] yields the immutable
/// [`QueryProfile`].
pub struct ProfileSession {
    root: ProfileNode,
    guard: Option<EnterGuard>,
}

impl ProfileSession {
    /// Begin profiling with a root operator named `name`.
    pub fn begin(name: impl Into<String>) -> Self {
        ACTIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        let root = ProfileNode::detached(name);
        let guard = enter(root.clone());
        ProfileSession { root, guard: Some(guard) }
    }

    /// The root node, for attaching operator children.
    pub fn root(&self) -> &ProfileNode {
        &self.root
    }

    /// End the session and return the collected profile.
    pub fn finish(mut self) -> QueryProfile {
        self.guard.take();
        QueryProfile { root: self.root.snapshot() }
    }
}

impl Drop for ProfileSession {
    fn drop(&mut self) {
        self.guard.take();
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_gates_profiling() {
        assert!(!profiling() || ACTIVE_SESSIONS.load(Ordering::Relaxed) > 0);
        let session = ProfileSession::begin("q");
        assert!(profiling());
        assert!(current().is_some());
        let profile = session.finish();
        assert_eq!(profile.root.name, "q");
        assert!(current().is_none());
    }

    #[test]
    fn tree_accumulates() {
        let session = ProfileSession::begin("SELECT");
        let scan = current().unwrap().child("SCAN t");
        scan.add_rows(10);
        scan.add_batches(2);
        scan.add_wall(Duration::from_millis(1));
        scan.add_metric("row_fetches", 10);
        scan.add_metric("row_fetches", 5);
        scan.set_attr("dop", "2");
        let profile = session.finish();
        let scan = profile.root.find("SCAN").unwrap();
        assert_eq!((scan.rows, scan.batches), (10, 2));
        assert_eq!(scan.metric("row_fetches"), Some(15));
        assert_eq!(scan.attrs, vec![("dop".to_string(), "2".to_string())]);
        let text = profile.root.walk();
        assert_eq!(text.len(), 2);
        assert!(QueryProfile { root: profile.root.clone() }
            .render_text()
            .contains("SCAN t rows=10"));
    }

    #[test]
    fn cross_thread_children() {
        let session = ProfileSession::begin("parallel");
        let root = session.root().clone();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let slave = root.child(format!("slave {i}"));
                std::thread::spawn(move || {
                    let _g = enter(slave.clone());
                    current().unwrap().add_rows(100);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let profile = session.finish();
        assert_eq!(profile.root.children.len(), 4);
        let total: u64 = profile.root.children.iter().map(|c| c.rows).sum();
        assert_eq!(total, 400);
    }
}
