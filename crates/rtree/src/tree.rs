//! The R-tree structure: dynamic inserts, deletes, and subtree access.

use crate::node::{Entry, Node, NodeId, Payload};
use crate::split::guttman_split;
use crate::DEFAULT_FANOUT;
use sdo_geom::Rect;
use sdo_storage::Counters;
use std::sync::Arc;

/// Cached handle for the global `rtree.node_reads` metric, bumped only
/// while a profile session is active (one relaxed load otherwise).
fn obs_node_reads() -> &'static Arc<sdo_obs::Counter> {
    static HANDLE: std::sync::OnceLock<Arc<sdo_obs::Counter>> = std::sync::OnceLock::new();
    HANDLE.get_or_init(|| sdo_obs::global().counter("rtree.node_reads"))
}

/// Tuning parameters, mirroring the knob Oracle stores in the index
/// metadata row (fanout).
#[derive(Debug, Clone, Copy)]
pub struct RTreeParams {
    /// Maximum entries per node.
    pub max_entries: usize,
    /// Minimum entries per non-root node.
    pub min_entries: usize,
}

impl Default for RTreeParams {
    fn default() -> Self {
        RTreeParams::with_fanout(DEFAULT_FANOUT)
    }
}

impl RTreeParams {
    /// Params with an explicit fanout (min fill = 40%, as the R*-tree
    /// recommends).
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        RTreeParams { max_entries: fanout, min_entries: (fanout * 2 / 5).max(2) }
    }
}

/// A reference to a subtree root, as returned by
/// [`RTree::subtree_roots`] — the unit of work for the paper's parallel
/// join decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubtreeRef {
    /// Subtree root node id.
    pub node: NodeId,
    /// Tight bounding rectangle of the subtree.
    pub mbr: Rect,
    /// The root node's level (0 = leaf).
    pub level: u32,
}

/// A dynamic R-tree over items of type `T`.
///
/// ```
/// use sdo_rtree::{RTree, RTreeParams};
/// use sdo_geom::Rect;
///
/// let mut t = RTree::new(RTreeParams::with_fanout(8));
/// t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), "a");
/// t.insert(Rect::new(5.0, 5.0, 6.0, 6.0), "b");
/// let hits = t.query_window(&Rect::new(0.5, 0.5, 2.0, 2.0));
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].1, "a");
/// ```
#[derive(Clone)]
pub struct RTree<T: Clone> {
    pub(crate) nodes: Vec<Node<T>>,
    free: Vec<NodeId>,
    pub(crate) root: NodeId,
    len: usize,
    params: RTreeParams,
    counters: Option<Arc<Counters>>,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        RTree::new(RTreeParams::default())
    }
}

impl<T: Clone> RTree<T> {
    /// An empty tree with the given parameters.
    pub fn new(params: RTreeParams) -> Self {
        assert!(params.min_entries >= 2, "min_entries must be >= 2");
        assert!(
            params.max_entries >= 2 * params.min_entries,
            "max_entries must be >= 2 * min_entries"
        );
        RTree {
            nodes: vec![Node::new(0)],
            free: Vec::new(),
            root: 0,
            len: 0,
            params,
            counters: None,
        }
    }

    /// Attach shared work counters (node reads charge
    /// `rtree_node_reads`).
    pub fn with_counters(mut self, counters: Arc<Counters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// The tree's tuning parameters.
    #[inline]
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (1 = root is a leaf).
    #[inline]
    pub fn height(&self) -> u32 {
        self.nodes[self.root].level + 1
    }

    /// Bounding rectangle of the whole tree.
    pub fn mbr(&self) -> Rect {
        self.nodes[self.root].mbr()
    }

    /// The current root node id.
    #[inline]
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Borrow a node, charging a logical node read.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node<T> {
        if let Some(c) = &self.counters {
            Counters::bump(&c.rtree_node_reads);
        }
        if sdo_obs::profiling() {
            obs_node_reads().add(1);
        }
        &self.nodes[id]
    }

    /// Charge `n` MBR tests to the attached counters, if any.
    #[inline]
    pub(crate) fn charge_mbr_tests(&self, n: u64) {
        if let Some(c) = &self.counters {
            Counters::add(&c.mbr_tests, n);
        }
    }

    /// True when `id` is a node slot of this tree, so [`RTree::node`]
    /// will not panic on it (checks ids that arrive from outside).
    #[inline]
    pub fn has_node(&self, id: NodeId) -> bool {
        id < self.nodes.len()
    }

    /// Borrow a node without charging I/O (structural traversals).
    #[inline]
    pub(crate) fn node_quiet(&self, id: NodeId) -> &Node<T> {
        &self.nodes[id]
    }

    pub(crate) fn set_len_raw(&mut self, len: usize) {
        self.len = len;
    }

    /// Number of live nodes (allocated minus freed).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// The shared counters attached via [`RTree::with_counters`].
    pub fn counters(&self) -> Option<&Arc<Counters>> {
        self.counters.as_ref()
    }

    pub(crate) fn alloc(&mut self, node: Node<T>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn dealloc(&mut self, id: NodeId) {
        self.nodes[id].entries.clear();
        self.free.push(id);
    }

    // -- insert --------------------------------------------------------------

    /// Insert an item with its bounding rectangle.
    pub fn insert(&mut self, mbr: Rect, item: T) {
        self.insert_entry_at_level(Entry::item(mbr, item), 0);
        self.len += 1;
    }

    /// Insert an entry into some node at `target_level` (0 = leaf),
    /// growing the tree by one level if the root splits.
    pub(crate) fn insert_entry_at_level(&mut self, entry: Entry<T>, target_level: u32) {
        debug_assert!(target_level <= self.nodes[self.root].level);
        if let Some((sib_mbr, sib)) = self.insert_rec(self.root, entry, target_level) {
            let old_root = self.root;
            let old_mbr = self.nodes[old_root].mbr();
            let mut new_root = Node::new(self.nodes[old_root].level + 1);
            new_root.entries.push(Entry::child(old_mbr, old_root));
            new_root.entries.push(Entry::child(sib_mbr, sib));
            self.root = self.alloc(new_root);
        }
    }

    /// Recursive insert; returns the new sibling (MBR + id) when `node`
    /// split, for the parent to link (or to become the new root's
    /// second child).
    fn insert_rec(
        &mut self,
        node: NodeId,
        entry: Entry<T>,
        target_level: u32,
    ) -> Option<(Rect, NodeId)> {
        if self.nodes[node].level == target_level {
            self.nodes[node].entries.push(entry);
            return self.maybe_split(node);
        }
        let child_idx = self.choose_subtree(node, &entry.mbr);
        let child_id = self.nodes[node].entries[child_idx].child_id();
        let split = self.insert_rec(child_id, entry, target_level);
        // Tighten the child's MBR after the insert.
        let child_mbr = self.nodes[child_id].mbr();
        self.nodes[node].entries[child_idx].mbr = child_mbr;
        let (sib_mbr, sib) = split?;
        self.nodes[node].entries.push(Entry::child(sib_mbr, sib));
        self.maybe_split(node)
    }

    /// Guttman's ChooseLeaf rule: least enlargement, ties by least
    /// area.
    fn choose_subtree(&self, node: NodeId, mbr: &Rect) -> usize {
        let entries = &self.nodes[node].entries;
        let mut best = 0;
        let mut best_enl = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, e) in entries.iter().enumerate() {
            let enl = e.mbr.enlargement(mbr);
            let area = e.mbr.area();
            if enl < best_enl || (enl == best_enl && area < best_area) {
                best = i;
                best_enl = enl;
                best_area = area;
            }
        }
        best
    }

    fn maybe_split(&mut self, node: NodeId) -> Option<(Rect, NodeId)> {
        if self.nodes[node].len() <= self.params.max_entries {
            return None;
        }
        let level = self.nodes[node].level;
        let entries = std::mem::take(&mut self.nodes[node].entries);
        let (left, right) = guttman_split(entries, self.params.min_entries);
        self.nodes[node].entries = left;
        let mut sib = Node::new(level);
        sib.entries = right;
        let sib_mbr = sib.mbr();
        let sib_id = self.alloc(sib);
        Some((sib_mbr, sib_id))
    }

    // -- delete --------------------------------------------------------------

    /// Delete one item equal to `item` whose rectangle matches `mbr`.
    /// Returns true when an item was removed.
    pub fn delete(&mut self, mbr: &Rect, item: &T) -> bool
    where
        T: PartialEq,
    {
        let mut orphans: Vec<(u32, Vec<Entry<T>>)> = Vec::new();
        let deleted = self.delete_rec(self.root, mbr, item, &mut orphans);
        if !deleted {
            return false;
        }
        self.len -= 1;
        // Shrink the root while it is an internal node with one child.
        while self.nodes[self.root].level > 0 && self.nodes[self.root].len() == 1 {
            let child = self.nodes[self.root].entries[0].child_id();
            let old = self.root;
            self.root = child;
            self.dealloc(old);
        }
        if self.nodes[self.root].level > 0 && self.nodes[self.root].is_empty() {
            // Tree emptied out entirely.
            let old = self.root;
            let leaf = self.alloc(Node::new(0));
            self.root = leaf;
            self.dealloc(old);
        }
        // Reinsert orphaned entries at their original levels, first
        // raising the root when the tree shrank below an orphan's level.
        for (level, entries) in orphans {
            for e in entries {
                self.raise_root_to(level);
                self.insert_entry_at_level(e, level);
            }
        }
        true
    }

    /// Grow the tree with single-child internal nodes until the root
    /// sits at `level`. Only used by orphan reinsertion edge cases.
    fn raise_root_to(&mut self, level: u32) {
        while self.nodes[self.root].level < level {
            let old_root = self.root;
            let old_mbr = self.nodes[old_root].mbr();
            let mut n = Node::new(self.nodes[old_root].level + 1);
            n.entries.push(Entry::child(old_mbr, old_root));
            self.root = self.alloc(n);
        }
    }

    fn delete_rec(
        &mut self,
        node: NodeId,
        mbr: &Rect,
        item: &T,
        orphans: &mut Vec<(u32, Vec<Entry<T>>)>,
    ) -> bool
    where
        T: PartialEq,
    {
        if self.nodes[node].is_leaf() {
            let pos =
                self.nodes[node].entries.iter().position(|e| e.mbr == *mbr && e.item_ref() == item);
            return match pos {
                Some(i) => {
                    self.nodes[node].entries.swap_remove(i);
                    true
                }
                None => false,
            };
        }
        let candidates: Vec<(usize, NodeId)> = self.nodes[node]
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.mbr.intersects(mbr))
            .map(|(i, e)| (i, e.child_id()))
            .collect();
        for (idx, child) in candidates {
            if self.delete_rec(child, mbr, item, orphans) {
                if self.nodes[child].len() < self.params.min_entries {
                    // Condense: orphan the child's remaining entries.
                    let level = self.nodes[child].level;
                    let entries = std::mem::take(&mut self.nodes[child].entries);
                    orphans.push((level, entries));
                    self.nodes[node].entries.swap_remove(idx);
                    self.dealloc(child);
                } else {
                    self.nodes[node].entries[idx].mbr = self.nodes[child].mbr();
                }
                return true;
            }
        }
        false
    }

    // -- subtree access --------------------------------------------------------

    /// The roots of all subtrees `levels_down` levels below the root —
    /// the paper's `subtree_root(index, level)` primitive. Descending by
    /// more levels than the tree has yields the leaves.
    pub fn subtree_roots(&self, levels_down: u32) -> Vec<SubtreeRef> {
        let root_level = self.nodes[self.root].level;
        let target = root_level.saturating_sub(levels_down);
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let n = self.node_quiet(id);
            if n.level == target {
                out.push(SubtreeRef { node: id, mbr: n.mbr(), level: n.level });
            } else {
                for e in &n.entries {
                    stack.push(e.child_id());
                }
            }
        }
        out
    }

    /// Iterate every stored `(mbr, item)` pair.
    pub fn iter_items(&self) -> impl Iterator<Item = (Rect, &T)> + '_ {
        let mut stack = vec![self.root];
        let mut leaf_items: Vec<(Rect, &T)> = Vec::new();
        while let Some(id) = stack.pop() {
            let n = self.node_quiet(id);
            if n.is_leaf() {
                for e in &n.entries {
                    leaf_items.push((e.mbr, e.item_ref()));
                }
            } else {
                for e in &n.entries {
                    stack.push(e.child_id());
                }
            }
        }
        leaf_items.into_iter()
    }

    // -- merge (parallel build support) ----------------------------------------

    /// Merge several independently built trees into one — the paper's
    /// R-tree parallel creation endgame ("cluster subtrees in parallel
    /// ... merged at the end"). Consumes the inputs; parameters come
    /// from the first non-empty tree.
    pub fn merge(trees: Vec<RTree<T>>) -> RTree<T> {
        let mut iter = trees.into_iter();
        let mut acc = match iter.next() {
            Some(t) => t,
            None => return RTree::new(RTreeParams::default()),
        };
        for t in iter {
            acc.graft(t);
        }
        acc
    }

    /// Graft another tree's contents into this one by inserting its
    /// root as a subtree (copying its arena across), keeping leaves at
    /// uniform depth.
    pub fn graft(&mut self, other: RTree<T>) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        // Keep the taller tree as the receiver.
        let mut other = other;
        if other.height() > self.height() {
            std::mem::swap(self, &mut other);
        }
        let other_level = other.nodes[other.root].level;
        // A root is exempt from the min-fill bound, but once grafted it
        // becomes an ordinary node. If it is underfull, dissolve it and
        // insert its entries (each a legal subtree or item) one by one.
        if other.nodes[other.root].len() < self.params.min_entries {
            let other_len = other.len;
            let entries = std::mem::take(&mut other.nodes[other.root].entries);
            for e in entries {
                let adopted = match e.payload {
                    Payload::Item(t) => Entry::item(e.mbr, t),
                    Payload::Node(child) => {
                        let new_child = self.adopt_subtree(&other, child);
                        Entry::child(e.mbr, new_child)
                    }
                };
                self.insert_entry_at_level(adopted, other_level);
            }
            self.len += other_len;
            return;
        }
        // Copy other's reachable nodes into our arena, remapping ids.
        let root_new = self.adopt_subtree(&other, other.root);
        let other_mbr = other.nodes[other.root].mbr();
        let self_level = self.nodes[self.root].level;
        if other_level == self_level {
            // Equal heights: new root above both.
            let old_root = self.root;
            let old_mbr = self.nodes[old_root].mbr();
            let mut new_root = Node::new(self_level + 1);
            new_root.entries.push(Entry::child(old_mbr, old_root));
            new_root.entries.push(Entry::child(other_mbr, root_new));
            self.root = self.alloc(new_root);
        } else {
            // Insert the subtree at the level just above its root.
            self.insert_entry_at_level(Entry::child(other_mbr, root_new), other_level + 1);
        }
        self.len += other.len;
    }

    /// Recursively copy a subtree from `other` into our arena; returns
    /// the new id of `node`.
    fn adopt_subtree(&mut self, other: &RTree<T>, node: NodeId) -> NodeId {
        let src = &other.nodes[node];
        let mut dst = Node::new(src.level);
        dst.entries.reserve(src.entries.len());
        // Collect child copies first to avoid holding borrows across alloc.
        let mut copied: Vec<Entry<T>> = Vec::with_capacity(src.entries.len());
        for e in &src.entries {
            match &e.payload {
                Payload::Item(t) => copied.push(Entry::item(e.mbr, t.clone())),
                Payload::Node(child) => {
                    let new_child = self.adopt_subtree(other, *child);
                    copied.push(Entry::child(e.mbr, new_child));
                }
            }
        }
        dst.entries = copied;
        self.alloc(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(x: f64, y: f64) -> Rect {
        Rect::new(x, y, x + 1.0, y + 1.0)
    }

    fn build(n: usize, params: RTreeParams) -> RTree<usize> {
        let mut t = RTree::new(params);
        for i in 0..n {
            let x = (i % 100) as f64 * 2.0;
            let y = (i / 100) as f64 * 2.0;
            t.insert(unit(x, y), i);
        }
        t
    }

    #[test]
    fn insert_grows_tree() {
        let t = build(1000, RTreeParams::with_fanout(8));
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 3);
        t.check_invariants().unwrap();
        assert_eq!(t.iter_items().count(), 1000);
    }

    #[test]
    fn all_split_strategies_keep_invariants() {
        // The quadratic split is the only strategy; the smallest fanouts
        // split it most often.
        let t = build(500, RTreeParams::with_fanout(6));
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn delete_removes_and_condenses() {
        let mut t = build(300, RTreeParams::with_fanout(6));
        for i in 0..300 {
            let x = (i % 100) as f64 * 2.0;
            let y = (i / 100) as f64 * 2.0;
            assert!(t.delete(&unit(x, y), &i), "failed to delete {i}");
            assert!(!t.delete(&unit(x, y), &i), "double delete {i}");
            t.check_invariants().unwrap_or_else(|e| panic!("after delete {i}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn delete_nonexistent_is_noop() {
        let mut t = build(50, RTreeParams::with_fanout(8));
        assert!(!t.delete(&unit(999.0, 999.0), &1));
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn subtree_roots_partition_the_tree() {
        let t = build(2000, RTreeParams::with_fanout(8));
        for levels_down in 0..t.height() {
            let roots = t.subtree_roots(levels_down);
            if levels_down == 0 {
                assert_eq!(roots.len(), 1);
                assert_eq!(roots[0].node, t.root_id());
            }
            // Items under all subtree roots must total the tree size.
            let mut count = 0;
            for r in &roots {
                let mut stack = vec![r.node];
                while let Some(id) = stack.pop() {
                    let n = t.node_quiet(id);
                    if n.is_leaf() {
                        count += n.len();
                    } else {
                        for e in &n.entries {
                            stack.push(e.child_id());
                        }
                    }
                }
            }
            assert_eq!(count, 2000, "levels_down={levels_down}");
        }
    }

    #[test]
    fn subtree_roots_beyond_height_returns_leaves() {
        let t = build(100, RTreeParams::with_fanout(8));
        let roots = t.subtree_roots(99);
        assert!(roots.iter().all(|r| r.level == 0));
    }

    #[test]
    fn merge_equal_and_unequal_heights() {
        let a = build(400, RTreeParams::with_fanout(8));
        let mut small = RTree::new(RTreeParams::with_fanout(8));
        for i in 0..10 {
            small.insert(unit(500.0 + i as f64, 0.0), 10_000 + i);
        }
        let merged = RTree::merge(vec![a, small]);
        assert_eq!(merged.len(), 410);
        merged.check_invariants().unwrap();
        // all items survive
        let mut items: Vec<usize> = merged.iter_items().map(|(_, i)| *i).collect();
        items.sort_unstable();
        assert_eq!(items.len(), 410);
        assert_eq!(items[400..], (10_000..10_010).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn merge_with_empty_and_reversed_heights() {
        let empty: RTree<usize> = RTree::new(RTreeParams::with_fanout(8));
        let big = build(300, RTreeParams::with_fanout(8));
        let mut tiny = RTree::new(RTreeParams::with_fanout(8));
        tiny.insert(unit(0.0, 0.0), 1);
        // tiny receives big: graft must swap internally
        let merged = RTree::merge(vec![tiny, empty, big]);
        assert_eq!(merged.len(), 301);
        merged.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_clusters_keep_contents_windows_and_deletes() {
        // Adversarial insertion order: interleave two far clusters.
        let at = |i: usize| {
            if i.is_multiple_of(2) {
                unit((i % 37) as f64 * 2.0, (i % 23) as f64 * 2.0)
            } else {
                unit(500.0 + (i % 29) as f64 * 2.0, 500.0 + (i % 31) as f64 * 2.0)
            }
        };
        let mut t = RTree::new(RTreeParams::with_fanout(8));
        for i in 0..600usize {
            t.insert(at(i), i);
        }
        t.check_invariants().unwrap();
        let mut items: Vec<usize> = t.iter_items().map(|(_, i)| *i).collect();
        items.sort_unstable();
        assert_eq!(items, (0..600).collect::<Vec<_>>());
        let w = Rect::new(10.0, 10.0, 60.0, 40.0);
        let mut got: Vec<usize> = t.query_window(&w).into_iter().map(|(_, i)| i).collect();
        got.sort_unstable();
        let want: Vec<usize> = (0..600).filter(|&i| at(i).intersects(&w)).collect();
        assert_eq!(got, want);
        for i in (0..600).step_by(3) {
            assert!(t.delete(&at(i), &i));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 400);
    }

    #[test]
    fn counters_track_node_reads() {
        let c = Arc::new(Counters::new());
        let t = build(200, RTreeParams::with_fanout(8)).with_counters(Arc::clone(&c));
        let _ = t.node(t.root_id());
        assert!(Counters::get(&c.rtree_node_reads) >= 1);
    }
}
