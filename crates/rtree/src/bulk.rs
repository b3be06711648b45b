//! Sort-Tile-Recursive bulk loading.
//!
//! STR (Leutenegger, Lopez & Edgington, cited as \[13\]) packs sorted
//! items into full leaves, then recursively packs each level the same
//! way. Bulk-built trees are what the paper's parallel R-tree creation
//! produces per partition before [`crate::RTree::merge`] combines them.

use crate::node::{Entry, Node};
use crate::tree::{RTree, RTreeParams};
use sdo_geom::Rect;

impl<T: Clone> RTree<T> {
    /// Build a packed tree from `(mbr, item)` pairs using STR.
    pub fn bulk_load(items: Vec<(Rect, T)>, params: RTreeParams) -> RTree<T> {
        let mut tree = RTree::new(params);
        if items.is_empty() {
            return tree;
        }
        let mut level: u32 = 0;
        let mut entries: Vec<Entry<T>> =
            items.into_iter().map(|(mbr, t)| Entry::item(mbr, t)).collect();
        let count = entries.len();

        loop {
            if entries.len() <= params.max_entries {
                // These entries become the root.
                let mut root = Node::new(level);
                root.entries = entries;
                let id = tree.alloc(root);
                tree.set_root_raw(id, count);
                return tree;
            }
            let groups = str_pack(entries, params.max_entries, params.min_entries);
            let mut parents: Vec<Entry<T>> = Vec::with_capacity(groups.len());
            for g in groups {
                let mut n = Node::new(level);
                n.entries = g;
                let mbr = n.mbr();
                let id = tree.alloc(n);
                parents.push(Entry::child(mbr, id));
            }
            entries = parents;
            level += 1;
        }
    }
}

/// One round of STR packing: sort by x-center, slice, sort each slice
/// by y-center, chunk into groups of at most `max` (balancing the last
/// two groups so none drops below `min`).
fn str_pack<T>(mut entries: Vec<Entry<T>>, max: usize, min: usize) -> Vec<Vec<Entry<T>>> {
    let n = entries.len();
    let node_count = n.div_ceil(max);
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let slice_size = n.div_ceil(slice_count);

    entries.sort_by(|a, b| a.mbr.center().x.total_cmp(&b.mbr.center().x));
    for slice in entries.chunks_mut(slice_size) {
        slice.sort_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
    }

    let mut groups = Vec::with_capacity(node_count);
    let mut it = entries.into_iter();
    let mut left = n;
    while left > 0 {
        // Chunk the next slice, balancing its tail.
        let mut remaining = slice_size.min(left);
        left -= remaining;
        while remaining > 0 {
            let take = if remaining > max && remaining < max + min {
                remaining / 2
            } else {
                max.min(remaining)
            };
            groups.push((&mut it).take(take).collect());
            remaining -= take;
        }
    }
    groups
}

impl<T: Clone> RTree<T> {
    /// Install a pre-built root (bulk load internal use).
    pub(crate) fn set_root_raw(&mut self, root: crate::node::NodeId, len: usize) {
        self.root = root;
        self.set_len_raw(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdo_geom::Point;

    fn items(n: usize) -> Vec<(Rect, usize)> {
        (0..n)
            .map(|i| {
                // pseudo-random but deterministic placement
                let x = ((i * 2654435761) % 10_000) as f64 / 10.0;
                let y = ((i * 40503) % 10_000) as f64 / 10.0;
                (Rect::new(x, y, x + 1.5, y + 1.5), i)
            })
            .collect()
    }

    /// Reference for `str_pack`: the same round with each slice drained
    /// off the front of the sorted entries.
    fn str_pack_drain<T>(mut entries: Vec<Entry<T>>, max: usize, min: usize) -> Vec<Vec<Entry<T>>> {
        let n = entries.len();
        let node_count = n.div_ceil(max);
        let slice_count = (node_count as f64).sqrt().ceil() as usize;
        let slice_size = n.div_ceil(slice_count);
        entries.sort_by(|a, b| a.mbr.center().x.total_cmp(&b.mbr.center().x));
        let mut groups = Vec::with_capacity(node_count);
        let mut rest = entries;
        while !rest.is_empty() {
            let take = slice_size.min(rest.len());
            let mut slice: Vec<Entry<T>> = rest.drain(..take).collect();
            slice.sort_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
            let mut remaining = slice.len();
            let mut it = slice.into_iter();
            while remaining > 0 {
                let take = if remaining > max && remaining < max + min {
                    remaining / 2
                } else {
                    max.min(remaining)
                };
                groups.push((&mut it).take(take).collect());
                remaining -= take;
            }
        }
        groups
    }

    type Pack = fn(Vec<Entry<usize>>, usize, usize) -> Vec<Vec<Entry<usize>>>;

    /// The tree `bulk_load` builds with `pack`, level by level from the
    /// leaves: each node's entries as item ids, where an internal
    /// entry's id is its child's position in the level below.
    fn levels(data: Vec<(Rect, usize)>, params: RTreeParams, pack: Pack) -> Vec<Vec<Vec<usize>>> {
        let mut entries: Vec<Entry<usize>> =
            data.into_iter().map(|(mbr, i)| Entry::item(mbr, i)).collect();
        let mut out = Vec::new();
        while entries.len() > params.max_entries {
            let groups = pack(entries, params.max_entries, params.min_entries);
            out.push(groups.iter().map(|g| g.iter().map(|e| *e.item_ref()).collect()).collect());
            entries = groups
                .iter()
                .enumerate()
                .map(|(i, g)| Entry::item(g.iter().fold(Rect::EMPTY, |a, e| a.union(&e.mbr)), i))
                .collect();
        }
        out.push(vec![entries.iter().map(|e| *e.item_ref()).collect()]);
        out
    }

    /// The item ids of every leaf under `id`.
    fn leaves(t: &RTree<usize>, id: crate::node::NodeId, out: &mut Vec<Vec<usize>>) {
        let node = t.node(id);
        if node.is_leaf() {
            out.push(node.entries.iter().map(|e| *e.item_ref()).collect());
        } else {
            for e in &node.entries {
                leaves(t, e.child_id(), out);
            }
        }
    }

    #[test]
    fn bulk_load_sizes() {
        for n in [0usize, 1, 31, 32, 33, 1000, 5000] {
            let params = RTreeParams::with_fanout(32);
            let t = RTree::bulk_load(items(n), params);
            assert_eq!(t.len(), n, "n={n}");
            t.check_invariants().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(t.iter_items().count(), n);
            // Slicing in place packs the same tree as draining did, and
            // the tree's leaves are the packed groups.
            let packed = levels(items(n), params, str_pack);
            assert_eq!(packed, levels(items(n), params, str_pack_drain), "n={n}");
            if n > 0 {
                let mut got = Vec::new();
                leaves(&t, t.root_id(), &mut got);
                let mut want = packed[0].clone();
                got.sort();
                want.sort();
                assert_eq!(got, want, "n={n}");
            }
        }
    }

    #[test]
    fn bulk_load_queries_match_brute_force() {
        let data = items(2000);
        let t = RTree::bulk_load(data.clone(), RTreeParams::with_fanout(16));
        let window = Rect::new(100.0, 100.0, 400.0, 300.0);
        let mut got: Vec<usize> = t.query_window(&window).into_iter().map(|(_, i)| i).collect();
        got.sort_unstable();
        let mut want: Vec<usize> =
            data.iter().filter(|(r, _)| r.intersects(&window)).map(|(_, i)| *i).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_tree_is_shallower_than_incremental() {
        let data = items(4000);
        let bulk = RTree::bulk_load(data.clone(), RTreeParams::with_fanout(16));
        let mut incr = RTree::new(RTreeParams::with_fanout(16));
        for (r, i) in data {
            incr.insert(r, i);
        }
        assert!(bulk.height() <= incr.height());
        // STR packs nodes fuller: fewer nodes overall.
        assert!(bulk.node_count() <= incr.node_count());
    }

    #[test]
    fn bulk_supports_subsequent_updates() {
        let mut t = RTree::bulk_load(items(500), RTreeParams::with_fanout(8));
        t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 9999);
        assert_eq!(t.len(), 501);
        assert!(t.delete(&Rect::new(0.0, 0.0, 1.0, 1.0), &9999));
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn knn_on_bulk_tree() {
        let data = items(1000);
        let t = RTree::bulk_load(data.clone(), RTreeParams::with_fanout(16));
        let q = Point::new(500.0, 500.0);
        let got = t.query_knn(&q, 10);
        let mut want: Vec<f64> = data.iter().map(|(r, _)| r.mindist_point(&q)).collect();
        want.sort_by(f64::total_cmp);
        for (i, (d, _, _)) in got.iter().enumerate() {
            assert!((d - want[i]).abs() < 1e-9);
        }
    }
}
