//! Node split: Guttman's quadratic split \[8\].
//!
//! A dynamic insert that overflows a node splits it in two. Bulk
//! loading (STR, [`crate::bulk`]) builds the trees the paper's index
//! creation uses, so splits only shape trees grown by DML; the
//! quadratic split is the one policy.

use crate::node::Entry;
use sdo_geom::Rect;

/// Split `entries` (length `M + 1`) into two groups, each with at least
/// `min` entries: seed each group with one of the pair that would waste
/// the most area together, then hand out the rest by PickNext, each to
/// the group its MBR enlarges least.
pub fn guttman_split<T>(mut entries: Vec<Entry<T>>, min: usize) -> (Vec<Entry<T>>, Vec<Entry<T>>) {
    debug_assert!(entries.len() >= 2 * min, "cannot satisfy min fill");
    let (s1, s2) = pick_seeds_quadratic(&entries);
    // Remove higher index first so the lower stays valid.
    let (hi, lo) = if s1 > s2 { (s1, s2) } else { (s2, s1) };
    let seed_b = entries.swap_remove(hi);
    let seed_a = entries.swap_remove(lo);
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = group_a[0].mbr;
    let mut mbr_b = group_b[0].mbr;

    while let Some(next) = pick_next(&entries, &mbr_a, &mbr_b) {
        let total_left = entries.len();
        // Min-fill enforcement: if a group must take everything left.
        if group_a.len() + total_left == min {
            for e in entries.drain(..) {
                mbr_a = mbr_a.union(&e.mbr);
                group_a.push(e);
            }
            break;
        }
        if group_b.len() + total_left == min {
            for e in entries.drain(..) {
                mbr_b = mbr_b.union(&e.mbr);
                group_b.push(e);
            }
            break;
        }
        let e = entries.swap_remove(next);
        let enl_a = mbr_a.enlargement(&e.mbr);
        let enl_b = mbr_b.enlargement(&e.mbr);
        let to_a = match enl_a.partial_cmp(&enl_b) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            // Ties: smaller area, then fewer entries.
            _ => {
                if mbr_a.area() != mbr_b.area() {
                    mbr_a.area() < mbr_b.area()
                } else {
                    group_a.len() <= group_b.len()
                }
            }
        };
        if to_a {
            mbr_a = mbr_a.union(&e.mbr);
            group_a.push(e);
        } else {
            mbr_b = mbr_b.union(&e.mbr);
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

/// Quadratic seed pick: the pair wasting the most area if grouped.
fn pick_seeds_quadratic<T>(entries: &[Entry<T>]) -> (usize, usize) {
    let mut best = (0usize, 1usize);
    let mut worst_waste = f64::NEG_INFINITY;
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste = entries[i].mbr.union(&entries[j].mbr).area()
                - entries[i].mbr.area()
                - entries[j].mbr.area();
            if waste > worst_waste {
                worst_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// Guttman's PickNext: the entry with the greatest preference
/// difference between the two groups.
fn pick_next<T>(entries: &[Entry<T>], mbr_a: &Rect, mbr_b: &Rect) -> Option<usize> {
    if entries.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_diff = f64::NEG_INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let diff = (mbr_a.enlargement(&e.mbr) - mbr_b.enlargement(&e.mbr)).abs();
        if diff > best_diff {
            best_diff = diff;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(rects: &[(f64, f64, f64, f64)]) -> Vec<Entry<usize>> {
        rects
            .iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| Entry::item(Rect::new(a, b, c, d), i))
            .collect()
    }

    fn check_split(es: Vec<Entry<usize>>, min: usize) {
        let n = es.len();
        let (a, b) = guttman_split(es, min);
        assert!(a.len() >= min, "group A underfull ({})", a.len());
        assert!(b.len() >= min, "group B underfull ({})", b.len());
        assert_eq!(a.len() + b.len(), n, "entries lost");
        // no duplicates
        let mut ids: Vec<usize> = a.iter().chain(b.iter()).map(|e| *e.item_ref()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicated entries");
    }

    fn two_clusters() -> Vec<Entry<usize>> {
        entries(&[
            (0.0, 0.0, 1.0, 1.0),
            (0.5, 0.5, 1.5, 1.5),
            (1.0, 0.0, 2.0, 1.0),
            (0.0, 1.0, 1.0, 2.0),
            (100.0, 100.0, 101.0, 101.0),
            (100.5, 100.5, 101.5, 101.5),
            (101.0, 100.0, 102.0, 101.0),
        ])
    }

    #[test]
    fn split_satisfies_min_fill() {
        check_split(two_clusters(), 2);
        check_split(two_clusters(), 3);
    }

    #[test]
    fn clusters_separate_cleanly() {
        let (a, b) = guttman_split(two_clusters(), 2);
        let mbr_a = a.iter().fold(Rect::EMPTY, |acc, e| acc.union(&e.mbr));
        let mbr_b = b.iter().fold(Rect::EMPTY, |acc, e| acc.union(&e.mbr));
        assert!(
            !mbr_a.intersects(&mbr_b),
            "failed to separate obvious clusters: {mbr_a} vs {mbr_b}"
        );
    }

    #[test]
    fn identical_rects_split_evenly_enough() {
        check_split(entries(&[(0.0, 0.0, 1.0, 1.0); 9]), 4);
    }
}
