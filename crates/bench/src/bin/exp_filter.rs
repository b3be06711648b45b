//! Secondary-filter microbench (DESIGN.md "Filter kernels").
//!
//! ```sh
//! cargo run --release -p sdo-bench --bin exp_filter -- secondary
//! cargo run --release -p sdo-bench --bin exp_filter -- sweep
//! ```
//!
//! `secondary`: naive per-call `relate`/`within_distance` vs
//! [`PreparedGeometry`] (decoded-once edges + segment index + cached
//! interior point) over bbox-overlapping candidate pairs on point,
//! linestring and polygon workloads. Asserts the prepared path returns
//! exactly the naive path's hit counts before reporting a speedup.
//!
//! `sweep`: polygon `ANYINTERACT` by vertex count, each geometry
//! prepared once per run as the join's cache does, default wrappers
//! (the unprepared kernel up to the direct-kernel cutoff) against
//! always-indexed ones. Raising the cutoff in `sdo_geom::prepared` and
//! rerunning times the unprepared kernel at every size.

use sdo_bench::*;
use sdo_geom::{
    relate, Geometry, LineString, Point, Polygon, PreparedGeometry, Rect, RelateMask, Ring,
};
use sdo_rtree::{JoinCursor, JoinPredicate, RTree, RTreeParams};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    match std::env::args().nth(1).as_deref() {
        None | Some("all") => {
            secondary();
            sweep();
        }
        Some("secondary") => secondary(),
        Some("sweep") => sweep(),
        Some(other) => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

/// Best-of-`reps` wall time of `f`, which must return the same count
/// every repetition.
fn best_of<T: Eq + std::fmt::Debug>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..reps {
        let (o, t) = timed(&mut f);
        assert_eq!(o, out, "non-deterministic benchmark result");
        out = o;
        best = best.min(t);
    }
    (out, best)
}

fn bulk_tree(geoms: &[Geometry], fanout: usize) -> RTree<u32> {
    let items: Vec<(Rect, u32)> =
        geoms.iter().enumerate().map(|(i, g)| (g.bbox(), i as u32)).collect();
    RTree::bulk_load(items, RTreeParams::with_fanout(fanout))
}

/// A simple 64-vertex wobbled-circle polygon centred at `(cx, cy)`.
fn wobbly_polygon(cx: f64, cy: f64, r: f64, verts: usize, phase: f64) -> Geometry {
    let pts: Vec<Point> = (0..verts)
        .map(|i| {
            let t = i as f64 / verts as f64 * std::f64::consts::TAU;
            let rr = r * (1.0 + 0.25 * (7.0 * t + phase).sin());
            Point::new(cx + rr * t.cos(), cy + rr * t.sin())
        })
        .collect();
    Geometry::Polygon(Polygon::from_exterior(Ring::new(pts).expect("wobbled ring")))
}

/// A `verts`-vertex meandering linestring starting at `(x, y)`.
fn wobbly_line(x: f64, y: f64, step: f64, verts: usize, phase: f64) -> Geometry {
    let pts: Vec<Point> = (0..verts)
        .map(|i| {
            let t = i as f64;
            Point::new(x + t * step, y + step * 2.0 * (0.9 * t + phase).sin())
        })
        .collect();
    Geometry::LineString(LineString::new(pts).expect("line"))
}

/// Lay `n` geometries on a jittered `ceil(sqrt(n))`-column grid whose
/// footprints overlap their neighbours, so a bbox self-join yields a
/// few candidates per geometry (the join's steady state).
fn grid_layout(n: usize, mut make: impl FnMut(f64, f64, f64, f64) -> Geometry) -> Vec<Geometry> {
    let cols = (n as f64).sqrt().ceil() as usize;
    let cell = 10.0;
    (0..n)
        .map(|i| {
            let (gx, gy) = ((i % cols) as f64, (i / cols) as f64);
            let phase = i as f64 * 0.7;
            make(gx * cell + phase.sin(), gy * cell + phase.cos(), cell, phase)
        })
        .collect()
}

/// Bbox-overlapping unordered pairs `(i, j)` with `i < j`, found via an
/// R-tree self-join (the primary filter's output).
fn candidate_pairs(geoms: &[Geometry]) -> Vec<(usize, usize)> {
    let tree = bulk_tree(geoms, 32);
    let mut cursor = JoinCursor::new(&tree, &tree, JoinPredicate::Intersects);
    let mut pairs = Vec::new();
    loop {
        let batch = cursor.next_batch(8192);
        if batch.is_empty() {
            break;
        }
        pairs.extend(
            batch
                .iter()
                .filter(|(_, a, _, b)| a < b)
                .map(|(_, a, _, b)| (*a as usize, *b as usize)),
        );
    }
    pairs
}

/// One secondary-filter workload: evaluate `masks`/`dist` over every
/// candidate pair, naive vs prepared, and report hit counts + times.
/// The prepared time INCLUDES building every [`PreparedGeometry`]
/// (the join prepares each row once and reuses it across its pairs).
fn secondary_workload(name: &str, geoms: Vec<Geometry>, masks: &[RelateMask], dist: Option<f64>) {
    let pairs = candidate_pairs(&geoms);
    let (hits_naive, t_naive) = best_of(3, || {
        pairs
            .iter()
            .filter(|&&(i, j)| match dist {
                Some(d) => relate::within_distance(&geoms[i], &geoms[j], d),
                None => relate::relate_any(&geoms[i], &geoms[j], masks),
            })
            .count()
    });
    let (hits_prep, t_prep) = best_of(3, || {
        let prepared: Vec<PreparedGeometry> =
            geoms.iter().map(|g| PreparedGeometry::new(g.clone())).collect();
        pairs
            .iter()
            .filter(|&&(i, j)| match dist {
                Some(d) => prepared[i].within_distance(&prepared[j], d),
                None => prepared[i].relate_any(&prepared[j], masks),
            })
            .count()
    });
    assert_eq!(hits_naive, hits_prep, "prepared path disagrees on {name}");
    println!(
        "{:>24} {:>9} {:>8} {:>12} {:>12} {:>9}",
        name,
        pairs.len(),
        hits_naive,
        secs(t_naive),
        secs(t_prep),
        speedup(t_naive, t_prep)
    );
}

fn secondary() {
    println!("== exp_filter: secondary filter, naive vs prepared geometries ==");
    let n = scaled(40_000, 2_000);
    let anyinteract = [RelateMask::AnyInteract];
    let containment =
        [RelateMask::Inside, RelateMask::Contains, RelateMask::CoveredBy, RelateMask::Covers];
    println!(
        "{:>24} {:>9} {:>8} {:>12} {:>12} {:>9}",
        "workload", "pairs", "hits", "naive", "prepared", "speedup"
    );
    // Polygon-heavy: 64-vertex wobbled circles, the headline case.
    // Radius 0.55*cell leaves a mix of touching and bbox-only-overlap
    // pairs, so the naive path pays full O(n*m) scans on the misses.
    secondary_workload(
        "polygon64/anyinteract",
        grid_layout(n / 4, |x, y, cell, ph| wobbly_polygon(x, y, cell * 0.55, 64, ph)),
        &anyinteract,
        None,
    );
    // Nested pairs: a small polygon sits inside each big one, so the
    // containment masks must fully verify (every vertex + no edge
    // crossing) instead of early-exiting on the first miss.
    let nested: Vec<Geometry> =
        grid_layout(n / 8, |x, y, cell, ph| wobbly_polygon(x, y, cell * 0.72, 256, ph))
            .into_iter()
            .enumerate()
            .flat_map(|(i, big)| {
                let c = big.bbox().center();
                [big, wobbly_polygon(c.x, c.y, 10.0 * 0.26, 256, i as f64 * 1.3)]
            })
            .collect();
    secondary_workload("polygon256/containment", nested, &containment, None);
    secondary_workload(
        "polygon64/withindist",
        grid_layout(n / 4, |x, y, cell, ph| wobbly_polygon(x, y, cell * 0.6, 64, ph)),
        &anyinteract,
        Some(2.5),
    );
    // Linestrings: 32-vertex meanders.
    secondary_workload(
        "line32/anyinteract",
        grid_layout(n / 4, |x, y, cell, ph| wobbly_line(x, y, cell / 24.0, 32, ph)),
        &anyinteract,
        None,
    );
    // Points against fat polygons: covers_point-style probes.
    let mixed: Vec<Geometry> = grid_layout(n / 4, |x, y, cell, ph| {
        if ((ph * 10.0) as usize).is_multiple_of(3) {
            wobbly_polygon(x, y, cell * 0.9, 64, ph)
        } else {
            Geometry::Point(Point::new(x, y))
        }
    });
    secondary_workload("point-vs-polygon64", mixed, &anyinteract, None);
    println!("(prepared time includes building every PreparedGeometry once)\n");
}

fn sweep() {
    println!("== exp_filter: polygon ANYINTERACT by size, default vs always-indexed ==");
    let n = scaled(40_000, 2_000) / 4;
    println!(
        "{:>9} {:>9} {:>11} {:>8} {:>12} {:>12} {:>9}",
        "vertices", "pairs", "pairs/geom", "hits", "default", "indexed", "speedup"
    );
    for verts in [8, 16, 32, 64, 128, 256, 512] {
        let plain = grid_layout(n, |x, y, cell, ph| wobbly_polygon(x, y, cell * 0.7, verts, ph));
        let pairs = candidate_pairs(&plain);
        let geoms: Vec<Arc<Geometry>> = plain.into_iter().map(Arc::new).collect();
        let run = |wrap: fn(Arc<Geometry>) -> PreparedGeometry| {
            best_of(3, || {
                let prepared: Vec<PreparedGeometry> =
                    geoms.iter().map(|g| wrap(Arc::clone(g))).collect();
                pairs.iter().filter(|&&(i, j)| prepared[i].intersects(&prepared[j])).count()
            })
        };
        let (hits, t_default) = run(PreparedGeometry::from_arc);
        let (hits_indexed, t_indexed) = run(PreparedGeometry::indexed);
        assert_eq!(hits, hits_indexed, "indexed path disagrees at {verts} vertices");
        println!(
            "{:>9} {:>9} {:>11.1} {:>8} {:>12} {:>12} {:>9}",
            verts,
            pairs.len(),
            2.0 * pairs.len() as f64 / geoms.len() as f64,
            hits,
            secs(t_default),
            secs(t_indexed),
            speedup(t_indexed, t_default)
        );
    }
    println!("(both columns include wrapping every geometry once per run)\n");
}
