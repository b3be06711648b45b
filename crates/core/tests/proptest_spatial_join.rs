//! Property-based testing of the SPATIAL_JOIN table function: for
//! arbitrary data, predicates and configurations, results equal brute
//! force.

use parking_lot::RwLock;
use proptest::prelude::*;
use sdo_core::join::{ExactPredicate, JoinSide, SpatialJoin, SpatialJoinConfig};
use sdo_geom::{Geometry, Polygon, Rect, RelateMask};
use sdo_rtree::{RTree, RTreeParams};
use sdo_storage::{Counters, DataType, Schema, Table, Value};
use sdo_tablefunc::collect_all;
use sdo_tablefunc::{ParallelTableFunction, TableFunction, TaskQueue};
use std::sync::Arc;

fn arb_rect_poly() -> impl Strategy<Value = Geometry> {
    ((0.0f64..200.0), (0.0f64..200.0), (0.5f64..25.0), (0.5f64..25.0)).prop_map(|(x, y, w, h)| {
        Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
    })
}

fn side(geoms: &[Geometry], fanout: usize) -> JoinSide {
    let mut t =
        Table::new("T", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
    let mut items = Vec::new();
    for (i, g) in geoms.iter().enumerate() {
        let bb = g.bbox();
        let rid = t.insert(vec![Value::Integer(i as i64), Value::geometry(g.clone())]).unwrap();
        items.push((bb, rid));
    }
    JoinSide {
        table: Arc::new(RwLock::new(t)),
        column: 1,
        tree: Arc::new(RTree::bulk_load(items, RTreeParams::with_fanout(fanout))),
    }
}

fn run_join(
    l: &JoinSide,
    r: &JoinSide,
    exact: ExactPredicate,
    config: SpatialJoinConfig,
    fetch: usize,
) -> Vec<(u64, u64)> {
    let mut join = SpatialJoin::new(
        JoinSide { table: Arc::clone(&l.table), column: 1, tree: Arc::clone(&l.tree) },
        JoinSide { table: Arc::clone(&r.table), column: 1, tree: Arc::clone(&r.tree) },
        exact,
        config,
        Arc::new(Counters::new()),
    );
    let mut out: Vec<(u64, u64)> = collect_all(&mut join, fetch)
        .unwrap()
        .iter()
        .map(|row| (row[0].as_rowid().unwrap().as_u64(), row[1].as_rowid().unwrap().as_u64()))
        .collect();
    out.sort_unstable();
    out
}

fn brute(a: &[Geometry], b: &[Geometry], exact: &ExactPredicate) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for (i, ga) in a.iter().enumerate() {
        for (j, gb) in b.iter().enumerate() {
            let keep = match exact {
                ExactPredicate::Masks(m) => sdo_geom::relate::relate_any(ga, gb, m),
                ExactPredicate::Distance(d) => sdo_geom::within_distance(ga, gb, *d),
                ExactPredicate::PrimaryOnly => ga.bbox().intersects(&gb.bbox()),
            };
            if keep {
                out.push((i as u64, j as u64));
            }
        }
    }
    out.sort_unstable();
    out
}

fn arb_exact() -> impl Strategy<Value = ExactPredicate> {
    prop_oneof![
        Just(ExactPredicate::Masks(vec![RelateMask::AnyInteract])),
        Just(ExactPredicate::Masks(vec![RelateMask::Touch, RelateMask::Overlap])),
        Just(ExactPredicate::Masks(vec![RelateMask::Inside])),
        (0.1f64..30.0).prop_map(ExactPredicate::Distance),
        Just(ExactPredicate::PrimaryOnly),
    ]
}

fn arb_config() -> impl Strategy<Value = SpatialJoinConfig> {
    (1usize..512)
        .prop_map(|candidate_array| SpatialJoinConfig { candidate_array, ..Default::default() })
}

/// Skewed input: one dense cluster of small rectangles plus a uniform
/// background — the distribution where static task partitioning loads
/// one slave and work stealing has to rebalance.
fn arb_clustered_polys() -> impl Strategy<Value = Vec<Geometry>> {
    let cluster = ((20.0f64..180.0), (20.0f64..180.0)).prop_flat_map(|(cx, cy)| {
        proptest::collection::vec(
            ((-8.0f64..8.0), (-8.0f64..8.0), (0.5f64..4.0)).prop_map(move |(dx, dy, w)| {
                let (x, y) = (cx + dx, cy + dy);
                Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + w)))
            }),
            30..70,
        )
    });
    let background = proptest::collection::vec(arb_rect_poly(), 5..30);
    (cluster, background).prop_map(|(mut c, b)| {
        c.extend(b);
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn join_equals_brute_force_under_any_config(
        a in proptest::collection::vec(arb_rect_poly(), 0..60),
        b in proptest::collection::vec(arb_rect_poly(), 0..60),
        exact in arb_exact(),
        config in arb_config(),
        fetch in 1usize..200,
        lf in 5usize..16,
        rf in 5usize..16,
    ) {
        let l = side(&a, lf);
        let r = side(&b, rf);
        let got = run_join(&l, &r, exact.clone(), config, fetch);
        prop_assert_eq!(got, brute(&a, &b, &exact));
    }

    #[test]
    fn parallel_tasks_cover_serial(
        a in proptest::collection::vec(arb_rect_poly(), 20..80),
        levels in 0u32..3,
    ) {
        let s = side(&a, 6);
        let exact = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
        let serial = run_join(&s, &s, exact.clone(), SpatialJoinConfig::default(), 97);
        let tasks = SpatialJoin::parallel_tasks(&s.tree, &s.tree, &exact, levels);
        let mut got = Vec::new();
        for chunk in tasks.chunks(3.max(tasks.len() / 4)) {
            let mut join = SpatialJoin::with_stack(
                JoinSide { table: Arc::clone(&s.table), column: 1, tree: Arc::clone(&s.tree) },
                JoinSide { table: Arc::clone(&s.table), column: 1, tree: Arc::clone(&s.tree) },
                exact.clone(),
                SpatialJoinConfig::default(),
                Arc::new(Counters::new()),
                chunk.to_vec(),
            );
            got.extend(collect_all(&mut join, 64).unwrap().iter().map(|row| {
                (row[0].as_rowid().unwrap().as_u64(), row[1].as_rowid().unwrap().as_u64())
            }));
        }
        got.sort_unstable();
        prop_assert_eq!(got, serial);
    }

    /// The work-stealing scheduler is invisible in results: on skewed
    /// (clustered) inputs, any DOP and any split threshold yields the
    /// serial rowid-pair multiset — dynamic scheduling repartitions the
    /// same task set, it never changes it.
    #[test]
    fn work_stealing_matches_serial_on_skewed_inputs(
        a in arb_clustered_polys(),
        b in arb_clustered_polys(),
        split in prop_oneof![Just(16u64), Just(4096), Just(u64::MAX)],
    ) {
        let l = side(&a, 6);
        let r = side(&b, 6);
        let exact = ExactPredicate::Masks(vec![RelateMask::AnyInteract]);
        let serial = run_join(&l, &r, exact.clone(), SpatialJoinConfig::default(), 128);
        for dop in [1usize, 2, 4] {
            let tasks = SpatialJoin::parallel_tasks(&l.tree, &r.tree, &exact, 1);
            let queue = TaskQueue::seed_round_robin(tasks, dop);
            let config = SpatialJoinConfig { split_threshold: split, ..Default::default() };
            let instances: Vec<Box<dyn TableFunction>> = (0..dop)
                .map(|worker| {
                    Box::new(SpatialJoin::with_shared_tasks(
                        JoinSide {
                            table: Arc::clone(&l.table),
                            column: 1,
                            tree: Arc::clone(&l.tree),
                        },
                        JoinSide {
                            table: Arc::clone(&r.table),
                            column: 1,
                            tree: Arc::clone(&r.tree),
                        },
                        exact.clone(),
                        config.clone(),
                        Arc::new(Counters::new()),
                        Arc::clone(&queue),
                        worker,
                    )) as Box<dyn TableFunction>
                })
                .collect();
            let mut parallel = ParallelTableFunction::new(instances);
            let mut got: Vec<(u64, u64)> = collect_all(&mut parallel, 64)
                .unwrap()
                .iter()
                .map(|row| {
                    (row[0].as_rowid().unwrap().as_u64(), row[1].as_rowid().unwrap().as_u64())
                })
                .collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &serial, "dop={} split={}", dop, split);
        }
    }
}
