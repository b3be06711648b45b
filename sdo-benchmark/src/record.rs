//! The metric definitions, the self-describing record every run
//! writes, and the verdict logic of `diff` and `check-repeat`.

use crate::json::{obj, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

/// What a client of the server sees, per workload. `BENCHMARK.json`
/// lists the same names, units, directions and bounds; a unit test
/// holds the two together.
pub const END_TO_END: [Spec; 5] = [
    Spec { name: "lat_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    Spec { name: "lat_p95_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    Spec { name: "throughput_ops_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    Spec { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    Spec { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// Failed or refused operations, or wrong answers, over operations
/// attempted. Absolute, and gated by `run`'s exit code and by `diff`;
/// it is 0 on a healthy engine, so it cannot be a relative metric.
pub const FAIL_RATIO_BOUND: f64 = 0.001;

/// Per-layer metrics of a traced run, `(name, unit, better)`. None is
/// gated; each names the layer (this repository's crates) it measures.
pub const PER_LAYER: [(&str, &str, Better); 56] = {
    use Better::{Higher, Lower};
    [
        // Self-time shares of the replayed operation; they sum to 1.
        ("share.server_wire", "ratio", Lower),
        ("share.server_admission", "ratio", Lower),
        ("share.dbms_sql", "ratio", Lower),
        ("share.dbms_exec", "ratio", Lower),
        ("share.core", "ratio", Lower),
        ("share.rtree", "ratio", Lower),
        ("share.geom", "ratio", Lower),
        ("share.quadtree", "ratio", Lower),
        ("share.storage_heap", "ratio", Lower),
        ("share.storage_wal", "ratio", Lower),
        ("share.unattributed", "ratio", Lower),
        ("trace.ops", "count", Higher),
        ("trace.untraced_lat_p50_ms", "ms", Lower),
        ("trace.traced_lat_p50_ms", "ms", Lower),
        ("trace.overhead_ratio", "ratio", Lower),
        // server::wire
        ("wire.rtt_us", "us", Lower),
        ("wire.decode_us", "us", Lower),
        ("wire.encode_us", "us", Lower),
        ("wire.result_bytes", "B", Lower),
        ("wire.overhead_ms", "ms", Lower),
        // server::admission
        ("admission.admit_us", "us", Lower),
        ("admission.wait_us", "us", Lower),
        ("admission.queued", "count", Lower),
        ("admission.rejected", "count", Lower),
        // dbms::sql + planner
        ("sql.parse_us", "us", Lower),
        ("sql.plan_us", "us", Lower),
        // dbms executor
        ("exec.embedded_ms", "ms", Lower),
        ("exec.peak_resident_rows", "count", Lower),
        // rtree
        ("rtree.window_us", "us", Lower),
        ("rtree.node_reads_per_query", "count", Lower),
        ("rtree.join_ms", "ms", Lower),
        ("rtree.kernel_tests", "count", Lower),
        ("rtree.candidates", "count", Lower),
        ("rtree.bulk_load_ms", "ms", Lower),
        ("rtree.insert_us", "us", Lower),
        ("rtree.delete_us", "us", Lower),
        // geom
        ("geom.prepare_us", "us", Lower),
        ("geom.relate_us", "us", Lower),
        ("geom.filter_hit_ratio", "ratio", Higher),
        // quadtree
        ("quadtree.tessellate_us", "us", Lower),
        ("quadtree.tiles_per_geom", "count", Lower),
        // core
        ("core.join_ms", "ms", Lower),
        ("core.join_first_batch_ms", "ms", Lower),
        ("core.create_rtree_ms", "ms", Lower),
        ("core.create_quadtree_ms", "ms", Lower),
        // tablefunc
        ("tf.dop2_speedup", "ratio", Higher),
        ("tf.tasks_executed", "count", Lower),
        ("tf.tasks_stolen", "count", Lower),
        ("tf.pool_jobs", "count", Lower),
        ("tf.pool_workers", "count", Lower),
        // obs
        ("obs.profile_overhead_ratio", "ratio", Lower),
        // storage::wal + txn
        ("wal.append_us", "us", Lower),
        ("wal.sync_us", "us", Lower),
        ("txn.commit_us", "us", Lower),
        ("wal.bytes_per_user_byte", "ratio", Lower),
        ("wal.fsyncs_per_commit", "ratio", Lower),
    ]
};

// ---------------------------------------------------------------------------
// Host and build description
// ---------------------------------------------------------------------------

pub fn host() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    obj([
        ("nproc", std::thread::available_parallelism().map_or(1, usize::from).into()),
        ("cpu_model", model.into()),
        // As the engine's own kernel dispatcher reports it.
        ("isa", sdo_rtree::dispatched().name().into()),
        ("os", std::env::consts::OS.into()),
        ("arch", std::env::consts::ARCH.into()),
    ])
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkouts are not repositories, hence "unknown" there.
pub fn git_rev() -> String {
    let read = |p: String| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD".into()) else { return "unknown".into() };
    match head.strip_prefix("ref: ") {
        Some(r) => read(format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Worse,
    /// A run's own round-to-round spread exceeds the bound: the runs
    /// cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }

    pub fn passes(self) -> bool {
        matches!(self, Verdict::Improved | Verdict::WithinBound)
    }
}

/// How much worse `new` is than `base`, as a share of `base`;
/// negative when it is better.
pub fn worsening(spec: &Spec, base: f64, new: f64) -> f64 {
    match spec.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn verdict(spec: &Spec, base: f64, new: f64, spreads: [Option<f64>; 2]) -> Verdict {
    if spreads.iter().flatten().any(|s| *s > spec.bound) {
        return Verdict::Unresolved;
    }
    let w = worsening(spec, base, new);
    if !w.is_finite() {
        Verdict::Unresolved
    } else if w > spec.bound {
        Verdict::Worse
    } else if w < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

pub struct DiffRow {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub verdict: Verdict,
}

fn metric_of<'a>(suite: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    suite.get("workloads")?.get(workload)?.get("metrics")?.get(metric)
}

/// One row per (workload, end-to-end metric) present in both suite
/// records, plus each workload's `fail_ratio` against its absolute
/// bound.
pub fn diff(a: &Json, b: &Json) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    let workloads = a.get("workloads").map(Json::entries).unwrap_or_default();
    for (workload, _) in workloads {
        for spec in &END_TO_END {
            let (Some(ma), Some(mb)) =
                (metric_of(a, workload, spec.name), metric_of(b, workload, spec.name))
            else {
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
            let spread = |m: &Json| m.get("spread").and_then(Json::num);
            rows.push(DiffRow {
                workload: workload.clone(),
                metric: spec.name.into(),
                base: value(ma),
                new: value(mb),
                verdict: verdict(spec, value(ma), value(mb), [spread(ma), spread(mb)]),
            });
        }
        let fail =
            |s: &Json| s.get("workloads")?.get(workload)?.get("fail_ratio").and_then(Json::num);
        if let (Some(fa), Some(fb)) = (fail(a), fail(b)) {
            let verdict = if fb > FAIL_RATIO_BOUND {
                Verdict::Worse
            } else if fa > FAIL_RATIO_BOUND {
                Verdict::Improved
            } else {
                Verdict::WithinBound
            };
            rows.push(DiffRow {
                workload: workload.clone(),
                metric: "fail_ratio".into(),
                base: fa,
                new: fb,
                verdict,
            });
        }
    }
    rows
}

pub fn render_diff(rows: &[DiffRow]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "base", "new", "change"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>+8.1}%  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            if r.new == r.base { 0.0 } else { (r.new - r.base) / r.base * 100.0 },
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    const LAT: Spec = Spec { name: "lat", unit: "ms", better: Better::Lower, bound: 0.10 };
    const TPUT: Spec = Spec { name: "tput", unit: "1/s", better: Better::Higher, bound: 0.10 };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(verdict(&LAT, 10.0, 10.5, [None, None]), Verdict::WithinBound);
        assert_eq!(verdict(&LAT, 10.0, 11.5, [None, None]), Verdict::Worse);
        assert_eq!(verdict(&LAT, 10.0, 8.0, [None, None]), Verdict::Improved);
        // Higher is better for throughput: the same numbers flip.
        assert_eq!(verdict(&TPUT, 10.0, 11.5, [None, None]), Verdict::Improved);
        assert_eq!(verdict(&TPUT, 10.0, 8.0, [None, None]), Verdict::Worse);
        // A noisy run resolves nothing, whichever side it is on, and
        // is never reported as unchanged.
        assert_eq!(verdict(&LAT, 10.0, 10.0, [Some(0.3), None]), Verdict::Unresolved);
        assert_eq!(verdict(&LAT, 10.0, 20.0, [Some(0.01), Some(0.2)]), Verdict::Unresolved);
        assert_eq!(verdict(&LAT, 0.0, 1.0, [None, None]), Verdict::Unresolved);
        assert!(!Verdict::Unresolved.passes() && Verdict::Improved.passes());
    }

    fn suite(p50: f64, spread: f64, fail: f64) -> Json {
        json::parse(&format!(
            r#"{{"workloads": {{"wire_join": {{"fail_ratio": {fail}, "metrics": {{
                "lat_p50_ms": {{"value": {p50}, "unit": "ms", "spread": {spread}}},
                "peak_rss_mb": {{"value": 50.0, "unit": "MB", "spread": null}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn diff_walks_workloads_and_metrics() {
        let rows = diff(&suite(100.0, 0.01, 0.0), &suite(140.0, 0.02, 0.01));
        let find = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(rows.len(), 3);
        assert_eq!(find("lat_p50_ms"), Verdict::Worse);
        assert_eq!(find("peak_rss_mb"), Verdict::WithinBound);
        assert_eq!(find("fail_ratio"), Verdict::Worse);
        assert!(render_diff(&rows).contains("wire_join"));
        let rows = diff(&suite(100.0, 0.01, 0.0), &suite(101.0, 0.5, 0.0));
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }

    /// `BENCHMARK.json` at the repository root is the contract; these
    /// tables are what the program prints. They must say the same.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} missing") };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(Json::num))
                })
                .collect()
        };
        let word = |b: Better| if b == Better::Lower { "lower" } else { "higher" }.to_string();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string(), word(s.better), Some(s.bound)))
            .collect();
        assert_eq!(listed("end_to_end"), ours);
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), word(*b), None))
            .collect();
        assert_eq!(listed("per_layer"), ours);
        let Some(Json::Arr(w)) = doc.get("workloads") else { panic!("workloads missing") };
        let names: Vec<&str> =
            w.iter().map(|x| x.get("name").and_then(Json::str).unwrap()).collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
