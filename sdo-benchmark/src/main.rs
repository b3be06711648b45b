//! `sdo-benchmark`: what a client of the spatial server sees over the
//! wire, on four workloads, checked against a brute-force oracle, with
//! a separate traced run that says where the time goes.
//!
//! ```text
//! sdo-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! sdo-benchmark run | trace  [--seed N] [--seconds S] [--out F] every workload, one record
//! sdo-benchmark diff a.json b.json                              verdict per workload x metric
//! sdo-benchmark check-repeat [--seed N] [--seconds S]           run twice, must agree
//! ```
//! `--quick` (any mode) shrinks tables and rounds to a smoke test.
//! See the README beside this package for what each number means.

mod gen;
mod json;
mod layers;
mod oracle;
mod record;
mod run;
mod stats;
mod trace;
mod workloads;

use json::{obj, Json};
use record::{Verdict, END_TO_END, FAIL_RATIO_BOUND, PER_LAYER};
use run::{closed_loop, replay_phase, set_up, tear_down, warm_up, Outcome, ROUNDS};
use stats::{median, pooled_quantile, quartile_spread, spread};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::Workload;

/// Set-ups per untraced run, before and after the measured loop;
/// `setup_s` is the median of them all.
const SETUPS: (usize, usize) = (5, 4);
const DEFAULT_SEED: u64 = 20030305;
const DEFAULT_SECONDS: f64 = 20.0;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    scratch: PathBuf,
    record: Option<PathBuf>,
    out: Option<PathBuf>,
    rest: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
        scratch: PathBuf::from("sdo-benchmark/out"),
        record: None,
        out: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = value()? != "0",
            "--quick" => o.quick = true,
            "--scratch" => o.scratch = value()?.into(),
            "--record" => o.record = Some(value()?.into()),
            "--out" => o.out = Some(value()?.into()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => o.rest.push(other.to_string()),
        }
    }
    if o.seconds == 0.0 {
        o.seconds = if o.quick { 1.0 } else { DEFAULT_SECONDS };
    }
    if o.seconds.is_nan() || o.seconds < 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "diff" | "check-repeat")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let outcome = parse_options(rest).and_then(|o| match command {
        "one" => one(&o),
        "run" => suite(&o, false).and_then(|s| finish_suite(&o, &s)),
        "trace" => suite(&o, true).and_then(|s| finish_suite(&o, &s)),
        "diff" => diff_files(&o),
        _ => check_repeat(&o),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sdo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, one process
// ---------------------------------------------------------------------------

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", value.into()), ("unit", unit.into())])
}

fn one(o: &Options) -> Result<ExitCode, String> {
    let name = o
        .workload
        .as_deref()
        .ok_or("--workload is required (or use run | trace | diff | check-repeat)")?;
    let sizes = if o.quick { workloads::QUICK } else { workloads::FULL };
    let w = workloads::build(name, o.seed, sizes).ok_or_else(|| {
        format!("unknown workload {name}; expected one of {:?}", workloads::NAMES)
    })?;
    // A directory of its own per process: the database, scratch logs
    // and nothing that outlives the run.
    let scratch = o.scratch.join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let measured =
        if o.trace { traced_run(&*w, o, &scratch) } else { untraced_run(&*w, o, &scratch) };
    let _ = std::fs::remove_dir_all(&scratch);
    let mut rec = measured?;

    let Json::Obj(fields) = &mut rec else { unreachable!("records are objects") };
    let mut head = vec![
        ("workload".to_string(), name.into()),
        ("mode".to_string(), if o.trace { "trace" } else { "run" }.into()),
        ("seed".to_string(), o.seed.into()),
        ("seconds".to_string(), o.seconds.into()),
        ("quick".to_string(), o.quick.into()),
        ("clients".to_string(), w.clients().into()),
        ("load".to_string(), "closed loop: each client waits for its reply".into()),
        ("host".to_string(), record::host()),
        ("git_rev".to_string(), record::git_rev().into()),
        ("sizes".to_string(), sizes.to_json()),
        ("data_hash".to_string(), format!("{:016x}", w.data_hash()).into()),
        ("facts".to_string(), w.facts()),
    ];
    head.append(fields);
    *fields = head;

    let path = o.record.clone().unwrap_or_else(|| {
        o.scratch.join(format!("{name}.{}.json", if o.trace { "trace" } else { "run" }))
    });
    std::fs::write(&path, rec.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("record: {}", path.display());

    // The result line: exactly these keys, metrics reduced to value
    // and unit.
    let reduced: Vec<(String, Json)> = rec
        .get("metrics")
        .map(Json::entries)
        .unwrap_or_default()
        .iter()
        .map(|(k, m)| {
            let get = |f: &str| m.get(f).cloned().unwrap_or(Json::Null);
            (k.clone(), obj([("value", get("value")), ("unit", get("unit"))]))
        })
        .collect();
    let line = obj([
        ("correct", rec.get("correct").cloned().unwrap_or(Json::Bool(false))),
        ("attempted", rec.get("attempted").cloned().unwrap_or(Json::Null)),
        ("failed", rec.get("failed").cloned().unwrap_or(Json::Null)),
        ("metrics", Json::Obj(reduced)),
    ]);
    println!("{}", line.line());
    Ok(ExitCode::SUCCESS)
}

fn correctness(attempted: u64, failed: u64) -> Vec<(String, Json)> {
    vec![
        ("attempted".to_string(), attempted.into()),
        ("failed".to_string(), failed.into()),
        ("fail_ratio".to_string(), (failed as f64 / attempted.max(1) as f64).into()),
        ("correct".to_string(), (failed == 0).into()),
    ]
}

fn untraced_run(w: &dyn Workload, o: &Options, scratch: &Path) -> Result<Json, String> {
    // Set up several times: one set-up is one noisy sample, and a
    // later change that moves work into set-up must show. Some run
    // before the measured loop and some after it, so that a disturbance
    // of a second or two cannot sit on all of them.
    let (before, after) = if o.quick { (1, 0) } else { SETUPS };
    let mut ready = set_up(w, scratch)?;
    let mut setup_secs = vec![ready.setup_s];
    for _ in 1..before {
        tear_down(ready);
        ready = set_up(w, scratch)?;
        setup_secs.push(ready.setup_s);
    }
    warm_up(w, &mut ready)?;

    let first = vec![run::WARMUP_OPS; w.clients()];
    let out = closed_loop(
        w,
        &ready.env,
        &mut ready.clients,
        &first,
        Duration::from_secs_f64(o.seconds),
        false,
    );
    let final_ok = w.verify_final(&ready.env);
    let admission = ready.env.server.admission().stats();
    tear_down(ready);
    for _ in 0..after {
        let again = set_up(w, scratch)?;
        setup_secs.push(again.setup_s);
        tear_down(again);
    }
    if out.samples.is_empty() {
        return Err("no operation completed correctly in the measured time".into());
    }

    let n = out.samples.len();
    let quantile = |q| pooled_quantile(&out.samples, ROUNDS, q);
    let (p50, p95, p99) = (quantile(0.50), quantile(0.95), quantile(0.99));
    let round_len = o.seconds / ROUNDS as f64;
    let per_round_rate: Vec<f64> = (0..ROUNDS)
        .map(|r| out.samples.iter().filter(|s| s.round == r).count() as f64 / round_len)
        .collect();
    // (value, spread within this run, samples behind it), in the order
    // of `END_TO_END`.
    let measured = [
        (p50.value, Some(p50.round_spread), n),
        (p95.value, Some(p95.round_spread), n),
        (n as f64 / out.elapsed_s, Some(spread(&per_round_rate)), n),
        (record::peak_rss_mb(), None, 1),
        (median(&setup_secs), Some(quartile_spread(&setup_secs)), setup_secs.len()),
    ];
    let metrics: Vec<(String, Json)> = END_TO_END
        .iter()
        .zip(measured)
        .map(|(spec, (value, spread, samples))| {
            let m = obj([
                ("value", value.into()),
                ("unit", spec.unit.into()),
                ("spread", spread.map_or(Json::Null, Json::from)),
                ("samples", samples.into()),
            ]);
            (spec.name.to_string(), m)
        })
        .collect();

    // The whole-table check counts as one more operation.
    let mut fields = correctness(out.attempted + 1, out.failed + u64::from(!final_ok));
    fields.extend([
        ("rounds".to_string(), ROUNDS.into()),
        ("metrics".to_string(), Json::Obj(metrics)),
        (
            "ungated".to_string(),
            obj([
                ("lat_p99_ms", metric(p99.value, "ms")),
                ("lat_p99_samples_beyond", p99.samples_beyond.into()),
                ("lat_p95_samples_beyond", p95.samples_beyond.into()),
                ("setup_s_each", Json::Arr(setup_secs.iter().map(|s| (*s).into()).collect())),
            ]),
        ),
        ("detail".to_string(), obj([("statement_p50_ms", statement_medians(&out))])),
        (
            "admission".to_string(),
            obj([
                ("admitted", admission.admitted.into()),
                ("queued", admission.queued.into()),
                ("rejected", admission.rejected.into()),
            ]),
        ),
    ]);
    Ok(Json::Obj(fields))
}

/// Median round trip of each statement position in the operation.
fn statement_medians(out: &Outcome) -> Json {
    Json::Arr(
        out.stmt_nanos
            .iter()
            .map(|v| median(&v.iter().map(|n| *n as f64 / 1e6).collect::<Vec<_>>()).into())
            .collect(),
    )
}

/// Shares of the measured time a traced run gives to the plain loop,
/// the loop with root spans recorded, and the replay.
const TRACE_PHASES: [f64; 3] = [0.3, 0.3, 0.4];

fn traced_run(w: &dyn Workload, o: &Options, scratch: &Path) -> Result<Json, String> {
    let mut ready = set_up(w, scratch)?;
    warm_up(w, &mut ready)?;
    let env = &ready.env;
    let phase = |k: usize| Duration::from_secs_f64(o.seconds * TRACE_PHASES[k]);
    // The same loop untraced first, so that the cost of tracing is a
    // number from one process and one data set.
    let first = vec![run::WARMUP_OPS; w.clients()];
    let plain = closed_loop(w, env, &mut ready.clients, &first, phase(0), false);
    let traced = closed_loop(w, env, &mut ready.clients, &plain.next_op, phase(1), true);
    let replayed = replay_phase(w, env, &traced.timings, phase(2), scratch);
    let final_ok = w.verify_final(env);
    let mut layer = layers::probe(w, env, scratch);
    let admission = env.server.admission().stats();
    let wait = sdo_obs::global().histogram("server_admission_wait_ns");
    tear_down(ready);
    if replayed.ops == 0 || plain.samples.is_empty() {
        return Err("a phase of the traced run completed no operation".into());
    }

    let spans = &replayed.tracer.spans;
    let ops = replayed.ops as usize;
    let wire_total: f64 =
        spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.end_ns - s.start_ns) as f64).sum();
    let by_name = trace::self_times(spans);
    for share in trace::SHARES {
        let nanos: f64 =
            by_name.iter().filter(|(n, _)| trace::share_of(n) == share).map(|(_, v)| v).sum();
        layer.push((share, nanos / wire_total));
    }
    let per_op = |name: &str| trace::mean_per_op(spans, name, ops);
    let p50 = |out: &Outcome| pooled_quantile(&out.samples, ROUNDS, 0.5).value;
    layer.extend([
        ("trace.ops", ops as f64),
        ("trace.untraced_lat_p50_ms", p50(&plain)),
        ("trace.traced_lat_p50_ms", p50(&traced)),
        ("trace.overhead_ratio", p50(&traced) / p50(&plain)),
        ("wire.decode_us", per_op("wire.decode_request") / 1e3),
        ("wire.encode_us", (per_op("wire.encode_result") + per_op("wire.decode_result")) / 1e3),
        ("wire.result_bytes", replayed.result_bytes as f64 / ops as f64),
        ("wire.overhead_ms", (wire_total / ops as f64 - per_op("exec.execute")) / 1e6),
        ("admission.admit_us", per_op("admission.admit") / 1e3),
        ("admission.wait_us", wait.mean() / 1e3),
        ("admission.queued", admission.queued as f64),
        ("admission.rejected", admission.rejected as f64),
        ("exec.embedded_ms", per_op("exec.execute") / 1e6),
        ("exec.peak_resident_rows", replayed.peak_resident_rows as f64),
    ]);

    let trace_path = o.scratch.join(format!("trace-{}.json", w.name()));
    std::fs::write(&trace_path, replayed.tracer.to_json().line())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    // In the order BENCHMARK.json lists them; a missing one is a bug.
    let metrics: Vec<(String, Json)> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let v = layer
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} not measured"))
                .1;
            (name.to_string(), metric(v, unit))
        })
        .collect();
    let mut fields = correctness(
        plain.attempted + traced.attempted + replayed.ops + 1,
        plain.failed + traced.failed + replayed.failed + u64::from(!final_ok),
    );
    fields.extend([
        ("metrics".to_string(), Json::Obj(metrics)),
        ("spans_file".to_string(), trace_path.display().to_string().into()),
        (
            "self_ms_per_op_by_span".to_string(),
            Json::Obj(
                by_name
                    .iter()
                    .map(|(k, v)| (k.to_string(), (v / ops as f64 / 1e6).into()))
                    .collect(),
            ),
        ),
    ]);
    Ok(Json::Obj(fields))
}

// ---------------------------------------------------------------------------
// Suites: every workload, each in a process of its own
// ---------------------------------------------------------------------------

/// Run every workload in a fresh process (its own peak RSS, no state
/// carried over) and gather the records into one.
fn suite(o: &Options, traced: bool) -> Result<Json, String> {
    std::fs::create_dir_all(&o.scratch)
        .map_err(|e| format!("create {}: {e}", o.scratch.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut records = Vec::new();
    for name in workloads::NAMES {
        let record = o.scratch.join(format!("{name}.suite-{}.json", std::process::id()));
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            name,
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&o.scratch)
        .arg("--record")
        .arg(&record)
        .stdout(Stdio::null());
        if o.quick {
            cmd.arg("--quick");
        }
        eprintln!("== {name}");
        let status = cmd.status().map_err(|e| format!("start {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
        let text = std::fs::read_to_string(&record)
            .map_err(|e| format!("read {}: {e}", record.display()))?;
        let _ = std::fs::remove_file(&record);
        records.push((name.to_string(), json::parse(&text)?));
    }
    Ok(obj([
        ("benchmark", "sdo-benchmark".into()),
        ("mode", if traced { "trace" } else { "run" }.into()),
        ("seed", o.seed.into()),
        ("seconds", o.seconds.into()),
        ("quick", o.quick.into()),
        ("host", record::host()),
        ("git_rev", record::git_rev().into()),
        ("workloads", Json::Obj(records)),
    ]))
}

/// The correctness gate: no workload of any suite may have a
/// `fail_ratio` above its bound.
fn all_correct(suites: &[&Json]) -> bool {
    let over =
        |r: &Json| r.get("fail_ratio").and_then(Json::num).is_none_or(|f| f > FAIL_RATIO_BOUND);
    let failing: Vec<&str> = suites
        .iter()
        .flat_map(|s| s.get("workloads").map(Json::entries).unwrap_or_default())
        .filter(|(_, r)| over(r))
        .map(|(n, _)| n.as_str())
        .collect();
    if !failing.is_empty() {
        eprintln!("fail_ratio above {FAIL_RATIO_BOUND} on: {}", failing.join(", "));
    }
    failing.is_empty()
}

fn finish_suite(o: &Options, suite: &Json) -> Result<ExitCode, String> {
    if let Some(path) = &o.out {
        std::fs::write(path, suite.pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    print!("{}", suite.pretty());
    Ok(if all_correct(&[suite]) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn report(rows: &[record::DiffRow]) -> ExitCode {
    print!("{}", record::render_diff(rows));
    let bad = rows.iter().filter(|r| !r.verdict.passes()).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{} rows: {} worse, {} unresolved", rows.len(), bad - unresolved, unresolved);
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn diff_files(o: &Options) -> Result<ExitCode, String> {
    let [a, b] = o.rest.as_slice() else {
        return Err("diff needs two suite records: a.json b.json".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| json::parse(&t))
    };
    Ok(report(&record::diff(&load(a)?, &load(b)?)))
}

/// The A/A check: the same build measured twice must agree with
/// itself on every end-to-end metric of every workload.
fn check_repeat(o: &Options) -> Result<ExitCode, String> {
    let (a, b) = (suite(o, false)?, suite(o, false)?);
    if !all_correct(&[&a, &b]) {
        return Ok(ExitCode::FAILURE);
    }
    Ok(report(&record::diff(&a, &b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use record::Better;

    /// Every workload end to end at smoke-test size: set-up, wire
    /// loop, oracle, record — then the traced run with its replay,
    /// probes and span file. Each workload has a directory of its own.
    #[test]
    fn quick_mode_exercises_every_workload_and_the_trace() {
        for name in workloads::NAMES {
            let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("out/test-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&scratch).unwrap();
            let args = [
                "--workload",
                name,
                "--quick",
                "--seconds",
                "0.9",
                "--scratch",
                scratch.to_str().unwrap(),
            ];
            let o = parse_options(&args.map(String::from)).unwrap();
            let w = workloads::build(name, o.seed, workloads::QUICK).unwrap();

            let rec = untraced_run(&*w, &o, &scratch).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                rec.get("failed").and_then(Json::num),
                Some(0.0),
                "{name}: {}",
                rec.pretty()
            );
            for spec in &END_TO_END {
                let v =
                    rec.get("metrics").and_then(|m| m.get(spec.name)).and_then(|m| m.get("value"));
                assert!(v.and_then(Json::num).is_some_and(|v| v > 0.0), "{name}.{}", spec.name);
            }

            let rec =
                traced_run(&*w, &o, &scratch).unwrap_or_else(|e| panic!("{name} traced: {e}"));
            assert_eq!(
                rec.get("failed").and_then(Json::num),
                Some(0.0),
                "{name}: {}",
                rec.pretty()
            );
            let value = |m: &str| {
                rec.get("metrics")
                    .and_then(|x| x.get(m))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::num)
                    .unwrap()
            };
            let shares: f64 = trace::SHARES.iter().map(|s| value(s)).sum();
            assert!((shares - 1.0).abs() < 1e-9, "{name}: shares sum to {shares}");
            assert!(value("trace.ops") >= 1.0);
            let spans =
                std::fs::read_to_string(scratch.join(format!("trace-{name}.json"))).unwrap();
            assert!(matches!(json::parse(&spans), Ok(Json::Arr(v)) if !v.is_empty()));
            let _ = std::fs::remove_dir_all(&scratch);
        }
    }

    #[test]
    fn options_parse_the_contract_flags() {
        let args: Vec<String> = "--workload wire_join --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("wire_join"), 7, 3.0, true)
        );
        assert!(parse_options(&["--bogus".into()]).is_err());
        assert!(parse_options(&["--seed".into()]).is_err());
        assert_eq!(parse_options(&["--quick".into()]).unwrap().seconds, 1.0);
    }

    #[test]
    fn end_to_end_directions_are_as_documented() {
        let higher: Vec<_> =
            END_TO_END.iter().filter(|s| s.better == Better::Higher).map(|s| s.name).collect();
        assert_eq!(higher, ["throughput_ops_s"]);
        assert!(END_TO_END.iter().all(|s| s.bound <= 0.25));
    }
}
