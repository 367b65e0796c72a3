//! Smoke test of the whole benchmark at `--smoke` sizes: every name in
//! `BENCHMARK.json` is printed exactly once per workload with a unit,
//! the result line has the contract's shape, trace files parse, and two
//! runs of one seed agree on every count.

use oaken_servebench::compare::BENCHMARK_JSON;
use oaken_servebench::json::{parse, Value};
use oaken_servebench::report::WorkloadResult;
use oaken_servebench::run::{run_workload, Mode, Options};
use oaken_servebench::workload::smoke_specs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Metrics that are counts (or ratios of counts): the same seed must
/// give the same value on every run.
const COUNTS: [&str; 21] = [
    "finished_share",
    "peak_kv_mb",
    "token_match_fp32",
    "core.encoded_bytes_per_row",
    "mmu.page_fill_share",
    "mmu.swap_bytes",
    "model.kv_read_bytes_per_token",
    "model.prefix_hit_share",
    "serving.ticks",
    "serving.batch_occupancy_mean",
    "serving.tokens_fed_per_step_mean",
    "serving.prefill_step_share",
    "serving.queue_wait_ticks_p90",
    "serving.admission_stalls",
    "serving.preemptions",
    "cluster.affinity_hit_share",
    "cluster.wire_bytes_per_request",
    "cluster.ttft_ticks_p90",
    "cluster.clock_over_monolithic",
    // Sample counts behind the percentiles, via `info` lines:
    "ttft_samples",
    "itl_samples",
];

fn benchmark_json() -> Value {
    parse(BENCHMARK_JSON).expect("valid JSON")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> BTreeMap<String, String> {
    bench
        .get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke_run(out: PathBuf, seed: u64) -> Vec<WorkloadResult> {
    let opts = Options {
        seed,
        seconds: 1.0,
        mode: Mode::Both,
        probe_secs: 0.002,
        out,
    };
    smoke_specs()
        .iter()
        .map(|spec| {
            let result = run_workload(spec, &opts).expect("trace file written");
            assert!(result.correct(), "{}: {:?}", spec.name, result.failures);
            assert_eq!(result.failed, 0);
            result
        })
        .collect()
}

/// `name → (value, unit)` of the `metric` lines, asserting no repeats.
fn printed_metrics(result: &WorkloadResult) -> BTreeMap<String, (String, String)> {
    let mut seen = BTreeMap::new();
    for line in result.lines().lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words[0] != "metric" {
            continue;
        }
        assert_eq!(words[1], result.workload);
        assert!(words.len() >= 5, "metric line lacks a unit: {line}");
        let previous = seen.insert(
            words[2].to_owned(),
            (words[3].to_owned(), words[4].to_owned()),
        );
        assert!(previous.is_none(), "{} printed twice", words[2]);
    }
    seen
}

#[test]
fn every_declared_metric_is_printed_once_and_counts_repeat() {
    let bench = benchmark_json();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let specs = smoke_specs();
    assert_eq!(workloads, specs.iter().map(|s| s.name).collect::<Vec<_>>());
    assert!(end_to_end.contains_key("setup_s"));

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let first = smoke_run(out.join("a"), 5);
    let second = smoke_run(out.join("b"), 5);
    for (a, b) in first.iter().zip(&second) {
        let printed = printed_metrics(a);
        let mut declared_all = end_to_end.clone();
        declared_all.extend(per_layer.clone());
        assert_eq!(
            printed.keys().collect::<Vec<_>>(),
            declared_all.keys().collect::<Vec<_>>(),
            "{}: printed metrics differ from BENCHMARK.json",
            a.workload
        );
        for (name, (value, unit)) in &printed {
            assert_eq!(unit, &declared_all[name], "{name}: unit");
            assert!(value.parse::<f64>().is_ok(), "{name}: value {value}");
        }

        // The result line: exactly the contract's keys.
        let result = parse(&a.result_json()).expect("result line is JSON");
        let keys: Vec<&String> = result.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));

        // The trace parses and holds one span per tick.
        let trace =
            std::fs::read_to_string(out.join("a").join(format!("trace.{}.json", a.workload)))
                .expect("trace file");
        let trace = parse(&trace).expect("trace is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        let tick_spans = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("tick"))
            .count();
        assert!(
            tick_spans as u64 >= a.ticks,
            "{}: {tick_spans} spans",
            a.workload
        );
        assert!(events
            .iter()
            .any(|e| e.get("cat").and_then(Value::as_str) == Some("request")));

        // Same seed, same counts.
        assert_eq!(a.digest, b.digest, "{}: digest", a.workload);
        assert_eq!(a.ticks, b.ticks, "{}: ticks", a.workload);
        assert_eq!(a.attempted, b.attempted);
        let value = |r: &WorkloadResult, name: &str| {
            r.end_to_end
                .iter()
                .chain(&r.per_layer)
                .find(|m| m.name == name)
                .map(|m| m.value.to_string())
                .or_else(|| {
                    r.info
                        .iter()
                        .find(|(k, _)| *k == name)
                        .map(|(_, v)| v.clone())
                })
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        for name in COUNTS {
            assert_eq!(value(a, name), value(b, name), "{}: {name}", a.workload);
        }
    }

    // Another seed gives other inputs.
    let other = smoke_run(out.join("c"), 6);
    assert_ne!(first[0].digest, other[0].digest);
}

fn run_binary(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_oaken-servebench"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn the_driver_interface_splits_metrics_by_trace_flag() {
    let bench = benchmark_json();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (flag, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = run_binary(
            &dir,
            &[
                "run",
                "--smoke",
                "--workload",
                "shared_prefix",
                "--seed",
                "9",
                "--seconds",
                "1",
                "--trace",
                flag,
                "--out",
                "out",
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let last = parse(stdout.trim_end().lines().last().expect("a last line")).expect("JSON");
        let metrics = last
            .get("metrics")
            .and_then(Value::as_obj)
            .expect("metrics");
        let want = declared(&bench, list);
        assert_eq!(
            metrics.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "--trace {flag}"
        );
        for (name, m) in metrics {
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(want[name].as_str())
            );
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        }
    }
    assert!(dir.join("out/run.json").exists());

    // `compare` judges two run files with the bounds it was built with.
    let out = run_binary(&dir, &["compare", "out/run.json", "out/run.json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("counts: all match"));

    // Bad input is refused, not measured.
    assert!(!run_binary(&dir, &["run", "--workload", "no_such"])
        .status
        .success());
    assert!(!run_binary(&dir, &["run", "--trace", "2"]).status.success());
}
