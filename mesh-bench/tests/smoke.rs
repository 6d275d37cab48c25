//! Harness tests that need the built binary or the files around it:
//! `BENCHMARK.json` against the metric tables, generator determinism, the
//! `--smoke` run, and the self-time claims against the checked-in traces.

use meshbench::json::{self, Value};
use meshbench::metrics::{CLAIMS, END_TO_END, PER_LAYER, RUN_SECONDS};
use meshbench::workloads::{fastpath_churn, frag_mesh, span_lifecycle, xthread_handoff, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn load(path: PathBuf) -> Value {
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metric_tables() {
    let doc = load(bench_dir().join("../BENCHMARK.json"));
    let Value::Obj(pairs) = &doc else {
        panic!("not an object")
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(f64::from(RUN_SECONDS))
    );
    let paths = doc.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::from("mesh-bench")]);
    assert_eq!(names(&doc, "workloads"), WORKLOADS);

    let e2e = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(listed.get("name").and_then(Value::as_str), Some(def.name));
        assert_eq!(listed.get("unit").and_then(Value::as_str), Some(def.unit));
        assert_eq!(
            listed.get("better").and_then(Value::as_str),
            Some(def.better.as_str())
        );
        let bound = listed.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(
            bound >= def.starting_bound && bound <= 0.25,
            "{}: bound {bound} outside [{}, 0.25]",
            def.name,
            def.starting_bound
        );
    }
    let layers = doc.get("per_layer").and_then(Value::as_array).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (listed, def) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(listed.get("name").and_then(Value::as_str), Some(def.name));
        assert_eq!(listed.get("unit").and_then(Value::as_str), Some(def.unit));
        assert_eq!(
            listed.get("better").and_then(Value::as_str),
            Some(def.better.as_str())
        );
    }
}

#[test]
fn generators_are_deterministic_in_the_seed() {
    let hashes = |seed: u64| {
        [
            fastpath_churn::Plan::new(seed, true).hash(),
            frag_mesh::Plan::new(seed, true).hash(),
            xthread_handoff::Plan::new(seed, true).hash(),
            span_lifecycle::Plan::new(seed, true).hash(),
        ]
    };
    let (a, again, b) = (hashes(11), hashes(11), hashes(12));
    assert_eq!(a, again, "same seed, same op streams");
    for (w, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_ne!(x, y, "workload {w}: different seeds must differ");
    }
}

/// `smoke-result <workload> <result line>` lines of a `--smoke` run.
fn smoke_results() -> Vec<(String, Value)> {
    let out = Command::new(env!("CARGO_BIN_EXE_mesh-bench"))
        .arg("--smoke")
        .output()
        .expect("run mesh-bench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("smoke-result "))
        .map(|l| {
            let (w, line) = l.split_once(' ').expect("workload and result");
            (
                w.to_string(),
                json::parse(line).expect("result line is JSON"),
            )
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_listed_metric_and_fails_nothing() {
    let doc = load(bench_dir().join("../BENCHMARK.json"));
    let results = smoke_results();
    let have_cc = meshbench::tools::have_cc();
    for w in WORKLOADS {
        if w == "preload_kv" && !have_cc {
            continue;
        }
        let mine: Vec<&Value> = results
            .iter()
            .filter(|(name, _)| name == w)
            .map(|(_, v)| v)
            .collect();
        assert_eq!(
            mine.len(),
            2,
            "{w}: one end-to-end and one per-layer result"
        );
        for (result, key) in mine.iter().zip(["end_to_end", "per_layer"]) {
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w} {key}");
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{w} {key}"
            );
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics")
            };
            let listed = names(&doc, key);
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, listed, "{w} {key}: exactly the listed names, in order");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{w}: {name} = {v:?}");
                assert!(
                    m.get("unit").and_then(Value::as_str).is_some(),
                    "{w}: {name} has a unit"
                );
            }
        }
    }
}

#[test]
fn checked_in_traces_bear_out_the_readme_claims() {
    for claim in &CLAIMS {
        let doc = load(bench_dir().join(format!("results/trace-{}.json", claim.workload)));
        let mut shares: Vec<(String, f64)> = doc
            .get("by_layer")
            .and_then(Value::as_array)
            .expect("by_layer")
            .iter()
            .map(|l| {
                (
                    l.get("layer").and_then(Value::as_str).unwrap().to_string(),
                    l.get("share").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        for b in claim.bypassed {
            let share = shares.iter().find(|(l, _)| l == b).expect("layer").1;
            assert!(
                share < 0.10,
                "{}: {b} said to be bypassed has share {share}",
                claim.workload
            );
        }
        // The benchmark's own layers are not allocator layers.
        shares.retain(|(l, _)| !["generator", "ring", "child"].contains(&l.as_str()));
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut top: Vec<&str> = shares
            .iter()
            .take(claim.dominant.len())
            .map(|(l, _)| l.as_str())
            .collect();
        let mut want = claim.dominant.to_vec();
        top.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            top, want,
            "{}: dominant layers, from {shares:?}",
            claim.workload
        );
    }
}
