//! `mesh-bench` — see `mesh-bench/README.md`.
//!
//! ```text
//! mesh-bench --workload W --seed N --seconds S --trace 0|1   one contract run
//! mesh-bench --all [--seed N] [--seconds S]                  every workload, end to end
//! mesh-bench --ladder                                        the per-layer cost ladder
//! mesh-bench --trace W [--seed N]                            traced run of one workload
//! mesh-bench --aa [--seed N]                                 A/A self-check
//! mesh-bench --smoke                                         scaled-down run of everything
//! mesh-bench --benchmark-json                                print BENCHMARK.json from the tables
//! ```
//!
//! `--out-dir DIR` redirects the JSON records (default: the build's
//! target directory; the checked-in ones were written with
//! `--out-dir mesh-bench/results`). `--child`, `--backend`, `--traced` and
//! `--setup-repeats` are how a run talks to the child processes it starts.

use meshbench::backend::{GlibcBackend, MeshBackend};
use meshbench::json::{self, obj, Value};
use meshbench::ladder::{self, Budget};
use meshbench::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use meshbench::report::Report;
use meshbench::runner::{self, end_to_end, per_layer, Outcome, Spec};
use meshbench::workloads::{run_in_process, ChildArgs, WORKLOADS};
use meshbench::{aa, tools};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Default)]
struct Args {
    child: bool,
    all: bool,
    ladder: bool,
    aa: bool,
    smoke: bool,
    benchmark_json: bool,
    traced: bool,
    workload: Option<String>,
    backend: Option<String>,
    /// `--trace 0|1` (contract) or `--trace <workload>`.
    trace: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    setup_repeats: usize,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        setup_repeats: 1,
        ..Default::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--child" => a.child = true,
            "--all" => a.all = true,
            "--ladder" => a.ladder = true,
            "--aa" => a.aa = true,
            "--smoke" => a.smoke = true,
            "--benchmark-json" => a.benchmark_json = true,
            "--traced" => a.traced = true,
            "--workload" => a.workload = Some(value("a workload name")?),
            "--backend" => a.backend = Some(value("mesh or glibc")?),
            "--trace" => a.trace = Some(value("0, 1 or a workload name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--setup-repeats" => {
                a.setup_repeats = value("a count")?
                    .parse()
                    .map_err(|_| "bad --setup-repeats")?
            }
            "--out-dir" => a.out_dir = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

fn child(a: &Args) -> Result<(), String> {
    let args = ChildArgs {
        workload: a.workload.clone().ok_or("--child needs --workload")?,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(1.0),
        smoke: a.smoke,
        setup_repeats: a.setup_repeats,
    };
    let out = match a.backend.as_deref() {
        Some("mesh") => run_in_process::<MeshBackend>(&args, a.traced)?,
        Some("glibc") => run_in_process::<GlibcBackend>(&args, a.traced)?,
        other => return Err(format!("--backend must be mesh or glibc, not {other:?}")),
    };
    print!("{}", Report::from(out).encode());
    Ok(())
}

fn record(seed: u64, seconds: f64, outcomes: &[Outcome]) -> Value {
    obj([
        ("schema", "mesh-bench/1".into()),
        ("machine", tools::machine()),
        ("seed", seed.into()),
        ("run_seconds", seconds.into()),
        (
            "workloads",
            Value::Arr(outcomes.iter().map(Outcome::to_json).collect()),
        ),
    ])
}

fn print_ladder(rows: &[ladder::Row]) {
    println!(
        "\n{:<32} {:>12} {:>12} {:>12} {:<4} {:>10}  via",
        "row", "median", "q1", "q3", "unit", "ops/repeat"
    );
    for r in rows {
        println!(
            "{:<32} {:>12.3} {:>12.3} {:>12.3} {:<4} {:>10}  {}",
            r.name, r.summary.median, r.summary.q1, r.summary.q3, r.unit, r.iters, r.via
        );
    }
}

/// Bounds in force: `BENCHMARK.json` when it can be read, else the
/// starting bounds.
fn bounds_in_force() -> impl Fn(&str) -> f64 {
    let doc = std::fs::read_to_string(tools::bench_dir().join("../BENCHMARK.json"))
        .ok()
        .and_then(|s| json::parse(&s).ok());
    move |name: &str| {
        doc.as_ref()
            .and_then(|d| {
                d.get("end_to_end")?
                    .as_array()?
                    .iter()
                    .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
            })
            .and_then(|m| m.get("bound")?.as_f64())
            .or_else(|| {
                END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.starting_bound)
            })
            .unwrap_or(0.25)
    }
}

/// `--benchmark-json`: the contract file, from the metric tables, with
/// each bound at `max(starting, 2 × A/A spread)` when `results/aa.json`
/// is there and at its starting value otherwise.
fn benchmark_json() -> Value {
    let aa = std::fs::read_to_string(tools::bench_dir().join("results/aa.json"))
        .ok()
        .and_then(|s| json::parse(&s).ok());
    let bound = |m: &meshbench::metrics::EndToEnd| {
        aa.as_ref()
            .and_then(|d| {
                d.get("metrics")?
                    .as_array()?
                    .iter()
                    .find(|r| r.get("name").and_then(Value::as_str) == Some(m.name))
            })
            .and_then(|r| r.get("derived_bound")?.as_f64())
            .map_or(m.starting_bound, |b| b.max(m.starting_bound))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "mesh-bench/Cargo.toml",
        "--bin",
        "mesh-bench",
        "--",
    ];
    obj([
        ("command", Value::Arr(command.map(Value::from).to_vec())),
        ("paths", Value::Arr(vec!["mesh-bench".into()])),
        ("run_seconds", u64::from(RUN_SECONDS).into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .zip(meshbench::workloads::WHY)
                    .map(|(w, why)| obj([("name", (*w).into()), ("why", why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", bound(m).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `--smoke`: every workload both ways at scaled-down counts, checking
/// that every listed metric comes out finite and nothing fails.
fn smoke(a: &Args) -> Result<(), String> {
    let have_cc = tools::have_cc();
    let mut problems = Vec::new();
    for &w in &WORKLOADS {
        if w == "preload_kv" && !have_cc {
            println!("smoke: skipping preload_kv (no cc)");
            continue;
        }
        let spec = Spec {
            workload: w.to_string(),
            seed: a.seed,
            seconds: 0.2,
            smoke: true,
        };
        let e2e = end_to_end(&spec)?;
        let budget = Budget {
            repeat: std::time::Duration::from_micros(300),
            repeats: 3,
        };
        let (layers, _, _) = per_layer(&spec, Some(budget))?;
        for (out, listed) in [
            (&e2e, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            (
                &layers,
                PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
        ] {
            println!("smoke-result {w} {}", out.result_line());
            for name in listed {
                match out.metric(name) {
                    Some(v) if v.is_finite() => {}
                    other => problems.push(format!("{w}: {name} = {other:?}")),
                }
            }
            if out.failed != 0 || !out.correct {
                problems.push(format!(
                    "{w}: failed {} correct {} {:?}",
                    out.failed, out.correct, out.notes
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        Ok(())
    } else {
        Err(format!("smoke: {}", problems.join("; ")))
    }
}

fn run() -> Result<bool, String> {
    let a = parse_args()?;
    if a.child {
        return child(&a).map(|()| true);
    }
    if a.benchmark_json {
        print!("{}", benchmark_json().pretty());
        return Ok(true);
    }
    let out_dir = a.out_dir.clone().unwrap_or_else(tools::out_dir);
    let seconds = a.seconds.unwrap_or(RUN_SECONDS as f64);
    if a.smoke {
        return smoke(&a).map(|()| true);
    }
    if a.aa {
        let bounds = bounds_in_force();
        let res = aa::run(a.seed, seconds, &bounds)?;
        let path = runner::write_json(&out_dir, "aa.json", &res.doc)?;
        println!("{}", res.doc.pretty());
        println!(
            "aa: {} — wrote {}",
            if res.passed { "passed" } else { "FAILED" },
            path.display()
        );
        return Ok(res.passed);
    }
    if a.ladder {
        let rows = ladder::run(Budget::full());
        print_ladder(&rows);
        return Ok(true);
    }
    if a.all {
        let mut outcomes = Vec::new();
        for &w in &WORKLOADS {
            let spec = Spec {
                workload: w.to_string(),
                seed: a.seed,
                seconds,
                smoke: false,
            };
            let out = end_to_end(&spec)?;
            out.print_table();
            outcomes.push(out);
        }
        let doc = record(a.seed, seconds, &outcomes);
        let path = runner::write_json(&out_dir, "baseline.json", &doc)?;
        println!("\nwrote {}", path.display());
        return Ok(outcomes.iter().all(|o| o.correct));
    }

    // One workload: the contract's form, or `--trace <workload>`.
    let (workload, traced) =
        match (&a.workload, a.trace.as_deref()) {
            (Some(w), Some("1")) => (w.clone(), true),
            (Some(w), Some("0") | None) => (w.clone(), false),
            (None, Some(w)) if WORKLOADS.contains(&w) => (w.to_string(), true),
            _ => return Err(
                "expected --workload W [--trace 0|1], --trace W, --all, --ladder, --aa or --smoke"
                    .into(),
            ),
        };
    let spec = Spec {
        workload,
        seed: a.seed,
        seconds,
        smoke: false,
    };
    let outcome = if traced {
        let (outcome, trace_doc, rows) = per_layer(&spec, None)?;
        let name = format!("trace-{}.json", spec.workload);
        let path = runner::write_json(&out_dir, &name, &trace_doc)?;
        print_ladder(&rows);
        if let Some(layers) = trace_doc.get("by_layer").and_then(Value::as_array) {
            println!("\nself time by layer ({}):", path.display());
            for l in layers {
                println!(
                    "  {:<16} {:>14.0} ns {:>7.2} %",
                    l.get("layer").and_then(Value::as_str).unwrap_or(""),
                    l.get("self_ns").and_then(Value::as_f64).unwrap_or(0.0),
                    100.0 * l.get("share").and_then(Value::as_f64).unwrap_or(0.0)
                );
            }
        }
        outcome
    } else {
        end_to_end(&spec)?
    };
    outcome.print_table();
    println!("{}", outcome.result_line());
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mesh-bench: {e}");
            ExitCode::from(2)
        }
    }
}
