//! Runs one workload the way the contract asks: fresh child processes
//! (so `VmHWM` belongs to the workload), glibc and Mesh interleaved
//! G/M/G/M on the same seed, medians over rounds, and every metric by name.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` re-runs the Mesh side untraced and traced, joins the span
//! self times with the `HeapStats` movement taken at the same boundaries,
//! runs the ladder, and reports the per-layer metrics.

use crate::json::{obj, Value};
use crate::ladder::{self, Budget, Row};
use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::report::Report;
use crate::spans::{NameTotals, Recorder, SpanName, Tracer, ALL_SPAN_NAMES};
use crate::stats::{self, LatHist, Summary};
use crate::tools::{self, Artifacts};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Which allocator a child runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Mesh,
    Glibc,
}

impl Side {
    pub fn name(self) -> &'static str {
        match self {
            Side::Mesh => "mesh",
            Side::Glibc => "glibc",
        }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: String,
    pub seed: u64,
    /// The measured window, shared out among the children.
    pub seconds: f64,
    pub smoke: bool,
}

/// Shares of the window: each of the two Mesh children, each of the two
/// glibc children (glibc only has to yield a round time and a steady RSS).
const MESH_SHARE: f64 = 0.35;
const GLIBC_SHARE: f64 = 0.15;
/// Timed set-ups per Mesh child.
const SETUP_REPEATS: usize = 3;
/// No child may outlive this; the contract gives a run 180 s.
const CHILD_DEADLINE: Duration = Duration::from_secs(120);

/// A named value with, where it has one, its distribution within the run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    pub via: String,
}

impl Metric {
    pub fn to_json(&self) -> Value {
        let mut v = obj([
            ("name", self.name.into()),
            ("value", self.value.into()),
            ("unit", self.unit.into()),
        ]);
        if let Some(s) = self.summary {
            v.set("median", s.median.into());
            v.set("q1", s.q1.into());
            v.set("q3", s.q3.into());
            v.set("n", s.n.into());
        }
        if !self.via.is_empty() {
            v.set("via", self.via.as_str().into());
        }
        v
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub spec: Spec,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
    /// Round shape and bookkeeping for the record.
    pub detail: Value,
    pub wall_s: f64,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        obj([("value", m.value.into()), ("unit", m.unit.into())]),
                    )
                })
                .collect(),
        );
        obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
        ])
        .compact()
    }

    /// The long form kept in records.
    pub fn to_json(&self) -> Value {
        obj([
            ("workload", self.spec.workload.as_str().into()),
            ("seed", self.spec.seed.into()),
            ("seconds", self.spec.seconds.into()),
            ("traced", self.traced.into()),
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "fail_rate",
                (self.failed as f64 / self.attempted.max(1) as f64).into(),
            ),
            ("wall_s", self.wall_s.into()),
            ("detail", self.detail.clone()),
            (
                "notes",
                Value::Arr(self.notes.iter().map(|n| n.as_str().into()).collect()),
            ),
            (
                "metrics",
                Value::Arr(self.metrics.iter().map(Metric::to_json).collect()),
            ),
        ])
    }

    pub fn print_table(&self) {
        println!(
            "\n== {} seed {} ({}) — {:.1} s wall",
            self.spec.workload,
            self.spec.seed,
            if self.traced {
                "per-layer, traced"
            } else {
                "end-to-end, untraced"
            },
            self.wall_s
        );
        for m in &self.metrics {
            let dist = m.summary.map_or(String::new(), |s| {
                format!("  [q1 {:.6} q3 {:.6} n {}]", s.q1, s.q3, s.n)
            });
            println!("{:<40} {:>16.6} {:<6}{dist}", m.name, m.value, m.unit);
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}

// ----- child processes -----------------------------------------------------------

struct Finished {
    ok: bool,
    stdout: String,
    stderr: String,
}

/// Runs `cmd` to completion with both pipes drained, killing it at the
/// deadline; the child has always been waited for when this returns.
fn run_to_end<T: Tracer>(mut cmd: Command, tracer: &mut T, op: u64) -> Result<Finished, String> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = tracer
        .span(SpanName::ChildSpawn, op, || cmd.spawn())
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    let mut out = child.stdout.take().expect("piped stdout");
    let mut err = child.stderr.take().expect("piped stderr");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err.read_to_string(&mut s);
        s
    });
    // The watchdog only has to fire for a child that hangs; a finished
    // child closes its pipes and the reads below end on their own.
    let pid = child.id();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(CHILD_DEADLINE).is_err() {
            // SAFETY: plain syscall; the pid is our still-unreaped child.
            unsafe { kill(pid as i32, 9) };
            true
        } else {
            false
        }
    });
    tracer.enter(SpanName::ChildWait, op);
    let mut stdout = String::new();
    let _ = out.read_to_string(&mut stdout);
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    tracer.exit();
    let _ = done_tx.send(());
    let timed_out = watchdog.join().unwrap_or(false);
    let stderr = reader.join().unwrap_or_default();
    if timed_out {
        return Err(format!("child exceeded {CHILD_DEADLINE:?} and was killed"));
    }
    Ok(Finished {
        ok: status.success(),
        stdout,
        stderr,
    })
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

struct ChildPlan<'a> {
    spec: &'a Spec,
    side: Side,
    seconds: f64,
    traced: bool,
    setup_repeats: usize,
}

/// Runs one child and parses its report. The second value is the flat
/// `HeapStats` view: the report's own `stat` lines, or for `kv` under
/// `LD_PRELOAD` what `mesh_stats_print()` wrote to stderr.
fn run_child<T: Tracer>(
    plan: &ChildPlan,
    art: &Artifacts,
    tracer: &mut T,
    op: u64,
) -> Result<Report, String> {
    let spec = plan.spec;
    let cmd = if spec.workload == "preload_kv" {
        let kv = art
            .kv
            .as_ref()
            .ok_or("preload_kv needs a C compiler (cc)")?;
        let mut cmd = Command::new(kv);
        cmd.args(["--seed", &spec.seed.to_string()])
            .args(["--seconds", &plan.seconds.to_string()])
            .args(["--setup-repeats", &plan.setup_repeats.to_string()]);
        if spec.smoke {
            cmd.arg("--smoke");
        }
        cmd.env_remove("LD_PRELOAD");
        if plan.side == Side::Mesh {
            // Everything else about Mesh stays at its defaults: inline
            // meshing at the 100 ms period, sense polling, no profiling.
            cmd.env("LD_PRELOAD", &art.libmesh)
                .env("MESH_SEED", spec.seed.to_string());
        }
        cmd
    } else {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--child")
            .args(["--workload", &spec.workload])
            .args(["--backend", plan.side.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--seconds", &plan.seconds.to_string()])
            .args(["--setup-repeats", &plan.setup_repeats.to_string()]);
        if plan.traced {
            cmd.arg("--traced");
        }
        if spec.smoke {
            cmd.arg("--smoke");
        }
        cmd.env_remove("LD_PRELOAD");
        cmd
    };
    let fin = run_to_end(cmd, tracer, op)?;
    if !fin.ok {
        return Err(format!(
            "{} child on {} exited with failure: {}",
            spec.workload,
            plan.side.name(),
            fin.stderr.lines().last().unwrap_or("")
        ));
    }
    let mut report = Report::parse(&fin.stdout)?;
    if spec.workload == "preload_kv" {
        let interposed = report.interposed == Some(true);
        if interposed != (plan.side == Side::Mesh) {
            return Err(format!(
                "kv on {} reports interposed={interposed}",
                plan.side.name()
            ));
        }
        report.stats.extend(parse_mesh_stats(&fin.stderr));
    }
    if report.rounds.is_empty() {
        return Err("child reported no rounds".into());
    }
    Ok(report)
}

/// Flattens the `mesh:` / `mesh-latency:` lines `mesh_stats_print()` emits
/// into the key space of `heapstats::flatten_delta`.
fn parse_mesh_stats(stderr: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let pairs = |line: &str| -> Vec<(String, String)> {
        line.split_whitespace()
            .filter_map(|w| w.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    for line in stderr.lines() {
        if let Some(rest) = line.strip_prefix("mesh: ") {
            for (k, v) in pairs(rest) {
                let Ok(v) = v.parse::<f64>() else { continue };
                let key = match k.as_str() {
                    "pairs_meshed" => "spans_meshed".to_string(),
                    "peak_heap_bytes" => {
                        out.push(("committed_pages_peak".into(), v / 4096.0));
                        continue;
                    }
                    "mapped_bytes" => {
                        out.push(("mapped_pages".into(), v / 4096.0));
                        continue;
                    }
                    "remote_frees" => {
                        // Every remote free is queued, and `stats()` drains.
                        out.push(("remote_free_queued".into(), v));
                        out.push(("remote_free_drained".into(), v));
                        k
                    }
                    _ => k,
                };
                out.push((key, v));
            }
        } else if let Some(rest) = line.strip_prefix("mesh-latency: ") {
            let kv = pairs(rest);
            let Some(op) = kv.iter().find(|(k, _)| k == "op").map(|(_, v)| v.clone()) else {
                continue;
            };
            for (k, v) in &kv {
                if let Ok(v) = v.parse::<f64>() {
                    out.push((format!("lat.{op}.{k}"), v));
                }
            }
            let count = kv
                .iter()
                .find(|(k, _)| k == "count")
                .and_then(|(_, v)| v.parse::<f64>().ok())
                .unwrap_or(0.0);
            match op.as_str() {
                "refill" => out.push(("refills".into(), count)),
                "class_lock_wait" => out.push(("class_lock_contention".into(), count)),
                "arena_lock_wait" => out.push(("arena_lock_contention".into(), count)),
                _ => {}
            }
        }
    }
    out
}

// ----- end to end ------------------------------------------------------------------

fn round_samples(
    reports: &[&Report],
    f: impl Fn(&Report, &crate::workloads::Round) -> f64,
) -> Vec<f64> {
    reports
        .iter()
        .flat_map(|r| r.rounds.iter().map(|round| f(r, round)))
        .collect()
}

fn summarised(name: &'static str, samples: &[f64], via: &str) -> Metric {
    let def = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("listed metric");
    let s = Summary::of(samples).expect("samples");
    Metric {
        name,
        unit: def.unit,
        value: s.median,
        summary: Some(s),
        via: via.to_string(),
    }
}

fn plain(name: &'static str, value: f64, via: &str) -> Metric {
    let def = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("listed metric");
    Metric {
        name,
        unit: def.unit,
        value,
        summary: None,
        via: via.to_string(),
    }
}

/// The untraced run: G/M/G/M children, every end-to-end metric.
pub fn end_to_end(spec: &Spec) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let art = tools::ensure_built()?;
    let mut tracer = crate::spans::NoTrace;
    let mut mesh: Vec<Report> = Vec::new();
    let mut glibc: Vec<Report> = Vec::new();
    for (i, side) in [Side::Glibc, Side::Mesh, Side::Glibc, Side::Mesh]
        .into_iter()
        .enumerate()
    {
        let plan = ChildPlan {
            spec,
            side,
            seconds: spec.seconds
                * if side == Side::Mesh {
                    MESH_SHARE
                } else {
                    GLIBC_SHARE
                },
            traced: false,
            setup_repeats: if side == Side::Mesh { SETUP_REPEATS } else { 1 },
        };
        let report = run_child(&plan, &art, &mut tracer, i as u64)?;
        match side {
            Side::Mesh => mesh.push(report),
            Side::Glibc => glibc.push(report),
        }
    }
    let m: Vec<&Report> = mesh.iter().collect();
    let g: Vec<&Report> = glibc.iter().collect();
    let mut notes = Vec::new();

    let setup: Vec<f64> = m.iter().flat_map(|r| r.setup_s.iter().copied()).collect();
    let rates = round_samples(&m, |_, r| r.ops as f64 / r.secs);
    let mut hist = LatHist::default();
    for r in &m {
        hist.merge(&r.hist);
    }
    if !stats::percentile_supported(hist.count() as usize, 0.99) {
        notes.push(format!(
            "op_p99_ns rests on {} samples, fewer than the 1000 it needs",
            hist.count()
        ));
    }
    let peak: Vec<f64> = m.iter().map(|r| r.hwm_kib as f64 / 1024.0).collect();
    let steady = round_samples(&m, |_, r| r.steady_rss_kib as f64 / 1024.0);
    let frag_via_rss = m.iter().any(|r| r.rounds.iter().any(|x| x.heap_bytes == 0));
    let frag = round_samples(&m, |rep, r| {
        let committed = if r.heap_bytes > 0 {
            r.heap_bytes as f64
        } else {
            r.steady_rss_kib.saturating_sub(rep.baseline_rss_kib) as f64 * 1024.0
        };
        committed / r.live_req_bytes.max(1) as f64
    });
    let steady_glibc = round_samples(&g, |_, r| r.steady_rss_kib as f64 / 1024.0);
    let secs_mesh = round_samples(&m, |_, r| r.secs);
    let secs_glibc = round_samples(&g, |_, r| r.secs);
    let samples_note = format!("{} sampled calls, 1 in 64", hist.count());

    let metrics = vec![
        summarised(
            "setup_s",
            &setup,
            "plan + heap + warm-up round, per Mesh child set-up",
        ),
        summarised(
            "ops_per_s",
            &rates,
            "malloc+free calls per second, per round",
        ),
        plain("op_p50_ns", hist.quantile(0.50), &samples_note),
        plain("op_p99_ns", hist.quantile(0.99), &samples_note),
        summarised("peak_rss_mib", &peak, "VmHWM of each Mesh child"),
        summarised(
            "steady_rss_mib",
            &steady,
            "RSS at each round's steady point",
        ),
        summarised(
            "frag_ratio",
            &frag,
            if frag_via_rss {
                "(steady RSS - empty-heap RSS) / requested live bytes"
            } else {
                "Mesh::heap_bytes() / requested live bytes"
            },
        ),
        plain(
            "rss_vs_glibc",
            stats::median(&steady) / stats::median(&steady_glibc),
            "median steady RSS, Mesh / glibc, same binary and seed",
        ),
        plain(
            "time_vs_glibc",
            stats::median(&secs_mesh) / stats::median(&secs_glibc),
            "median round time, Mesh / glibc, interleaved G/M/G/M",
        ),
    ];

    let all: Vec<&Report> = m.iter().chain(&g).copied().collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let hashes: Vec<u64> = all.iter().map(|r| r.plan_hash).collect();
    let same_inputs = hashes.windows(2).all(|w| w[0] == w[1]);
    if !same_inputs {
        notes.push(format!("children disagree about the op stream: {hashes:?}"));
    }
    let finite = metrics.iter().all(|x| x.value.is_finite() && x.value > 0.0);
    if !finite {
        notes.push("a metric is not a positive finite number".into());
    }
    let ops_per_round = stats::median(&round_samples(&m, |_, r| r.ops as f64));
    let detail = obj([
        ("loop", "closed".into()),
        ("threads", m[0].threads.into()),
        ("ops_per_round", ops_per_round.into()),
        ("mesh_rounds", rates.len().into()),
        ("glibc_rounds", secs_glibc.len().into()),
        ("latency_samples", hist.count().into()),
        ("plan_hash", format!("{:016x}", m[0].plan_hash).into()),
        ("build_s", art.build_s.into()),
        (
            "glibc_ops_per_s",
            stats::median(&round_samples(&g, |_, r| r.ops as f64 / r.secs)).into(),
        ),
        ("glibc_steady_rss_mib", stats::median(&steady_glibc).into()),
    ]);
    Ok(Outcome {
        spec: spec.clone(),
        traced: false,
        metrics,
        attempted,
        failed,
        correct: failed == 0 && same_inputs && finite,
        notes,
        detail,
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

// ----- per layer ---------------------------------------------------------------------

/// Self time per layer from the span totals of a traced child and the
/// `HeapStats.latency` sums taken at the same boundaries.
///
/// Spans surround public calls only, so a private layer's time first lands
/// on the public face that reached it. Where `HeapStats` times the inner
/// step and its caller is unambiguous, the step is moved to its own layer:
/// refills (`global_heap`) out of `ThreadHeap::malloc`, remote drains out
/// of refills, transfer-cache spills and flushes out of the remote-free
/// calls, segment grow/retire out of whatever reached the arena. `madvise`
/// and lock waits have several callers and stay where they are; their
/// sums are reported as *nested* shares instead.
pub fn layer_self_times(
    totals: &[NameTotals],
    stat: &dyn Fn(&str) -> f64,
) -> Vec<(&'static str, f64)> {
    let own = |names: &[SpanName]| -> f64 {
        names
            .iter()
            .map(|&n| totals[n as usize].self_ns as f64)
            .sum()
    };
    let sum = |op: &str| stat(&format!("lat.{op}.sum_ns"));
    let refill = sum("refill");
    let drain = sum("remote_drain");
    let grow = sum("segment_grow");
    let retire = sum("segment_retire");
    let xfer = sum("transfer_spill") + sum("transfer_flush");
    let local = own(&[
        SpanName::Malloc,
        SpanName::Free,
        SpanName::HeapCreate,
        SpanName::HeapDrop,
    ]);
    let large = own(&[SpanName::MallocLarge, SpanName::FreeLarge]);
    let remote = own(&[SpanName::FreeRemote, SpanName::Flush]);
    let purge = own(&[SpanName::Purge]);
    vec![
        ("generator", own(&[SpanName::Op, SpanName::Verify])),
        ("ring", own(&[SpanName::RingPush, SpanName::RingPop])),
        ("child", own(&[SpanName::ChildSpawn, SpanName::ChildWait])),
        ("local_heap", (local - refill).max(0.0)),
        ("global_heap", (refill - drain - grow).max(0.0) + large),
        ("remote_free", (remote - xfer).max(0.0) + drain),
        ("transfer_cache", xfer),
        ("meshing", own(&[SpanName::MeshNow])),
        ("arena", (purge - retire).max(0.0)),
        ("segment", grow + retire),
        ("sys", own(&[SpanName::Touch])),
        ("telemetry", own(&[SpanName::Stats])),
    ]
}

/// Maps the flat `HeapStats` view onto the `Source::Stats` metrics.
/// `rounds` is the number of rounds the counters moved over: counts are
/// reported per round, ratios, percentiles and gauges as they are.
fn stat_metric(name: &str, stat: &dyn Fn(&str) -> f64, rounds: f64) -> f64 {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let lat = |op: &str, field: &str| stat(&format!("lat.{op}.{field}"));
    let per_round = |key: &str| stat(key) / rounds;
    match name {
        "transfer_cache.hits" => per_round("transfer_hits"),
        "transfer_cache.misses" => per_round("transfer_misses"),
        "transfer_cache.spills" => per_round("transfer_spills"),
        "transfer_cache.hit_ratio" => ratio(
            stat("transfer_hits"),
            stat("transfer_hits") + stat("transfer_misses"),
        ),
        "transfer_cache.spill_p50_ns" => lat("transfer_spill", "p50_ns"),
        "transfer_cache.flush_p50_ns" => lat("transfer_flush", "p50_ns"),
        "remote_free.queued" => per_round("remote_free_queued"),
        "remote_free.drained" => per_round("remote_free_drained"),
        "remote_free.batches" => per_round("remote_free_batches"),
        "remote_free.drain_p50_ns" => lat("remote_drain", "p50_ns"),
        "remote_free.drain_p99_ns" => lat("remote_drain", "p99_ns"),
        "global_heap.refills" => per_round("refills"),
        "global_heap.refill_p50_ns" => lat("refill", "p50_ns"),
        "global_heap.refill_p99_ns" => lat("refill", "p99_ns"),
        "global_heap.refills_per_kop" => {
            1000.0 * ratio(stat("refills"), stat("mallocs") + stat("frees"))
        }
        "global_heap.class_lock_contention" => per_round("class_lock_contention"),
        "global_heap.class_lock_wait_p99_ns" => lat("class_lock_wait", "p99_ns"),
        "global_heap.realloc_in_place_ratio" => {
            ratio(stat("reallocs_in_place"), stat("kv.reallocs"))
        }
        "arena.lock_contention" => per_round("arena_lock_contention"),
        "arena.lock_wait_p99_ns" => lat("arena_lock_wait", "p99_ns"),
        "arena.committed_pages_peak" => stat("committed_pages_peak"),
        "arena.dirty_bytes_steady" => stat("dirty_bytes"),
        "segment.created" => per_round("segments_created"),
        "segment.retired" => per_round("segments_retired"),
        "segment.grow_p50_us" => lat("segment_grow", "p50_ns") / 1e3,
        "segment.retire_p50_us" => lat("segment_retire", "p50_ns") / 1e3,
        "segment.mapped_pages_steady" => stat("mapped_pages"),
        "meshing.candidates_p50_us" => lat("mesh_candidates", "p50_ns") / 1e3,
        "meshing.copy_p50_us" => lat("mesh_copy", "p50_ns") / 1e3,
        "meshing.remap_p50_us" => lat("mesh_remap", "p50_ns") / 1e3,
        "meshing.passes" => per_round("mesh_passes"),
        "meshing.pairs_meshed" => per_round("spans_meshed"),
        "meshing.pages_released" => per_round("mesh_pages_released"),
        "meshing.bytes_copied" => per_round("mesh_bytes_copied"),
        "meshing.pairs_per_probe" => ratio(stat("ledger.pairs_meshed"), stat("ledger.probes")),
        "meshing.reject_occupancy_overlap" => per_round("reject.occupancy_overlap"),
        "meshing.reject_pinned_transfer" => per_round("reject.pinned_transfer"),
        "meshing.reject_class_contention" => per_round("reject.class_contention"),
        "meshing.mutator_pause_p99_us" => lat("mutator_pause", "p99_ns") / 1e3,
        "meshing.mutator_pause_max_us" => lat("mutator_pause", "max_ns") / 1e3,
        other => unreachable!("no HeapStats mapping for {other}"),
    }
}

/// `abi.*` rows: `kv --ladder` under `LD_PRELOAD`, and the start-up cost
/// of the preload on `/bin/true`.
fn abi_rows(art: &Artifacts) -> Result<Vec<(String, f64)>, String> {
    let mut rows = Vec::new();
    let Some(kv) = &art.kv else {
        return Ok(rows);
    };
    let mut cmd = Command::new(kv);
    cmd.arg("--ladder").env("LD_PRELOAD", &art.libmesh);
    let fin = run_to_end(cmd, &mut crate::spans::NoTrace, 0)?;
    if !fin.ok {
        return Err(format!("kv --ladder failed: {}", fin.stderr));
    }
    let report = Report::parse(&fin.stdout)?;
    if report.interposed != Some(true) {
        return Err("kv --ladder did not run on libmesh.so".into());
    }
    rows.extend(report.stats);

    let startup = |preload: bool| -> Result<f64, String> {
        let mut times = Vec::new();
        for _ in 0..15 {
            let mut cmd = Command::new("/bin/true");
            cmd.env_remove("LD_PRELOAD");
            if preload {
                cmd.env("LD_PRELOAD", &art.libmesh);
            }
            let t0 = Instant::now();
            let status = cmd.status().map_err(|e| format!("/bin/true: {e}"))?;
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            if !status.success() {
                return Err("/bin/true failed".into());
            }
        }
        Ok(stats::median(&times))
    };
    rows.push((
        "abi.startup_ms".into(),
        (startup(true)? - startup(false)?).max(0.0),
    ));
    Ok(rows)
}

/// The traced run: every per-layer metric, and the trace document.
pub fn per_layer(
    spec: &Spec,
    ladder_budget: Option<Budget>,
) -> Result<(Outcome, Value, Vec<Row>), String> {
    let t0 = Instant::now();
    let art = tools::ensure_built()?;
    let window = spec.seconds * 0.3;
    let plan = |traced: bool| ChildPlan {
        spec,
        side: Side::Mesh,
        seconds: window,
        traced,
        setup_repeats: 1,
    };
    let untraced = run_child(&plan(false), &art, &mut crate::spans::NoTrace, 0)?;
    let mut parent = Recorder::with_capacity(64, Instant::now());
    let traced = run_child(&plan(true), &art, &mut parent, 1)?;
    let parent = parent.finish();

    let rate = |r: &Report| stats::median(&round_samples(&[r], |_, x| x.ops as f64 / x.secs));
    let (rate_untraced, rate_traced) = (rate(&untraced), rate(&traced));

    // Rounds a child's counters moved over. An in-process child snapshots
    // `HeapStats` around its measured rounds; kv's counts are what
    // `mesh_stats_print()` says at exit, set-up rounds included.
    let counted_rounds = |r: &Report| {
        let setups = if spec.workload == "preload_kv" {
            r.setup_s.len()
        } else {
            0
        };
        (r.rounds.len() + setups) as f64
    };
    let (rounds_untraced, rounds_traced) = (counted_rounds(&untraced), counted_rounds(&traced));

    // Counts come from the untraced child, so tracing cannot perturb them;
    // the self-time join uses the traced child's own boundaries.
    let stat_untraced = |k: &str| untraced.stat(k).unwrap_or(0.0);
    let stat_traced = |k: &str| traced.stat(k).unwrap_or(0.0);
    // An in-process child records its own spans. kv cannot be traced from
    // inside (spans inside the program under test are a later change), so
    // its run is the runner's child.spawn/child.wait pair.
    let in_process = traced.spans_recorded > 0;
    let totals = if in_process {
        traced.span_totals
    } else {
        parent.totals
    };
    let parent = if in_process {
        Default::default()
    } else {
        parent
    };
    let layers = layer_self_times(&totals, &stat_traced);
    let all_self: f64 = layers.iter().map(|(_, ns)| ns).sum::<f64>().max(1.0);
    let nested_madvise = stat_traced("lat.madvise.sum_ns");
    let nested_waits =
        stat_traced("lat.class_lock_wait.sum_ns") + stat_traced("lat.arena_lock_wait.sum_ns");

    let budget = ladder_budget.unwrap_or_else(|| {
        Budget::within(Duration::from_secs_f64(spec.seconds * 0.3), ladder::ROWS)
    });
    let rows = ladder::run(budget);
    let abi = abi_rows(&art)?;

    let mut notes = Vec::new();
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for def in &PER_LAYER {
        let (value, summary, via) = match def.source {
            Source::Ladder => {
                let row = rows
                    .iter()
                    .find(|r| r.name == def.name)
                    .expect("ladder row");
                (row.summary.median, Some(row.summary), row.via.to_string())
            }
            Source::Abi => match abi.iter().find(|(k, _)| k == def.name) {
                Some((_, v)) => (
                    *v,
                    None,
                    "kv --ladder / /bin/true under LD_PRELOAD".to_string(),
                ),
                None => (0.0, None, "unavailable: no C compiler".to_string()),
            },
            Source::Stats => (
                stat_metric(def.name, &stat_untraced, rounds_untraced),
                None,
                format!(
                    "HeapStats over {rounds_untraced} untraced {} rounds",
                    spec.workload
                ),
            ),
            Source::Trace => {
                let v = match def.name {
                    "trace.nested.sys_madvise" => nested_madvise / all_self,
                    "trace.nested.lock_wait" => nested_waits / all_self,
                    "trace.spans" => {
                        (traced.spans_recorded + parent.recorded) as f64 / rounds_traced
                    }
                    "trace.ops_per_s" => rate_traced,
                    "trace_overhead_frac" => 1.0 - rate_traced / rate_untraced,
                    share => {
                        let layer = share.strip_prefix("trace.share.").expect("share metric");
                        layers.iter().find(|(l, _)| *l == layer).expect("layer").1 / all_self
                    }
                };
                (v, None, "traced run".to_string())
            }
        };
        metrics.push(Metric {
            name: def.name,
            unit: def.unit,
            value,
            summary,
            via,
        });
    }
    if spec.workload == "preload_kv" {
        notes.push(
            "kv runs behind LD_PRELOAD: counts come from mesh_stats_print(); ledger, reject and \
             dirty-byte rows are not exposed there and read 0; spans cover child.spawn/child.wait only"
                .into(),
        );
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;

    let trace_doc = obj([
        ("schema", "mesh-bench-trace/1".into()),
        ("workload", spec.workload.as_str().into()),
        ("seed", spec.seed.into()),
        ("machine", tools::machine()),
        ("ops_per_s_untraced", rate_untraced.into()),
        ("ops_per_s_traced", rate_traced.into()),
        (
            "trace_overhead_frac",
            (1.0 - rate_traced / rate_untraced).into(),
        ),
        ("rounds", rounds_traced.into()),
        (
            "spans_recorded",
            (traced.spans_recorded + parent.recorded).into(),
        ),
        (
            "spans_written",
            (traced.spans.len() + parent.spans.len()).into(),
        ),
        (
            "by_call",
            Value::Arr(
                ALL_SPAN_NAMES
                    .iter()
                    .filter(|&&n| totals[n as usize].count > 0)
                    .map(|&n| {
                        let t = totals[n as usize];
                        obj([
                            ("call", n.label().into()),
                            ("layer", n.layer().into()),
                            ("count", t.count.into()),
                            ("total_ns", t.total_ns.into()),
                            ("self_ns", t.self_ns.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "by_layer",
            Value::Arr(
                layers
                    .iter()
                    .map(|(l, ns)| {
                        obj([
                            ("layer", (*l).into()),
                            ("self_ns", (*ns).into()),
                            ("share", (ns / all_self).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "nested",
            obj([
                ("sys_madvise_ns", nested_madvise.into()),
                ("lock_wait_ns", nested_waits.into()),
            ]),
        ),
        (
            "heapstats_at_boundaries",
            Value::Obj(
                traced
                    .stats
                    .iter()
                    .filter(|(_, v)| *v != 0.0)
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect(),
            ),
        ),
        (
            "spans",
            Value::Arr(
                parent
                    .spans
                    .iter()
                    .chain(&traced.spans)
                    .map(|s| {
                        Value::Arr(vec![
                            s.name.label().into(),
                            s.start_ns.into(),
                            s.end_ns.into(),
                            if s.parent == crate::spans::NO_PARENT {
                                Value::Null
                            } else {
                                u64::from(s.parent).into()
                            },
                            s.op.into(),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "span_columns",
            Value::Arr(
                ["call", "start_ns", "end_ns", "parent", "op"]
                    .map(Value::from)
                    .to_vec(),
            ),
        ),
    ]);

    let detail = obj([
        ("ops_per_round", untraced.rounds[0].ops.into()),
        ("rounds_untraced", rounds_untraced.into()),
        ("rounds_traced", rounds_traced.into()),
        ("ops_per_s_untraced", rate_untraced.into()),
        ("ops_per_s_traced", rate_traced.into()),
        (
            "ladder_repeat_ms",
            (budget.repeat.as_secs_f64() * 1e3).into(),
        ),
        ("ladder_repeats", budget.repeats.into()),
        ("build_s", art.build_s.into()),
    ]);
    let outcome = Outcome {
        spec: spec.clone(),
        traced: true,
        metrics,
        attempted,
        failed,
        correct: failed == 0 && finite,
        notes,
        detail,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    Ok((outcome, trace_doc, rows))
}

/// Writes `doc` under `dir` as `name`, creating the directory.
pub fn write_json(dir: &Path, name: &str, doc: &Value) -> Result<std::path::PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
