//! What a child process tells the runner, as plain `key value…` lines on
//! stdout — the one format both the Rust children and `c/kv.c` write:
//!
//! ```text
//! setup_s <seconds>                      once per timed set-up
//! round <ops> <secs> <rss_kib> <heap_bytes> <live_req_bytes>
//! hist <bucket>:<count> …                sampled call latencies (stats::LatHist)
//! attempted|failed|threads|ops_per_round|plan_hash|baseline_rss_kib|hwm_kib <n>
//! interposed <0|1>                       kv.c only: libmesh.so present?
//! stat <name> <value>                    flattened HeapStats movement / ladder rows
//! span_total <name#> <count> <total_ns> <self_ns>
//! spans_recorded <n>
//! span <name#> <parent> <op> <start_ns> <end_ns>
//! ```
//!
//! Unknown keys are an error: a child and a runner that disagree about
//! the format must not silently drop numbers.

use crate::spans::{NameTotals, Recording, Span, ALL_SPAN_NAMES, SPAN_NAMES};
use crate::stats::LatHist;
use crate::workloads::{ChildOutput, Round};
use std::fmt::Write as _;

/// Spans a traced child passes on (the head of its buffer); totals cover
/// every span regardless.
pub const SPANS_REPORTED: usize = 4096;

#[derive(Debug, Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub hist: LatHist,
    pub attempted: u64,
    pub failed: u64,
    pub threads: u64,
    pub ops_per_round: u64,
    pub plan_hash: u64,
    pub baseline_rss_kib: u64,
    pub hwm_kib: u64,
    pub interposed: Option<bool>,
    pub stats: Vec<(String, f64)>,
    pub span_totals: [NameTotals; SPAN_NAMES],
    pub spans_recorded: u64,
    pub spans: Vec<Span>,
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

impl From<ChildOutput> for Report {
    fn from(out: ChildOutput) -> Report {
        let Recording {
            totals,
            recorded,
            mut spans,
        } = out.recording;
        spans.truncate(SPANS_REPORTED);
        Report {
            setup_s: out.setup_s,
            rounds: out.rounds,
            hist: out.meter.hist,
            attempted: out.meter.attempted,
            failed: out.meter.failed,
            threads: out.threads as u64,
            ops_per_round: out.ops_per_round,
            plan_hash: out.plan_hash,
            baseline_rss_kib: out.baseline_rss_kib,
            hwm_kib: out.hwm_kib,
            interposed: None,
            stats: out.stats,
            span_totals: totals,
            spans_recorded: recorded,
            spans,
        }
    }
}

impl Report {
    pub fn stat(&self, key: &str) -> Option<f64> {
        self.stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    pub fn encode(&self) -> String {
        let mut out = String::new();
        for s in &self.setup_s {
            let _ = writeln!(out, "setup_s {s}");
        }
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "round {} {} {} {} {}",
                r.ops, r.secs, r.steady_rss_kib, r.heap_bytes, r.live_req_bytes
            );
        }
        let _ = writeln!(out, "hist {}", self.hist.encode());
        for (k, v) in [
            ("attempted", self.attempted),
            ("failed", self.failed),
            ("threads", self.threads),
            ("ops_per_round", self.ops_per_round),
            ("plan_hash", self.plan_hash),
            ("baseline_rss_kib", self.baseline_rss_kib),
            ("hwm_kib", self.hwm_kib),
        ] {
            let _ = writeln!(out, "{k} {v}");
        }
        if let Some(i) = self.interposed {
            let _ = writeln!(out, "interposed {}", u8::from(i));
        }
        for (k, v) in &self.stats {
            let _ = writeln!(out, "stat {k} {v}");
        }
        for (i, t) in self.span_totals.iter().enumerate() {
            if t.count > 0 {
                let _ = writeln!(
                    out,
                    "span_total {i} {} {} {}",
                    t.count, t.total_ns, t.self_ns
                );
            }
        }
        if self.spans_recorded > 0 {
            let _ = writeln!(out, "spans_recorded {}", self.spans_recorded);
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "span {} {} {} {} {}",
                s.name as u8, s.parent, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }

    pub fn parse(text: &str) -> Result<Report, String> {
        let mut r = Report::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("bad report line {line:?}");
            let words: Vec<&str> = rest.split_whitespace().collect();
            let num = |i: usize| -> Result<u64, String> {
                words.get(i).and_then(|w| w.parse().ok()).ok_or_else(bad)
            };
            let float = |i: usize| -> Result<f64, String> {
                words
                    .get(i)
                    .and_then(|w| w.parse::<f64>().ok())
                    .filter(|v| v.is_finite())
                    .ok_or_else(bad)
            };
            match key {
                "setup_s" => r.setup_s.push(float(0)?),
                "round" => r.rounds.push(Round {
                    ops: num(0)?,
                    secs: float(1)?,
                    steady_rss_kib: num(2)?,
                    heap_bytes: num(3)?,
                    live_req_bytes: num(4)?,
                }),
                "hist" => r.hist.decode_into(rest)?,
                "attempted" => r.attempted = num(0)?,
                "failed" => r.failed = num(0)?,
                "threads" => r.threads = num(0)?,
                "ops_per_round" => r.ops_per_round = num(0)?,
                "plan_hash" => r.plan_hash = num(0)?,
                "baseline_rss_kib" => r.baseline_rss_kib = num(0)?,
                "hwm_kib" => r.hwm_kib = num(0)?,
                "interposed" => r.interposed = Some(num(0)? != 0),
                "stat" => r
                    .stats
                    .push((words.first().ok_or_else(bad)?.to_string(), float(1)?)),
                "span_total" => {
                    let i = num(0)? as usize;
                    *r.span_totals.get_mut(i).ok_or_else(bad)? = NameTotals {
                        count: num(1)?,
                        total_ns: num(2)?,
                        self_ns: num(3)?,
                    };
                }
                "spans_recorded" => r.spans_recorded = num(0)?,
                "span" => r.spans.push(Span {
                    name: *ALL_SPAN_NAMES.get(num(0)? as usize).ok_or_else(bad)?,
                    parent: num(1)? as u32,
                    op: num(2)?,
                    start_ns: num(3)?,
                    end_ns: num(4)?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{SpanName, NO_PARENT};

    #[test]
    fn encode_parse_round_trip() {
        let mut r = Report {
            setup_s: vec![0.25, 0.5],
            rounds: vec![Round {
                ops: 10,
                secs: 0.125,
                steady_rss_kib: 4096,
                heap_bytes: 1 << 20,
                live_req_bytes: 12345,
            }],
            attempted: 20,
            failed: 1,
            threads: 2,
            ops_per_round: 10,
            plan_hash: u64::MAX,
            baseline_rss_kib: 3000,
            hwm_kib: 9000,
            interposed: Some(true),
            stats: vec![("refills".into(), 7.0), ("lat.refill.p50_ns".into(), 384.0)],
            spans_recorded: 2,
            spans: vec![
                Span {
                    name: SpanName::Op,
                    parent: NO_PARENT,
                    op: 5,
                    start_ns: 1,
                    end_ns: 9,
                },
                Span {
                    name: SpanName::FreeRemote,
                    parent: 0,
                    op: 5,
                    start_ns: 2,
                    end_ns: 4,
                },
            ],
            ..Default::default()
        };
        r.hist.record(40);
        r.hist.record(5000);
        r.span_totals[SpanName::Op as usize] = NameTotals {
            count: 1,
            total_ns: 8,
            self_ns: 6,
        };
        let back = Report::parse(&r.encode()).unwrap();
        assert_eq!(back.encode(), r.encode());
        assert_eq!(back.rounds, r.rounds);
        assert_eq!(back.plan_hash, u64::MAX);
        assert_eq!(back.interposed, Some(true));
        assert_eq!(back.stat("refills"), Some(7.0));
        assert_eq!(back.spans, r.spans);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        for bad in [
            "bogus 1",
            "round 1 2",
            "setup_s nan",
            "span 99 0 0 0 0",
            "hist 1",
        ] {
            assert!(Report::parse(bad).is_err(), "{bad:?}");
        }
    }
}
