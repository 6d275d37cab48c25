//! The A/A self-check: two sets of runs of the same build on every
//! workload, judged the way the driver judges a benchmark. A pair shares
//! its seed, so the two sets see the same inputs; seeds differ from pair to
//! pair; and which set runs first alternates, so neither set always gets
//! the warmer machine.
//!
//! It answers two questions: do two sets of runs of identical code agree
//! within each metric's bound, and how wide must a bound be to sit clear
//! of the spread a set of ten seeds shows.

use crate::json::{obj, Value};
use crate::metrics::END_TO_END;
use crate::runner::{end_to_end, Spec};
use crate::stats::{median, Summary};
use crate::workloads::WORKLOADS;

/// Pairs of runs per workload: ten seeds, as the driver's own check uses.
pub const PAIRS: usize = 10;
/// The contract's ceiling on a bound.
pub const MAX_BOUND: f64 = 0.25;
/// A bound sits this many spreads out. The issue asked for two; the
/// contract wants every spread under a third of its bound.
pub const SPREADS_PER_BOUND: f64 = 3.0;
/// The issue's demotion rule: a metric whose two sets do not repeat within
/// a tenth on some workload, or whose spread no bound under the ceiling
/// can hold, is not an end-to-end metric and moves to the per-layer list.
pub const REPEAT_WITHIN: f64 = 0.10;

#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: &'static str,
    pub metric: &'static str,
    /// Values of set A and set B; `a[i]` and `b[i]` ran on the same seed.
    pub a: Vec<f64>,
    pub b: Vec<f64>,
}

impl Cell {
    /// The wider of the two sets' inter-quartile spreads, each taken over
    /// the set's own runs as the driver computes it.
    pub fn spread(&self) -> f64 {
        let of = |v: &[f64]| Summary::of(v).map_or(0.0, |s| s.spread());
        of(&self.a).max(of(&self.b))
    }

    /// By how much the worse set's median is worse than the other's, as a
    /// share of the better one.
    pub fn sets_differ_by(&self) -> f64 {
        let (ma, mb) = (median(&self.a), median(&self.b));
        (ma - mb).abs() / ma.min(mb)
    }

    /// Run-to-run noise with the inputs held fixed: the median over pairs
    /// of `|a - b| / a`.
    pub fn pair_noise(&self) -> f64 {
        let diffs: Vec<f64> = self
            .a
            .iter()
            .zip(&self.b)
            .map(|(a, b)| (a - b).abs() / a)
            .collect();
        median(&diffs)
    }
}

/// `max(starting, 3 × spread)`, rounded up to a whole percent and capped.
pub fn derived_bound(starting: f64, worst_spread: f64) -> f64 {
    let raw = starting.max(SPREADS_PER_BOUND * worst_spread);
    ((raw * 100.0 - 1e-9).ceil() / 100.0).min(MAX_BOUND)
}

pub struct AaResult {
    pub doc: Value,
    pub passed: bool,
}

/// Runs [`PAIRS`] A/B pairs of every workload (`bounds` are the ones in
/// force, by metric name) and judges them.
pub fn run(base_seed: u64, seconds: f64, bounds: &dyn Fn(&str) -> f64) -> Result<AaResult, String> {
    let mut cells: Vec<Cell> = WORKLOADS
        .iter()
        .flat_map(|&w| {
            END_TO_END.iter().map(move |m| Cell {
                workload: w,
                metric: m.name,
                a: Vec::new(),
                b: Vec::new(),
            })
        })
        .collect();
    let mut failures = Vec::new();
    for pair in 0..PAIRS {
        for &w in &WORKLOADS {
            let spec = Spec {
                workload: w.to_string(),
                seed: base_seed + pair as u64,
                seconds,
                smoke: false,
            };
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let out = end_to_end(&spec)?;
                eprintln!(
                    "aa: pair {}/{PAIRS} set {} {w} seed {} done in {:.1} s",
                    pair + 1,
                    ["A", "B"][set],
                    spec.seed,
                    out.wall_s
                );
                if !out.correct {
                    failures.push(format!(
                        "{w} seed {} was not correct: {:?}",
                        spec.seed, out.notes
                    ));
                }
                for cell in cells.iter_mut().filter(|c| c.workload == w) {
                    let v = out.metric(cell.metric).ok_or("missing metric")?;
                    if set == 0 { &mut cell.a } else { &mut cell.b }.push(v);
                }
            }
        }
    }

    let mut metric_rows = Vec::new();
    for m in &END_TO_END {
        let mine: Vec<&Cell> = cells.iter().filter(|c| c.metric == m.name).collect();
        let worst_spread = mine.iter().map(|c| c.spread()).fold(0.0, f64::max);
        let worst_differ = mine.iter().map(|c| c.sets_differ_by()).fold(0.0, f64::max);
        let in_force = bounds(m.name);
        let mut per_workload = Vec::new();
        for c in &mine {
            let differ = c.sets_differ_by();
            // setup_s answers to its medians only, as in the driver.
            let spread_ok = m.name == "setup_s" || c.spread() <= in_force;
            if differ > in_force || !spread_ok {
                failures.push(format!(
                    "{} on {}: sets differ by {:.4}, spread {:.4}, bound {:.2}",
                    m.name,
                    c.workload,
                    differ,
                    c.spread(),
                    in_force
                ));
            }
            per_workload.push(obj([
                ("workload", c.workload.into()),
                ("median_a", median(&c.a).into()),
                ("median_b", median(&c.b).into()),
                ("sets_differ_by", differ.into()),
                ("spread", c.spread().into()),
                ("pair_noise", c.pair_noise().into()),
                ("a", Value::Arr(c.a.iter().map(|&v| v.into()).collect())),
                ("b", Value::Arr(c.b.iter().map(|&v| v.into()).collect())),
            ]));
        }
        metric_rows.push(obj([
            ("name", m.name.into()),
            ("better", m.better.as_str().into()),
            ("starting_bound", m.starting_bound.into()),
            ("bound_in_force", in_force.into()),
            ("worst_spread", worst_spread.into()),
            (
                "derived_bound",
                derived_bound(m.starting_bound, worst_spread).into(),
            ),
            (
                "demote",
                (m.name != "setup_s" && (worst_differ > REPEAT_WITHIN || worst_spread > MAX_BOUND))
                    .into(),
            ),
            ("workloads", Value::Arr(per_workload)),
        ]));
    }
    let passed = failures.is_empty();
    let doc = obj([
        ("schema", "mesh-bench-aa/2".into()),
        ("machine", crate::tools::machine()),
        ("base_seed", base_seed.into()),
        ("run_seconds", seconds.into()),
        ("pairs", PAIRS.into()),
        ("passed", passed.into()),
        (
            "failures",
            Value::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("metrics", Value::Arr(metric_rows)),
    ]);
    Ok(AaResult { doc, passed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_widen_to_three_spreads_and_stop_at_the_cap() {
        assert_eq!(derived_bound(0.07, 0.01), 0.07);
        assert_eq!(derived_bound(0.07, 0.0271), 0.09);
        assert_eq!(derived_bound(0.03, 0.0100001), 0.04);
        assert_eq!(derived_bound(0.10, 0.40), 0.25);
    }

    #[test]
    fn a_cell_is_judged_by_its_wider_set_and_its_medians() {
        let c = Cell {
            workload: "fastpath_churn",
            metric: "ops_per_s",
            a: vec![100.0, 100.0, 100.0, 100.0],
            b: vec![90.0, 99.0, 81.0, 90.0],
        };
        assert!((c.sets_differ_by() - 10.0 / 90.0).abs() < 1e-12);
        assert!((c.pair_noise() - 0.10).abs() < 1e-12);
        let only_b = Summary::of(&c.b).unwrap().spread();
        assert!(only_b > 0.0 && c.spread() == only_b, "set A has no spread");
    }
}
