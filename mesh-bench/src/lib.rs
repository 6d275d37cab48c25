//! # mesh-bench
//!
//! The repo's one benchmark: five workloads, end-to-end metrics measured
//! untraced, a per-layer cost ladder, and a traced run. See `README.md`
//! for the metric tables and `../BENCHMARK.json` for the contract.

pub mod aa;
pub mod backend;
pub mod gen;
pub mod heapstats;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod tools;
pub mod workloads;
