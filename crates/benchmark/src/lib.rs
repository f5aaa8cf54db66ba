//! The steady-state benchmark for the TCP Jiffy cluster.
//!
//! One binary (`benchmark`) runs four workloads — `kv_small_repl`,
//! `file_bulk`, `mr_job_churn`, `kv_grow_spill` — against an in-process
//! **TCP** `JiffyCluster`, checks every result, and prints the end-to-end
//! metrics of `BENCHMARK.json` by name with unit, sample count and
//! regression bound. With `--trace 1` it reruns the workload with spans
//! recorded from this crate's own files around its calls into each
//! layer, runs the outside-in layer probes, prints every per-layer
//! metric and writes the spans out as JSON lines. README.md has the
//! tables and how to read the output.
//!
//! Nothing outside this crate is touched: tracing *inside* the program
//! is ROADMAP's `jiffy-metrics` item and a later change.

pub mod compare;
pub mod host;
pub mod json;
pub mod load;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod store;
pub mod trace;
pub mod workloads;
