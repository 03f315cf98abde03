//! Benchmark crate with two custom harnesses, both gated in CI:
//! `bench_round_throughput` (simulator rounds/s, written to
//! `BENCH_simulator*.json`) and `bench_metrics_overhead` (the cost of an
//! attached metrics sink). All content lives in `benches/`; this library
//! target exists only so the crate participates in the workspace.

#![forbid(unsafe_code)]
