//! # fmbs-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation, each returning
//! an [`report::Experiment`] with the same series the paper plots. The
//! `repro` binary prints/serialises them. [`perf`] persists the sweep,
//! figure and network throughput as tracked series (`repro --perf`);
//! the repository benchmark under `perfbench/` times every layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod check;
pub mod experiments;
pub mod manifest;
pub mod perf;
pub mod report;
