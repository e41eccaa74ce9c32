//! # hyades-bench — the flattening JSON reader
//!
//! [`diff::flatten_json`] and nothing else, at this path because `hbench/`
//! (the package behind `BENCHMARK.json`, the repository's one benchmark)
//! imports it. Paper tables come from `hyades::experiments`; no host time
//! is taken anywhere in the workspace.

pub mod diff;
