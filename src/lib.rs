//! Root crate of the Hyades reproduction workspace.
//!
//! This crate exists to host the workspace-level integration tests
//! (`tests/`) and the runnable examples (`examples/`); it exports nothing.
//! The library surface lives in the member crates, and the entry point is
//! the `hyades` facade crate (`crates/core`), which re-exports them.
