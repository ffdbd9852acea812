#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "unit tests produce no compared output"
    )
)]

//! Experiment harness for the POMBM reproduction.
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (Sec. IV). The `experiments` binary prints the same series the paper
//! plots and writes CSV files. Timing claims belong to the `pombm-perf`
//! benchmark in `src/bin/pombm-perf/`, a package of its own.

pub mod alloc;
pub mod figures;
pub mod plot;
pub mod report;

pub use alloc::CountingAllocator;
pub use plot::render_chart;
pub use report::{Report, Row};
