//! # conair-bench
//!
//! The evaluation harness: one binary per table/figure of the paper's
//! evaluation (`table1` … `table7`, `figure2`, `figure4`, `study`,
//! `summary`), plus `analysis_time` for the Section 6.4 static-analysis
//! time.
//!
//! Trial counts are environment-tunable (`CONAIR_TRIALS`,
//! `CONAIR_OVERHEAD_TRIALS`); paper-scale settings are 1000 and 20.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod experiments;
pub mod fmt;
pub mod report;

pub use config::BenchConfig;
pub use fmt::{micros, pct, TextTable};
