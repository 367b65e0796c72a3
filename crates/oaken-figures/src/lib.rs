//! The paper-figure code of the reproduction: one binary per table and
//! figure of the paper's evaluation in `src/bin/` (`fig01` … `fig14`,
//! `table2` … `table4`, the `abl_*` ablations, `energy`, `sqnr_sweep`,
//! and `all_figures`, which runs them in sequence), the row/banner
//! helpers they share, and the trace-driven serving *simulation* of
//! Figure 14 ([`simulate`]).
//!
//! Together with `oaken-accel` (the analytic accelerator model the
//! figures are computed on) this crate is the only home of paper-figure
//! code: no serving-system crate depends on either, and the executed
//! serving system is measured by `bench/` + `BENCHMARK.json`, not here.

pub mod simulate;

pub use simulate::{simulate_trace, TraceResult};

use std::fmt::Display;

/// Prints a header banner for one experiment.
pub fn banner(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Prints one row of a fixed-width table.
pub fn row(cells: &[&dyn Display], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", cell, width = width));
    }
    println!("{}", line.trim_end());
}

/// Formats a float with `digits` decimals (helper for row cells).
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// The standard batch sweep of Figure 11.
pub const BATCH_SWEEP: [usize; 5] = [16, 32, 64, 128, 256];

/// The trace batch sweep of Figure 14.
pub const TRACE_BATCH_SWEEP: [usize; 4] = [16, 32, 64, 128];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(BATCH_SWEEP.len(), 5);
        banner("test", "caption");
        row(&[&"a", &1.5], &[4, 6]);
    }
}
