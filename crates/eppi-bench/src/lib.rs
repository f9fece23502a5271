//! # eppi-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation
//! (§V) plus the ablations DESIGN.md calls out. Each module exposes a
//! `paper()` configuration matching the published setting and a
//! `quick()` configuration used by tests and smoke runs; the binaries in
//! `src/bin/` print the resulting tables (set `EPPI_SCALE=quick` for a
//! fast pass).
//!
//! | Target | Reproduces |
//! |--------|------------|
//! | `table2` | Table II — privacy degrees under both attacks |
//! | `fig4a`, `fig4b` | Fig. 4 — ε-PPI vs grouping PPIs |
//! | `fig5a`, `fig5b` | Fig. 5 — the three β policies |
//! | `fig6a`, `fig6a_sim`, `fig6b`, `fig6c` | Fig. 6 — construction performance |
//! | `search_cost` | supplementary search-overhead numbers |
//! | `ablation_c` | collusion-tolerance trade-off |
//! | `collusion` | coalition-assisted attack sweep (tech-report analysis) |
//! | `theory_check` | measured vs exact-Binomial vs Theorem 3.1 bound |
//! | `all_experiments` | everything above, in order |
//!
//! Performance measurement is not here: the lifecycle benchmark in
//! `bench/` (its own workspace, declared by `BENCHMARK.json`, documented
//! in `bench/README.md`) is the repository's only performance harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod collusion;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod report;
pub mod search_cost;
pub mod table2;
pub mod theory;

/// Experiment scale selected via the `EPPI_SCALE` environment variable:
/// `quick` for the scaled-down configurations, anything else (or unset)
/// for the paper-scale ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale configuration.
    Paper,
    /// Scaled-down smoke configuration.
    Quick,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("EPPI_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Paper,
        }
    }
}

/// Prints a table as markdown, or as CSV when `EPPI_CSV=1` — for piping
/// straight into a plotting script.
pub fn print_table(table: &report::Table) {
    if std::env::var("EPPI_CSV").as_deref() == Ok("1") {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}
