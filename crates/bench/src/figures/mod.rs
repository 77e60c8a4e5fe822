//! Per-figure experiment implementations.
//!
//! Each function regenerates the data behind one figure or table of the
//! paper's evaluation and returns/prints the same rows or series. The
//! `figures` binary dispatches its subcommands to these.

mod evaluation;
mod observations;

pub use evaluation::{
    fig13, fig14, fig15, fig16, fig17, offline_tradeoff, table1, table2, ComparisonRow,
};
pub use observations::{fig1, fig11, fig2, fig3, fig4, fig6, fig8};
