//! Regenerates **Table I**: comparison among LSTM-based RNN models — PER
//! and PER degradation versus layer size and (per-layer) block size.
//!
//! Layer sizes are scaled ÷8 from the paper (32/64/128 for 256/512/1024)
//! to keep the run tractable on a laptop; block sizes and the table
//! structure match the paper row for row. Run with `--quick` for a smoke
//! pass (fewer epochs, 64-64 group only) and `--json PATH` for the rows
//! as a bench artifact (flags: [`ernn_bench::sweep::SweepArgs`]).

use ernn_bench::run_model_table;
use ernn_model::CellType;

fn main() {
    run_model_table(
        CellType::Lstm,
        "table1",
        "Table I — LSTM-based RNN models (synthetic ASR corpus, layer sizes ÷8)",
    );
}
