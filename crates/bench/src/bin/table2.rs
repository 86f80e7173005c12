//! Regenerates **Table II**: comparison among GRU-based RNN models.
//!
//! Same structure and flags as `table1` with GRU cells (paper Sec. IV,
//! Table II).

use ernn_bench::{median, run_model_table};
use ernn_model::CellType;

fn main() {
    let rows = run_model_table(
        CellType::Gru,
        "table2",
        "Table II — GRU-based RNN models (synthetic ASR corpus, layer sizes ÷8)",
    );
    // Paper observation: switching LSTM -> GRU costs ~nothing; compare
    // with Table I's baselines by eye.
    let baselines: Vec<f64> = rows
        .iter()
        .filter(|r| r.row().policies.is_none())
        .map(|r| median(r.runs.iter().map(|s| s.per)))
        .collect();
    println!("GRU baselines PER (median over seeds): {baselines:?}");
}
