//! Regenerates **Fig. 5**: the Euclidean mapping of a 4×4 matrix with
//! block size 2 (ADMM's second subproblem, Eqn. 6); `--json PATH` writes
//! the input and mapped matrices, the block vectors and the distance²
//! (flags: [`ernn_bench::sweep::SweepArgs`]).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::SweepArgs;
use ernn_linalg::{BlockCirculantMatrix, Matrix};

/// A matrix as a JSON array of rows.
fn rows_json(m: &Matrix) -> String {
    array((0..m.rows()).map(|r| array(m.row(r).iter().map(f32::to_string))))
}

fn main() {
    let args = SweepArgs::from_env();
    let dense = Matrix::from_rows(&[
        &[0.5, 0.4, 1.2, -0.3],
        &[-1.3, 0.5, 0.1, 0.7],
        &[-0.1, 1.4, 0.7, 0.5],
        &[0.6, -1.3, -0.9, 1.4],
    ]);
    println!("Fig. 5 — Euclidean mapping, 4x4 matrix, block size 2\n");
    println!("input matrix:\n{dense}");
    let projected = BlockCirculantMatrix::project_dense(&dense, 2);
    let mapped = projected.to_dense();
    println!("mapped (block-circulant) matrix:\n{mapped}");
    println!("defining vectors per block:");
    let mut blocks = Vec::new();
    for i in 0..2 {
        for j in 0..2 {
            let block = projected.block(i, j);
            println!("  block ({i},{j}): {block:?}");
            blocks.push(
                JsonObject::new()
                    .int("i", i as i64)
                    .int("j", j as i64)
                    .raw("vector", array(block.iter().map(f32::to_string)))
                    .render(),
            );
        }
    }
    let distance_sq = projected.distance_sq(&dense);
    println!(
        "\ndistance^2 to input: {distance_sq:.4} (the minimum over all block-circulant matrices)"
    );
    args.write_bench(
        JsonObject::new()
            .bench_header("fig5")
            .raw("input", rows_json(&dense))
            .raw("mapped", rows_json(&mapped))
            .raw("blocks", array(blocks))
            .num("distance_sq", distance_sq.into()),
    );
}
