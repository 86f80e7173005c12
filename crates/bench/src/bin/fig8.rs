//! Regenerates **Fig. 8**: normalized number of multiplications as a
//! function of block size, for layer sizes 512 and 1024, plus the
//! ablations of the three computation-reduction techniques (Sec. V-A);
//! `--json PATH` writes every `(layer, Lb, model)` point and both
//! block-size upper bounds (flags: [`ernn_bench::sweep::SweepArgs`]).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::SweepArgs;
use ernn_fft::cost::{block_size_upper_bound, fig8_curve, CostModel};

const ALL: &str = "all optimizations";

fn point(layer: usize, lb: usize, model: &str, norm_mults: f64) -> String {
    JsonObject::new()
        .int("layer", layer as i64)
        .int("lb", lb as i64)
        .str("model", model)
        .num("norm_mults", norm_mults)
        .render()
}

fn main() {
    let args = SweepArgs::from_env();
    let mut doc = JsonObject::new().bench_header("fig8");
    let mut points = Vec::new();
    for layer in [512usize, 1024] {
        println!("=== Fig. 8 ({layer}) — paper model (all optimizations) ===");
        println!("Layer size {layer}\n  Lb    norm. mults");
        for p in fig8_curve(layer, 256) {
            println!("  {:<5} {:.4}", p.block_size, p.normalized_mults);
            points.push(point(layer, p.block_size, ALL, p.normalized_mults));
        }
        let ub = block_size_upper_bound(layer);
        println!("convergence (block-size upper bound): {ub}  [paper: 32-64]\n");
        doc = doc.int(&format!("upper_bound_{layer}"), ub as i64);
    }

    println!("=== ablations (layer 512, normalized multiplications) ===");
    let variants: [(&str, CostModel); 4] = [
        (ALL, CostModel::paper()),
        (
            "no FFT/IFFT decoupling",
            CostModel {
                fft_decoupling: false,
                ..CostModel::paper()
            },
        ),
        (
            "no real-FFT symmetry",
            CostModel {
                real_symmetry: false,
                ..CostModel::paper()
            },
        ),
        ("no optimizations", CostModel::unoptimized()),
    ];
    print!("{:<6}", "Lb");
    for (name, _) in &variants {
        print!(" {name:>24}");
    }
    println!();
    let mut lb = 2usize;
    while lb <= 256 {
        print!("{lb:<6}");
        for (name, model) in &variants {
            let mults = model.normalized_matvec_mults(512, 512, lb);
            print!(" {mults:>24.4}");
            // The first column is the layer-512 curve above.
            if *name != ALL {
                points.push(point(512, lb, name, mults));
            }
        }
        println!();
        lb *= 2;
    }
    println!(
        "\nnote: without decoupling, small blocks EXCEED the dense baseline\n\
         (>1.0) — the \"computation can even increase\" effect of Sec. V-B."
    );
    args.write_bench(doc.raw("points", array(points)));
}
