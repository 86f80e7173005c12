//! Quickstart: the model lifecycle as one typed pipeline — train a dense
//! LSTM acoustic model on the synthetic speech corpus, compress it into
//! block-circulant form with ADMM, quantize it for the paper's 12-bit
//! datapath, and compile it into a deployable, byte-serializable
//! `ModelArtifact` — the core E-RNN story in ~60 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use ernn::admm::Recipe;
use ernn::asr::{evaluate_per, SynthCorpus, SynthCorpusConfig};
use ernn::model::{CellType, ModelSpec};
use ernn::pipeline::{Pipeline, PipelineError};
use ernn::serve::{CompiledModel, ModelArtifact};
use rand::SeedableRng;

fn main() -> Result<(), PipelineError> {
    // 1. A reproducible synthetic speech corpus (the TIMIT stand-in).
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::standard(42));
    println!(
        "corpus: {} train / {} test utterances, {} phone classes",
        corpus.train.len(),
        corpus.test.len(),
        corpus.num_classes()
    );
    let data = corpus.train_sequences();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);

    // 2. The lifecycle pipeline under the paper's deployment defaults
    //    (block 8, 12-bit datapath, XCKU060) and one Fig. 6 recipe: dense
    //    pre-training, then ADMM iterations, projection and constrained
    //    retraining.
    let spec = ModelSpec::new(CellType::Lstm, corpus.feature_dim, corpus.num_classes())
        .layer_dims(&[64, 64])
        .peephole(true);
    let recipe = Recipe {
        pretrain_epochs: 16,
        ..Recipe::default()
    };
    let trained = Pipeline::paper(spec)?
        .source("examples/quickstart")
        .train(&data, &recipe, &mut rng)?;
    let dense_per = evaluate_per(|f| trained.network().forward_logits(f), &corpus.test);
    let dense_params = trained.network().param_count();
    println!("dense LSTM: {dense_params} params, test PER {dense_per:.2}%");

    let compressed = trained.compress(&data, &recipe, &mut rng)?;
    let compressed_per = evaluate_per(|f| compressed.network().forward_logits(f), &corpus.test);
    let compressed_params = compressed.network().param_count();
    println!(
        "block-circulant LSTM (L_b=8): {compressed_params} params ({}x smaller), \
         test PER {compressed_per:.2}% (Δ {:+.2})",
        dense_params / compressed_params,
        compressed_per - dense_per
    );

    // 3. Quantize + compile: the terminal stage is both a servable model
    //    and a persistable artifact carrying its own provenance.
    let built = compressed.quantize()?.compile()?;
    let admm = built.artifact().provenance.admm.expect("ADMM ran");
    println!(
        "ADMM provenance: {} iterations, final residual {:.4} (converged: {})",
        admm.iterations, admm.final_residual, admm.converged
    );

    // 4. Round-trip through bytes: the loaded model is bit-identical.
    let bytes = built.save_bytes();
    let loaded = CompiledModel::from_artifact(&ModelArtifact::load_bytes(&bytes)?);
    let frames = &corpus.test[0].features;
    assert_eq!(loaded.infer(frames), built.model().infer(frames));
    assert_eq!(loaded.stage_cycles(), built.model().stage_cycles());
    println!(
        "artifact: {} bytes, loads back bit-identically ({} circulant matrices, II {} cycles)",
        bytes.len(),
        loaded.load_stats.circulant_matrices,
        loaded.stage_cycles().ii()
    );
    Ok(())
}
