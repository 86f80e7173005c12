//! Cross-crate integration: dense training → ADMM → compression →
//! quantized execution, verifying the representations agree end to end.

use ernn::admm::{AdmmConfig, Recipe};
use ernn::asr::{evaluate_per, SynthCorpus, SynthCorpusConfig};
use ernn::fpga::exec::{DatapathConfig, QuantizedNetwork};
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec};
use rand::SeedableRng;

fn pipeline(cell: CellType) {
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(5));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let spec = ModelSpec::new(cell, corpus.feature_dim, corpus.num_classes()).layer_dims(&[16]);
    let data = corpus.train_sequences();
    // ADMM onto block size 4, then the snap (no retraining).
    let recipe = Recipe {
        pretrain_epochs: 3,
        pretrain_lr: 0.05,
        admm: AdmmConfig {
            iterations: 2,
            epochs_per_iter: 1,
            retrain_epochs: 0,
            ..AdmmConfig::default()
        },
        admm_lr: 0.02,
    };
    let mut net = recipe.pretrain(&spec, &data, &mut rng);
    let dense_params = net.param_count();
    let policy = BlockPolicy::uniform(4);
    let (by_recipe, _) = recipe.compress(&mut net, &[policy], &data, &mut rng);

    let compressed = compress_network(&net, policy);
    assert_eq!(compressed.layers(), by_recipe.layers());
    assert!(compressed.param_count() < dense_params);

    // The compressed model computes the same function as the snapped
    // dense model (projection was lossless after the snap).
    let frames = &corpus.test[0].features;
    let dense_logits = net.forward_logits(frames);
    let comp_logits = compressed.forward_logits(frames);
    for (a, b) in dense_logits
        .iter()
        .flatten()
        .zip(comp_logits.iter().flatten())
    {
        assert!((a - b).abs() < 2e-3, "{a} vs {b}");
    }

    // PER is computable for every representation, including fixed point.
    let per_dense = evaluate_per(|f| net.forward_logits(f), &corpus.test);
    let per_comp = evaluate_per(|f| compressed.forward_logits(f), &corpus.test);
    assert!((per_dense - per_comp).abs() < 20.0);

    let quantized = QuantizedNetwork::new(&compressed, &DatapathConfig::paper_12bit());
    let q_logits = quantized.forward_logits(frames);
    for (a, b) in comp_logits.iter().flatten().zip(q_logits.iter().flatten()) {
        assert!((a - b).abs() < 0.2, "12-bit drift too large: {a} vs {b}");
    }
}

#[test]
fn lstm_pipeline_is_consistent() {
    pipeline(CellType::Lstm);
}

#[test]
fn gru_pipeline_is_consistent() {
    pipeline(CellType::Gru);
}
