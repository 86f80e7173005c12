//! Integration test of the three compression approaches on one task:
//! ESE-style pruning, C-LSTM-style direct circulant training, and E-RNN's
//! ADMM — all must produce working compressed models, and the structured
//! ones must execute on the FFT path.

use ernn::admm::{train_projected, AdmmConfig, Recipe};
use ernn::asr::{evaluate_per, SynthCorpus, SynthCorpusConfig};
use ernn::baselines::magnitude_prune;
use ernn::model::trainer::TrainOptions;
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec, Sgd};
use rand::SeedableRng;

#[test]
fn three_compression_methods_produce_working_models() {
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(13));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
    let spec =
        ModelSpec::new(CellType::Lstm, corpus.feature_dim, corpus.num_classes()).layer_dims(&[16]);
    let data = corpus.train_sequences();
    let recipe = Recipe {
        pretrain_epochs: 4,
        pretrain_lr: 0.06,
        admm: AdmmConfig {
            iterations: 2,
            epochs_per_iter: 1,
            retrain_epochs: 1,
            ..AdmmConfig::default()
        },
        admm_lr: 0.03,
    };
    let dense = recipe.pretrain(&spec, &data, &mut rng);

    // (a) ESE: 8x pruning + masked retraining.
    let mut pruned = magnitude_prune(&dense, 1.0 - 1.0 / 8.0);
    pruned.retrain(&data, 2, &mut Sgd::new(0.03), &mut rng);
    let prune_report = pruned.report(12, 12);
    assert!(prune_report.weight_compression > 6.0);
    assert!(prune_report.effective_compression < prune_report.weight_compression);
    let per_pruned = evaluate_per(|f| pruned.net.forward_logits(f), &corpus.test);

    // (b) C-LSTM: direct circulant training.
    let policy = BlockPolicy::uniform(4);
    let mut clstm = dense.clone();
    let opts = TrainOptions {
        epochs: 3,
        lr_decay: 1.0,
    };
    train_projected(
        &mut clstm,
        &[policy],
        &data,
        opts,
        &mut Sgd::new(0.03),
        &mut rng,
    );
    let clstm_compressed = compress_network(&clstm, policy);
    let per_clstm = evaluate_per(|f| clstm_compressed.forward_logits(f), &corpus.test);

    // (c) E-RNN: the Fig. 6 recipe.
    let (admm_compressed, _) = recipe.compress(&mut dense.clone(), &[policy], &data, &mut rng);
    let per_admm = evaluate_per(|f| admm_compressed.forward_logits(f), &corpus.test);

    // All three produce finite, comparable PERs on the same corpus.
    for per in [per_pruned, per_clstm, per_admm] {
        assert!(per.is_finite());
        assert!((0.0..=100.0).contains(&per), "{per}");
    }

    // Structured methods compress by exactly the block factor; pruning's
    // effective ratio is dented by indices (the paper's ESE critique).
    assert_eq!(
        clstm_compressed.param_count(),
        admm_compressed.param_count()
    );
    assert!(prune_report.effective_compression < 4.5 + 0.5);
}
