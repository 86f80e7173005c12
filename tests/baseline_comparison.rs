//! Integration test of the two structured compression approaches on one
//! task: C-LSTM-style direct circulant training and E-RNN's ADMM — both
//! must produce working compressed models of the same size on the FFT
//! path.

use ernn::admm::{train_projected, AdmmConfig, Recipe};
use ernn::asr::{evaluate_per, SynthCorpus, SynthCorpusConfig};
use ernn::model::trainer::TrainOptions;
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec, Sgd};
use rand::SeedableRng;

#[test]
fn clstm_and_admm_produce_working_models_of_equal_size() {
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

    // (a) C-LSTM: direct circulant training.
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

    // (b) E-RNN: the Fig. 6 recipe.
    let (admm_compressed, _) = recipe.compress(&mut dense.clone(), &[policy], &data, &mut rng);
    let per_admm = evaluate_per(|f| admm_compressed.forward_logits(f), &corpus.test);

    // Both produce finite, comparable PERs on the same corpus.
    for per in [per_clstm, per_admm] {
        assert!(per.is_finite());
        assert!((0.0..=100.0).contains(&per), "{per}");
    }

    // Both compress by exactly the block factor.
    assert_eq!(
        clstm_compressed.param_count(),
        admm_compressed.param_count()
    );
}
