//! The full ASR substrate, stage by stage: waveform synthesis → DSP front
//! end → framewise acoustic model → greedy decoding → PER scoring.
//!
//! Run with: `cargo run --release --example asr_pipeline`

use ernn::asr::features::FrontEnd;
use ernn::asr::phones::PhoneSet;
use ernn::asr::synth::{render_utterance, Speaker};
use ernn::asr::{decode_frames, edit_distance, SynthCorpus, SynthCorpusConfig};
use ernn::model::trainer::{train, TrainOptions};
use ernn::model::{CellType, ModelSpec, Sgd};
use rand::SeedableRng;

fn main() {
    let phones = PhoneSet::standard();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);

    // 1. Synthesize one utterance and inspect the raw signal path.
    let speaker = Speaker::random(&mut rng);
    let segs: Vec<_> = ["sil", "iy", "s", "aa", "n", "sil"]
        .iter()
        .map(|s| (*phones.get(phones.id_of(s).expect("known phone")), 1600))
        .collect();
    let (wave, _align) = render_utterance(&segs, &speaker, &mut rng);
    println!(
        "synthesized {} samples ({:.2} s at 16 kHz), peak {:.3}",
        wave.len(),
        wave.len() as f32 / 16_000.0,
        wave.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    );

    // 2. Front end: log-mel features with deltas.
    let fe = FrontEnd::standard();
    let feats = fe.extract(&wave);
    println!(
        "front end: {} frames x {} coefficients (25 ms window / 10 ms hop)",
        feats.len(),
        fe.feature_dim()
    );

    // 3. Train a small GRU acoustic model on a corpus of such utterances.
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::standard(9));
    let mut net = ModelSpec::new(CellType::Gru, corpus.feature_dim, corpus.num_classes())
        .layer_dims(&[64])
        .build(&mut rng);
    let mut opt = Sgd::new(0.08);
    train(
        &mut net,
        &corpus.train_sequences(),
        TrainOptions {
            epochs: 12,
            lr_decay: 0.92,
        },
        &mut opt,
        &mut rng,
    );

    // 4. Decode a few test utterances and show the raw error accounting.
    let mut errors = 0usize;
    let mut total = 0usize;
    for (i, utt) in corpus.test.iter().take(5).enumerate() {
        let logits = net.forward_logits(&utt.features);
        let hyp = decode_frames(&logits, PhoneSet::SILENCE, 2);
        let d = edit_distance(&utt.phone_seq, &hyp);
        errors += d;
        total += utt.phone_seq.len();
        let show = |ids: &[usize]| {
            ids.iter()
                .map(|&id| phones.get(id).symbol)
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "utt {i}: ref [{}] hyp [{}] ({d} edits)",
            show(&utt.phone_seq),
            show(&hyp)
        );
    }
    println!(
        "sample PER: {:.1}% ({errors} errors / {total} reference phones)",
        100.0 * errors as f64 / total as f64
    );
}
