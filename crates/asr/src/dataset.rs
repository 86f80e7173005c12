//! Seeded synthetic-corpus generation with speaker-disjoint splits.

use crate::features::FrontEnd;
use crate::phones::PhoneSet;
use crate::synth::{render_utterance, Speaker, SAMPLE_RATE};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One labelled utterance.
#[derive(Debug, Clone)]
pub struct Utterance {
    /// Log-mel feature frames.
    pub features: Vec<Vec<f32>>,
    /// Per-frame phone id (aligned with `features`).
    pub frame_labels: Vec<usize>,
    /// The reference phone sequence (silence excluded) for PER scoring.
    pub phone_seq: Vec<usize>,
}

impl Utterance {
    /// Converts into the `(frames, labels)` pair the trainer consumes.
    pub fn as_sequence(&self) -> (Vec<Vec<f32>>, Vec<usize>) {
        (self.features.clone(), self.frame_labels.clone())
    }
}

/// Half-width of the uniform noise added to every normalized feature
/// (simulating channel variation).
const NOISE_LEVEL: f32 = 0.05;

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SynthCorpusConfig {
    /// Number of training utterances.
    pub train_utterances: usize,
    /// Number of test utterances (speaker-disjoint from training).
    pub test_utterances: usize,
    /// Number of training speakers.
    pub train_speakers: usize,
    /// Number of test speakers.
    pub test_speakers: usize,
    /// Phones per utterance (min, max).
    pub phones_per_utterance: (usize, usize),
    /// Phone duration in milliseconds (min, max).
    pub phone_ms: (f32, f32),
    /// RNG seed (corpora are fully reproducible).
    pub seed: u64,
}

impl SynthCorpusConfig {
    /// The default experiment-scale corpus. Its 1 056 test utterances
    /// (≈ 8 400 phones) put the binomial standard error of a 30 % PER
    /// near 0.5 pp; the test split is drawn after the training split, so
    /// its size does not move the trained weights.
    pub fn standard(seed: u64) -> Self {
        SynthCorpusConfig {
            train_utterances: 160,
            test_utterances: 1_056,
            train_speakers: 16,
            test_speakers: 8,
            phones_per_utterance: (6, 10),
            phone_ms: (60.0, 140.0),
            seed,
        }
    }

    /// A miniature corpus for unit tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        SynthCorpusConfig {
            train_utterances: 6,
            test_utterances: 3,
            train_speakers: 2,
            test_speakers: 1,
            phones_per_utterance: (3, 5),
            phone_ms: (50.0, 80.0),
            seed,
        }
    }
}

/// A generated corpus with speaker-disjoint train/test splits.
#[derive(Debug, Clone)]
pub struct SynthCorpus {
    /// Training utterances.
    pub train: Vec<Utterance>,
    /// Test utterances (unseen speakers).
    pub test: Vec<Utterance>,
    /// The phone inventory used.
    pub phones: PhoneSet,
    /// Feature dimension per frame.
    pub feature_dim: usize,
}

impl SynthCorpus {
    /// Generates a corpus. Deterministic in `config.seed`.
    pub fn generate(config: &SynthCorpusConfig) -> Self {
        let phones = PhoneSet::standard();
        let fe = FrontEnd::standard();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        let train_speakers: Vec<Speaker> = (0..config.train_speakers)
            .map(|_| Speaker::random(&mut rng))
            .collect();
        let test_speakers: Vec<Speaker> = (0..config.test_speakers)
            .map(|_| Speaker::random(&mut rng))
            .collect();

        let make_split = |n: usize, speakers: &[Speaker], rng: &mut ChaCha8Rng| {
            (0..n)
                .map(|_| generate_utterance(config, &phones, &fe, speakers, rng))
                .collect::<Vec<_>>()
        };
        let train = make_split(config.train_utterances, &train_speakers, &mut rng);
        let test = make_split(config.test_utterances, &test_speakers, &mut rng);
        let feature_dim = fe.feature_dim();
        SynthCorpus {
            train,
            test,
            phones,
            feature_dim,
        }
    }

    /// Training data in trainer format.
    pub fn train_sequences(&self) -> Vec<(Vec<Vec<f32>>, Vec<usize>)> {
        self.train.iter().map(Utterance::as_sequence).collect()
    }

    /// Number of classifier classes (phone inventory size).
    pub fn num_classes(&self) -> usize {
        self.phones.len()
    }
}

fn generate_utterance(
    config: &SynthCorpusConfig,
    phones: &PhoneSet,
    fe: &FrontEnd,
    speakers: &[Speaker],
    rng: &mut ChaCha8Rng,
) -> Utterance {
    let speaker = speakers[rng.gen_range(0..speakers.len())];
    let n_phones = rng.gen_range(config.phones_per_utterance.0..=config.phones_per_utterance.1);
    let speech_ids = phones.speech_ids();

    // Leading silence, then phones (no immediate repeats), trailing silence.
    let mut seq_ids: Vec<usize> = vec![PhoneSet::SILENCE];
    let mut last = PhoneSet::SILENCE;
    for _ in 0..n_phones {
        let mut id = speech_ids[rng.gen_range(0..speech_ids.len())];
        while id == last {
            id = speech_ids[rng.gen_range(0..speech_ids.len())];
        }
        seq_ids.push(id);
        last = id;
    }
    seq_ids.push(PhoneSet::SILENCE);

    let segs: Vec<(crate::phones::Phone, usize)> = seq_ids
        .iter()
        .map(|&id| {
            let ms = rng.gen_range(config.phone_ms.0..config.phone_ms.1);
            let samples = (ms / 1000.0 * SAMPLE_RATE) as usize;
            (*phones.get(id), samples.max(fe.frame_len()))
        })
        .collect();

    let (wave, sample_align) = render_utterance(&segs, &speaker, rng);
    let mut features = fe.extract(&wave);
    // Channel / environment noise on the normalized features.
    for f in &mut features {
        for v in f.iter_mut() {
            *v += rng.gen_range(-NOISE_LEVEL..NOISE_LEVEL);
        }
    }
    // Map per-sample segment indices to phone ids, then to frames.
    let sample_phone_ids: Vec<usize> = sample_align.iter().map(|&seg| seq_ids[seg]).collect();
    let frame_labels = fe.frame_labels(&sample_phone_ids);
    debug_assert_eq!(frame_labels.len(), features.len());

    let phone_seq: Vec<usize> = seq_ids
        .iter()
        .copied()
        .filter(|&id| id != PhoneSet::SILENCE)
        .collect();

    Utterance {
        features,
        frame_labels,
        phone_seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = SynthCorpus::generate(&SynthCorpusConfig::tiny(5));
        let b = SynthCorpus::generate(&SynthCorpusConfig::tiny(5));
        assert_eq!(a.train.len(), b.train.len());
        for (ua, ub) in a.train.iter().zip(b.train.iter()) {
            assert_eq!(ua.frame_labels, ub.frame_labels);
            assert_eq!(ua.features, ub.features);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthCorpus::generate(&SynthCorpusConfig::tiny(1));
        let b = SynthCorpus::generate(&SynthCorpusConfig::tiny(2));
        assert_ne!(a.train[0].frame_labels, b.train[0].frame_labels);
    }

    #[test]
    fn shapes_are_consistent() {
        let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(9));
        assert_eq!(corpus.feature_dim, 52);
        for utt in corpus.train.iter().chain(corpus.test.iter()) {
            assert_eq!(utt.features.len(), utt.frame_labels.len());
            assert!(!utt.features.is_empty());
            assert!(utt.features.iter().all(|f| f.len() == 52));
            assert!(!utt.phone_seq.is_empty());
            assert!(utt
                .phone_seq
                .iter()
                .all(|&id| id != PhoneSet::SILENCE && id < corpus.phones.len()));
        }
    }

    #[test]
    fn frame_labels_contain_silence_and_speech() {
        let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(11));
        let utt = &corpus.train[0];
        assert!(utt.frame_labels.contains(&PhoneSet::SILENCE));
        assert!(utt.frame_labels.iter().any(|&l| l != PhoneSet::SILENCE));
    }

    #[test]
    fn no_immediate_phone_repeats() {
        let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(13));
        for utt in &corpus.train {
            for w in utt.phone_seq.windows(2) {
                assert_ne!(w[0], w[1], "adjacent repeated phone breaks decoding");
            }
        }
    }
}
