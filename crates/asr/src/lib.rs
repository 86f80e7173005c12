//! Automatic-speech-recognition substrate for the E-RNN reproduction.
//!
//! The paper evaluates on TIMIT, a proprietary LDC corpus. This crate
//! replaces it with a **parametric speech synthesizer plus a real DSP front
//! end**, so the exact code path of an acoustic model is exercised:
//!
//! 1. [`phones`] — a phone inventory with articulatory classes (vowels with
//!    formant triples, fricatives, stops, nasals, silence).
//! 2. [`synth`] — a source-filter synthesizer: impulse-train or noise
//!    excitation through biquad resonator cascades, with per-speaker pitch
//!    and vocal-tract-length variation.
//! 3. [`features`] — pre-emphasis, Hamming windowing, FFT power spectra
//!    (via `ernn-fft`), mel filterbank, log compression, first-order deltas
//!    and utterance-level mean/variance normalization: one fixed front end,
//!    26 mel bins plus their deltas per frame.
//! 4. [`dataset`] — seeded corpus generation with speaker-disjoint
//!    train/test splits, yielding framewise-labelled utterances.
//! 5. [`decode`] — greedy framewise decoding, collapse, and phone error
//!    rate (PER) via edit distance — the metric of the paper's Tables I/II.
//!
//! The *absolute* PER of a synthetic corpus differs from TIMIT's ~20%;
//! what transfers is the **relative degradation** across block sizes and
//! cell types, which is the quantity the paper's model exploration reports.
//!
//! ```
//! use ernn_asr::dataset::{SynthCorpus, SynthCorpusConfig};
//!
//! let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(42));
//! assert!(!corpus.train.is_empty() && !corpus.test.is_empty());
//! let utt = &corpus.train[0];
//! assert_eq!(utt.features.len(), utt.frame_labels.len());
//! ```

#![forbid(unsafe_code)]

pub mod dataset;
pub mod decode;
pub mod features;
pub mod phones;
pub mod synth;

pub use dataset::{SynthCorpus, SynthCorpusConfig, Utterance};
pub use decode::{
    decode_frames, edit_distance, evaluate_per, phone_error_rate, IncrementalDecoder,
};
pub use features::FrontEnd;
pub use phones::{Phone, PhoneClass, PhoneSet};
