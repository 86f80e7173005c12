//! The artifact round-trip contract, property-tested end to end:
//! `save_bytes → load_bytes → CompiledModel` must produce **bit-equal
//! logits** and **equal `StageCycles`** versus the in-process pipeline
//! for any model shape, and loading an artifact must compute each weight
//! spectrum once, as compiling does: both loads report the same
//! `LoadStats`, one forward transform per cached spectrum. Corrupted,
//! truncated
//! and wrong-version bytes must surface as `PipelineError`s, never
//! panics.

use ernn::fft::stats;
use ernn::fpga::artifact::{ModelArtifact, PipelineError, ARTIFACT_VERSION};
use ernn::model::{BlockPolicy, CellType, ModelSpec};
use ernn::pipeline::{DatapathChoice, Pipeline};
use ernn::serve::sched::ModelRegistry;
use ernn::serve::CompiledModel;
use proptest::prelude::*;
use rand::SeedableRng;

/// Builds a pipeline model from a drawn shape, returning the in-process
/// model and its byte image.
fn build(
    seed: u64,
    cell: CellType,
    hidden: usize,
    layers: usize,
    block: usize,
    bits: u8,
) -> (CompiledModel, Vec<u8>) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dims = vec![hidden; layers];
    let spec = ModelSpec::new(cell, 6, 5)
        .layer_dims(&dims)
        .peephole(cell == CellType::Lstm);
    let datapath = DatapathChoice {
        datapath: ernn::fpga::exec::DatapathConfig {
            weight_bits: bits,
            activation_bits: bits,
            pwl_segments: 64,
        },
        quant_trials: Vec::new(),
    };
    let built = Pipeline::paper(spec)
        .expect("valid spec")
        .block_policy(BlockPolicy::uniform(block))
        .init(&mut rng)
        .project()
        .expect("pow2 block")
        .quantize_chosen(datapath)
        .expect("valid datapath")
        .compile()
        .expect("known device");
    let bytes = built.save_bytes();
    (built.into_model(), bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn round_trip_is_bit_identical_for_any_shape(
        seed in 0u64..1_000,
        cell_sel in 0u64..2,
        hidden_sel in 0u64..3,
        layers in 1usize..3,
        block_sel in 0u64..3,
        bits_sel in 0u64..3,
        frames in 1usize..6,
    ) {
        let cell = if cell_sel == 0 { CellType::Lstm } else { CellType::Gru };
        let hidden = [8usize, 16, 24][hidden_sel as usize];
        let block = [2usize, 4, 8][block_sel as usize];
        let bits = [8u8, 12, 16][bits_sel as usize];
        let (model, bytes) = build(seed, cell, hidden, layers, block, bits);

        let artifact = ModelArtifact::load_bytes(&bytes).expect("artifact decodes");
        // Deterministic byte image.
        prop_assert_eq!(artifact.save_bytes(), bytes.clone());

        let loaded = CompiledModel::from_artifact(&artifact);
        // Bit-equal logits on a seeded probe.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        use rand::Rng;
        let probe: Vec<Vec<f32>> = (0..frames)
            .map(|_| (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let a = model.infer(&probe);
        let b = loaded.infer(&probe);
        prop_assert_eq!(a, b);
        // Equal accelerator timing.
        prop_assert_eq!(loaded.stage_cycles(), model.stage_cycles());
        prop_assert_eq!(loaded.spec(), model.spec());
        prop_assert_eq!(loaded.weight_bytes(), model.weight_bytes());

        // Both loads computed each spectrum once and counted it.
        let cached = model.load_stats.cached_spectra;
        prop_assert_eq!(model.load_stats.fft.forward_transforms, cached as u64);
        prop_assert_eq!(loaded.load_stats.fft, model.load_stats.fft);
        prop_assert_eq!(loaded.load_stats.cached_spectra, cached);

        // Registering a freshly decoded artifact: decoding runs no FFT,
        // and the registration's load runs exactly the cached spectra.
        let mut reg = ModelRegistry::new();
        let before = stats::thread_snapshot();
        let decoded = ModelArtifact::load_bytes(&bytes).expect("artifact decodes");
        prop_assert_eq!(stats::thread_snapshot().since(&before).forward_transforms, 0);
        let id = reg.register_artifact("roundtrip", &decoded);
        let registering = stats::thread_snapshot().since(&before).forward_transforms;
        prop_assert_eq!(registering, cached as u64);
        prop_assert_eq!(reg.model(id).load_stats.fft, model.load_stats.fft);
    }

    #[test]
    fn every_truncation_is_a_clean_error(cut_sel in 0u64..10_000) {
        // One fixed artifact, cut at a drawn offset: load must return
        // Err, never panic, and never succeed on a strict prefix.
        let (_, bytes) = build(3, CellType::Gru, 16, 1, 4, 12);
        let cut = (cut_sel as usize) % bytes.len();
        prop_assert!(ModelArtifact::load_bytes(&bytes[..cut]).is_err());
    }
}

#[test]
fn wrong_version_and_magic_are_typed_errors() {
    let (_, bytes) = build(4, CellType::Gru, 16, 1, 4, 12);
    // Version byte lives right after the 8-byte magic.
    let mut wrong_version = bytes.clone();
    wrong_version[8] = ARTIFACT_VERSION as u8 + 3;
    match ModelArtifact::load_bytes(&wrong_version) {
        Err(PipelineError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, ARTIFACT_VERSION + 3);
            assert_eq!(supported, ARTIFACT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // Version 1 carried activation tags this build no longer reads.
    let mut version_1 = bytes.clone();
    version_1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        ModelArtifact::load_bytes(&version_1).unwrap_err(),
        PipelineError::UnsupportedVersion {
            found: 1,
            supported: 2
        }
    );
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        ModelArtifact::load_bytes(&wrong_magic),
        Err(PipelineError::BadMagic)
    ));
    assert!(matches!(
        ModelArtifact::load_bytes(&[]),
        Err(PipelineError::Truncated { .. })
    ));
}

#[test]
fn corrupted_structure_fields_are_clean_errors() {
    let (_, bytes) = build(5, CellType::Lstm, 16, 2, 4, 12);
    // Flip every byte in the header region (device name, datapath,
    // policy, spec) one at a time: decode must never panic — each
    // corruption either errors or, if it lands in provenance float
    // payload, still decodes to *something* structurally valid.
    for i in 12..bytes.len().min(200) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xFF;
        let _ = ModelArtifact::load_bytes(&corrupt);
    }
    // A lying collection length is a typed error, not an OOM or panic:
    // the device-name length field is the first u64 after magic+version.
    let mut lying = bytes.clone();
    lying[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        ModelArtifact::load_bytes(&lying),
        Err(PipelineError::Truncated { .. }) | Err(PipelineError::Corrupt(_))
    ));
}
