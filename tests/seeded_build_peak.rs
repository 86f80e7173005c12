//! The seeded build's memory peak: `Pipeline::init(rng).project()` draws
//! the paper's GRU-1024 straight into block-circulant form, without its
//! dense weights.
//!
//! The instrument is the kernel's high-water mark of this process's
//! resident memory (`VmHWM` in `/proc/self/status`, so Linux only). The
//! binary holds a single `#[test]`, so no other test allocates while it
//! reads the mark. The seeded build must raise the mark by less than half
//! the dense network's bytes, and `ModelSpec::build` then by more, which
//! shows that the instrument sees a dense build. (Measured: the seeded
//! build ≈ 6.2 MB, against ≈ 20 MB for drawing dense and projecting; the
//! dense one ≈ 13.9–14.5 of the 14.7 MB, not all of them, because it may
//! reuse memory the seeded build freed.)
#![cfg(target_os = "linux")]

use ernn::model::{CellType, ModelSpec};
use ernn::pipeline::Pipeline;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix(field));
    let kib = line.unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    let kib = kib.trim().trim_end_matches("kB").trim();
    1024 * kib.parse::<usize>().expect("a kB count")
}

#[test]
fn a_seeded_gru1024_peaks_below_half_of_its_dense_weights() {
    let (input, hidden, classes) = (153, 1024, 61);
    let spec = ModelSpec::new(CellType::Gru, input, classes).layer_dims(&[hidden]);
    // `wzr_x`, `wzr_c`, `wcx`, `wcc` (3H × (I + H) together) and the
    // classifier, in `f32`: 14.5 MB.
    let dense_bytes = 4 * (3 * hidden * (input + hidden) + classes * hidden);

    let before = status_bytes("VmRSS:");
    let mut rng = ChaCha8Rng::seed_from_u64(2019);
    let seeded = Pipeline::paper(spec.clone())
        .expect("valid spec")
        .init(&mut rng)
        .project()
        .expect("paper block policy");
    let seeded_growth = status_bytes("VmHWM:").saturating_sub(before);
    assert!(
        seeded_growth < dense_bytes / 2,
        "the seeded build raised the peak by {seeded_growth} B, \
         not less than half the dense {dense_bytes} B"
    );

    let before = status_bytes("VmRSS:");
    let dense = spec.build(&mut ChaCha8Rng::seed_from_u64(2019));
    let dense_growth = status_bytes("VmHWM:").saturating_sub(before);
    assert!(
        dense_growth > dense_bytes / 2,
        "the dense build raised the peak by only {dense_growth} B of {dense_bytes} B"
    );
    drop((seeded, dense));
}
