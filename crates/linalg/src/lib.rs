//! Linear-algebra substrate for the E-RNN reproduction.
//!
//! Two matrix representations coexist in the E-RNN framework:
//!
//! * [`Matrix`] — plain dense row-major storage, used during training
//!   (the ADMM subproblem 1 trains *unconstrained* weights).
//! * [`BlockCirculantMatrix`] — the paper's compressed format (Sec. III-A):
//!   the matrix is partitioned into `L_b × L_b` blocks, each a circulant
//!   defined by its first row, stored as one vector per block and executed
//!   with FFT kernels (Eqn. 4) using the FFT/IFFT decoupling of Sec. V-A1.
//!
//! The bridge between them is the **Euclidean projection** of Eqn. 6
//! ([`BlockCirculantMatrix::project_dense`]), the optimal mapping of an
//! arbitrary matrix onto the block-circulant manifold that drives ADMM's
//! second subproblem.
//!
//! ```
//! use ernn_linalg::{BlockCirculantMatrix, MatVec, Matrix};
//!
//! let dense = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32 * 0.01);
//! let bc = BlockCirculantMatrix::project_dense(&dense, 4);
//! assert_eq!(bc.param_count(), 2 * 2 * 4); // p*q blocks, one vector each
//! let x = vec![1.0f32; 8];
//! let y_fft = bc.matvec(&x);
//! let y_direct = bc.matvec_direct(&x);
//! for (a, b) in y_fft.iter().zip(y_direct.iter()) {
//!     assert!((a - b).abs() < 1e-4);
//! }
//! ```

//! # Scratch / `_into` conventions
//!
//! Every matvec kernel has an allocating form (`matvec`) and in-place
//! forms (`matvec_into`, `matvec_batch_into`) that write into
//! caller-provided buffers and borrow a [`MatVecScratch`] for their
//! intermediates. The allocating form is a thin wrapper over the `_into`
//! kernel — bit-identical by construction — while the `_into` forms
//! perform **zero heap allocations** once the scratch has grown to the
//! shapes in play (its buffers are grow-only: a smaller batch or matrix
//! reuses a prefix). `matvec_batch_into` additionally fuses a whole batch:
//! all inputs are FFT'd first and the cached weight spectra are streamed
//! once per *batch* rather than once per input (see
//! [`BlockCirculantMatrix::matvec_batch_into`]). One [`MatVecScratch`]
//! serves every matrix in a model — keep it per worker and thread it
//! through.
//!
//! # Lane-major kernels
//!
//! The two inference kernels — the block-circulant matvec and the dense
//! [`LanePanel`] behind the classifier head — put *independent outputs*
//! (block rows, matrix rows) in the stride-1 axis of every buffer, 32 to
//! a tile, so the autovectoriser runs them side by side:
//!
//! ```text
//! circulant weights   [tile][j][plane][lane]    L_b planes per block
//! circulant scratch   [bin][re|im][lane]        FFT in, MAC, FFT out
//! dense panel         [tile][col][lane]         one row per lane
//! ```
//!
//! The bit-identity contract in one sentence: per output element the
//! floating-point operation sequence is the scalar definition's; lanes
//! only run side by side. Hence one representation and one kernel source.
//! The cost is that speed rests on LLVM seeing fixed-width lane loops:
//! `[f32; 32]` views via `try_into`, accumulators copied out and stored
//! back whole (measured: runtime-length slices are 2× slower, in-place
//! `&mut` updates fall back to scalar `mulss` chains). The oracle tests
//! run in `--release` in CI for that reason.
//!
//! # Two instantiations
//!
//! How wide the lanes of that one source may run is a narrow rule:
//!
//! * **One source body**, safe Rust written for the autovectoriser.
//! * **A second instantiation only as a `#[target_feature]` caller of
//!   that body**, selected at run time from what the kernel can observe —
//!   the CPU (`is_x86_feature_detected!`) and the tile width — never from
//!   a build flag, `target-cpu`, Cargo feature, env var or option. There
//!   is one: the block-circulant tile stage runs tiles wider than four
//!   lanes with `avx2` enabled. `vmulps` / `vaddps` on `ymm` are the same
//!   IEEE per-lane operations as `mulps` / `addps`, eight at a time
//!   (1024² `L_b = 8`: 27 → 19 µs). [`lane_isa`] names what the running
//!   CPU selects; other targets compile the baseline caller only.
//! * **Never FMA, never intrinsics.** A contracted `a·b + c` rounds once
//!   instead of twice — the one way a wider ISA could change floats. Rust
//!   never contracts by itself, `avx2` does not imply `fma`, and CI greps
//!   the release binary for `vfmadd`.
//! * **Both instantiations under the scalar oracle**, `to_bits`, debug
//!   and `--release`: the tests call the baseline caller directly, next to
//!   the dispatched entry points.
//! * **Four-lane tiles stay baseline.** Four `f32` lanes are one `xmm`
//!   register on either path, so matrices with at most four block rows —
//!   the GRU-8 models of the cluster tier, where the per-call fixed cost
//!   is the whole cost — execute the code they always did; for `W = 4`
//!   the dispatch compiles away, detection included.
//!
//! The call into the `#[target_feature]` caller is the only `unsafe` in
//! product code (the `GlobalAlloc` impl of `ernn-bench`'s counting
//! allocator and the vendored `rand_chacha`'s AVX2 fill aside): this
//! crate is `#![deny(unsafe_code)]` with a single `allow` on the dispatch,
//! every other library crate `forbid`s it.
//!
//! # Two cores
//!
//! Fig. 10's PEs work on different output blocks at once, and on
//! independent inputs side by side. The host does both with its second
//! core, through **one protocol with two grains**, under a rule as narrow
//! as the one above:
//!
//! * **One protocol, two instances.** [`Helper`] is the protocol, written
//!   once and generic over its job ([`HelperJob`], static dispatch):
//!   try-claim, post, collect, take back a job not yet started, a bounded
//!   wait for one started, rests after repeated misses, spin then park,
//!   and the helper's FFT counts charged to the caller. Each grain is one
//!   process-wide thread with one job slot:
//!   * **tiles, at B = 1** (this crate): a block-circulant call hands the
//!     upper half of its tiles to the tile helper when it has at least
//!     two tiles and `p·q·batch` ≥ [`SPLIT_MIN_WORK`];
//!   * **lanes, at B ≥ 2** (`ernn_fpga::exec`, "Two cores"): a quantized
//!     forward over at least two utterances and `Σ frames × Σ p·q` ≥
//!     `ernn_fpga::exec::LANE_SPLIT_MIN_WORK` block MACs walks one
//!     contiguous part of its lanes on the lane helper. It holds the tile
//!     helper meanwhile ([`claim_tiles`]), so neither part posts tiles and
//!     two cores never serve three threads.
//! * **One body, two runners.** The split work is partitioned, not
//!   rewritten: tiles run the one tile stage, lanes the one sequence
//!   walker. Tiles and lanes are independent, so **the bits never depend
//!   on which thread ran them** (the tests hold each split path `to_bits`
//!   to its serial path, helper free, claimed elsewhere and never
//!   starting).
//! * **Selected only from what the call observes:** its size, a second
//!   core (`available_parallelism`) and a helper that is free — not
//!   claimed by another thread, not finishing a job its caller stopped
//!   waiting for, not resting. Below a threshold a call pays one
//!   comparison; GRU-8 never gets there. No option, env var, Cargo
//!   feature or `cfg`.
//! * **A busy second core cannot stall a call.** A caller that finishes
//!   its part before the helper has started takes the job back (the loss
//!   is the handoff); one whose helper has not finished after as long
//!   again does the work itself (at most ≈ 1.5 serial calls); repeated
//!   misses rest the helper so its core goes idle (see `helper.rs`).
//!   After a job the helper spins no longer than the job took (at most
//!   [`HELPER_SPIN`]), then parks. [`split_stats`] counts what happened to
//!   every split-size call of the tile helper.
//! * **No `unsafe`.** A job holds what it shares with the caller as an
//!   `Arc` clone — a matrix's blocks and spectra sit behind one `Arc`,
//!   the spectra read by the caller before it posts a tile — without
//!   copying it; the job slot is a `Mutex` that is never
//!   contended; callers claim a helper with an atomic try-claim.
//! * **Nothing else moves:** each helper spawns once, on the first call
//!   that qualifies; the caller grows every buffer the helper writes, so
//!   steady state allocates nothing on either thread; a helper's FFT
//!   work is charged to the caller (`ernn_fft::stats::charge`), so a
//!   tile-split call counts exactly what the serial call counts, on the
//!   calling thread. (A lane-split forward
//!   counts the serial transforms too, but reads the weight spectra once
//!   per part; `ernn_fpga::exec` states the formula.)
//! * **What the tile split halves is the MAC.** One core, `L_b = 8`,
//!   B = 1, µs per call before → after the transposes around the MAC took
//!   a literal block width (`circulant.rs`, "Where the time goes", has
//!   B = 8 and the method): 4096×153 14.1 → 11.6 (MAC 9.3 → 9.8, IFFT
//!   0.8 → 0.8, scatter 3.5 → 1.0, gather 0.5 → ≈ 0); 4096×512 35.3 → 32.8
//!   (29.6 → 29.6, 1.0 → 1.5, 3.9 → 1.3, 0.9 → 0.4); 512×1024 10.0 → 9.4
//!   (7.6 → 7.4, ≈ 0 → 0.3, 1.5 → 1.2, 1.1 → 0.4); 768×39 1.30 → 0.91
//!   (0.45 → 0.54, 0.23 → 0.16, 0.55 → 0.19, 0.07 → 0.02). Each tile's
//!   scatter runs on the thread that ran the tile, so a split call splits
//!   it too; the MAC is 79–90 % of the large calls at B = 1.

// The one exception is the tile dispatch in `circulant.rs` (see "Two
// instantiations" above); a second `unsafe` anywhere is a compile error,
// the helper threads of "Two cores" included.
#![deny(unsafe_code)]

mod circulant;
mod dense;
mod helper;
mod lanes;
pub mod ops;
mod scratch;
mod weight;

pub use circulant::{
    claim_tiles, split_stats, BlockCirculantMatrix, TileClaim, DRAW_CHUNK, SPLIT_MIN_WORK,
};
pub use dense::{LanePanel, Matrix};
pub use helper::{Claim, Done, Helper, HelperJob, SplitStats, HELPER_SPIN};
pub use lanes::lane_isa;
pub use scratch::MatVecScratch;
pub use weight::{MatVec, WeightMatrix};
