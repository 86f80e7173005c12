//! The block-circulant weight matrix (paper Sec. III-A).
//!
//! A weight matrix `W ∈ R^{m×n}` is partitioned into `p × q` square blocks
//! of size `L_b` (`p = ⌈m/L_b⌉`, `q = ⌈n/L_b⌉`, zero-padded at the edges).
//! Each block is a circulant matrix defined by its **first row** `w_ij`
//! (Fig. 4 convention: row `r` is the first row rotated right by `r`).
//! Storage drops from `O(n²)` to `O(n)` and the matvec runs as
//!
//! ```text
//! a_i = IFFT( Σ_j  conj(FFT(w_ij)) ∘ FFT(x_j) )          (Eqn. 4)
//! ```
//!
//! (the conjugation appears because a row-defined circulant performs a
//! circular *correlation*; the E-RNN PE datapath contains the matching
//! conjugation operator, Fig. 10). The implementation applies both
//! computation reductions from Sec. V-A: `FFT(x_j)` is computed once per
//! input block and the IFFT runs once per output block after
//! frequency-domain accumulation.
//!
//! # Lane-major kernel
//!
//! Fig. 10's PE runs its multipliers side by side; the host kernel does
//! the same with SIMD lanes. Up to 32 consecutive block *rows* `i` form a
//! **tile** and sit in the stride-1 lane axis of every buffer:
//!
//! ```text
//! weight planes   [tile][j][plane][lane]      plane = re[0], re[L_b/2],
//!                                             (re, im) of bins 1..L_b/2
//! input spectra   [chunk][bin][re|im][lane]   32·chunk + lane = b·q + j
//! accumulators    [b][bin][re|im][lane]       lane = i − tile.first
//! ```
//!
//! Only the `L_b` independent reals of a block's half spectrum are stored
//! (bins 0 and `L_b/2` of a real signal are real). For each tile the MAC
//! walks `j` ascending, loads the tile's planes once and, for every batch
//! input, broadcasts `FFT(x_j)[k]` over the lanes; the FFTs on either
//! side are [`RealFft::forward_lanes`] / [`RealFft::inverse_lanes`] on the
//! same planes, so nothing is gathered into `Complex32`. The tail tile is
//! only as wide as it needs (4, 8, 16 or 32 lanes).
//!
//! **Bit-identity contract:** per output element the floating-point
//! operation sequence is the scalar definition's; lanes only run side by
//! side. No reduction is re-associated, so allocating == `_into` ==
//! batched == every executor, bit for bit, and the tests keep the scalar
//! definition as their oracle. The transforms on either side are
//! `RealFft`'s, scalar in the oracle and lane-batched here, which at
//! `L_b` 8 and 16 both run the same straight-line codelet (`ernn-fft`'s
//! contract for those: `==` the radix-2 plan, sign of an exact zero
//! excepted).
//!
//! Where the time goes, 1024² `L_b = 8` at batch 1 (≈ 15–17 µs on AVX2
//! tiles on one core, ≈ 22 on baseline SSE2): the MAC; the eight 32-lane
//! tile transforms are ≈ 0.4 µs of it since the codelets (≈ 1.7 µs on the
//! radix-2 plan). With the second core (crate docs, "Two cores") its four
//! tiles go two and two and the call reads ≈ 10–12 µs: half the MAC plus
//! ≈ 2–3 µs of handoff — the input spectra copied into the job, the
//! helper's start, its rows copied back. The LSTM-1024 matrices are tall —
//! 4096×512 issues 16 inverse tiles, 4096×153 another 16 — which is where
//! the plan's ≈ 210–260 ns per inverse tile was ≈ 7 µs of a frame; they
//! split eight and eight (4096×512: ≈ 31 → 18–22 µs).
//!
//! Around the MAC sit two transposes, pure data movement: stage 1 gathers
//! each input block into the `[sample][lane]` planes the lane FFT reads
//! (`gather_lanes`), and stage 3 scatters each output block back out of
//! them (`scatter_lanes`). At the paper's `L_b` 8 and 16 both run a whole
//! block with the block size a literal as well as the lane width. While
//! their loops took `L_b` at run time the scatter cost ≈ 0.9 ns per
//! output. One core (`taskset -c 0`), AVX2 tiles, `L_b = 8`, µs per call,
//! best of 2 000 calls and the median of three rounds, before → after.
//! A part is what a build without it saves, so the parts overlap: at
//! `B = 8` a saving can move between columns (the IFFT did not change),
//! and "≈ 0" is a saving below the noise. "MAC" is the rest of the call,
//! stage 1's forward FFT included.
//!
//! | shape | B | call | MAC | IFFT | scatter | gather |
//! |---|---|---|---|---|---|---|
//! | 4096×153 | 1 | 14.1 → 11.6 | 9.3 → 9.8 | 0.8 → 0.8 | 3.5 → 1.0 | 0.5 → ≈ 0 |
//! | 4096×153 | 8 | 108.7 → 89.8 | 74.9 → 73.2 | 3.3 → 8.0 | 27.0 → 8.2 | 3.5 → 0.5 |
//! | 4096×512 | 1 | 35.3 → 32.8 | 29.6 → 29.6 | 1.0 → 1.5 | 3.9 → 1.3 | 0.9 → 0.4 |
//! | 4096×512 | 8 | 273.6 → 251.2 | 241.9 → 237.0 | 3.8 → 10.7 | 22.0 → 0.5 | 5.9 → 3.1 |
//! | 512×1024 | 1 | 10.0 → 9.4 | 7.6 → 7.4 | ≈ 0 → 0.3 | 1.5 → 1.2 | 1.1 → 0.4 |
//! | 512×1024 | 8 | 73.0 → 66.1 | 60.6 → 60.3 | 0.3 → 1.6 | 3.6 → 0.3 | 8.5 → 4.0 |
//! | 768×39 | 1 | 1.30 → 0.91 | 0.45 → 0.54 | 0.23 → 0.16 | 0.55 → 0.19 | 0.07 → 0.02 |
//! | 768×39 | 8 | 10.2 → 6.9 | 3.5 → 3.6 | 0.9 → 1.4 | 4.9 → 1.8 | 0.8 → 0.1 |
//!
//! The MAC is what is left: 53–94 % of every call above. The short-`q`
//! stacks that serve GRU-64 and GRU-256 on 39 inputs gained most, since
//! their scatter had cost more than their MAC.
//!
//! # Two instantiations
//!
//! The tile stage (MAC over `j`, IFFT, scatter) is one `#[inline(always)]`
//! body, `tile_stage`, with two thin callers: `matvec_tile_baseline`
//! (the build target's own ISA — SSE2 on x86-64 — and the only one other
//! targets compile) and, on x86-64, `matvec_tile_avx2`, the same body
//! under `#[target_feature(enable = "avx2")]`. `matvec_tile` picks per
//! tile: AVX2 when `is_x86_feature_detected!("avx2")` holds **and** the
//! tile is wider than four lanes. A four-lane tile is one `xmm` register
//! either way, so matrices with `p ≤ 4` (GRU-8) keep executing exactly
//! the baseline code — `W` is a constant, the dispatch folds away. Stage 1
//! and the lane FFTs are not dispatched: force-inlining the radix-2 lane
//! FFTs into the AVX2 caller bought 3 µs of an LSTM-1024 frame and cost
//! the GRU-8 path 8 %, and the FFT8 / FFT16 codelets that replaced them
//! are `inline(never)` in `ernn-fft` — one baseline-ISA body, ≈ 42–60 ns
//! per 32-lane tile, ≈ 9–15 ns per 4-lane tile. The rule this follows (no FMA, no intrinsics, no build flag, both
//! instantiations under the oracle) is in the crate docs; `lanes.rs`
//! records the measured ways a lane loop silently falls back to scalar
//! code, and what AVX2 costs to wake.

use crate::dense::xavier_bound;
use crate::helper::{Claim, Helper, HelperJob, SplitStats};
use crate::lanes::{
    lane_tile, lane_tiles, lanes, lanes_mut, padded_lanes, with_lane_width, LaneTile, TILE,
};
use crate::{MatVec, MatVecScratch, Matrix};
use ernn_fft::{is_power_of_two, stats, Complex32, RealFft};
use rand::Rng;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The least work, `p·q·batch` block MACs, at which a call of at least
/// two tiles hands the upper half of them to the helper thread (see the
/// crate docs, "Two cores").
pub const SPLIT_MIN_WORK: usize = 8192;

/// The most entries [`BlockCirculantMatrix::project_xavier`] holds drawn
/// at once, 1 MiB of `f32`, unless one block row is longer. A matrix's
/// runs of whole block rows, all but its last, are at least half of this:
/// ≥ 16 384 ChaCha8 blocks, so their bulk fills split across two cores
/// (from 6 144 blocks) and pay the split's thread spawn a few times per
/// matrix, not a few dozen (GRU-1024 draws in 15 runs; 56 at 2¹⁶).
pub const DRAW_CHUNK: usize = 1 << 18;

/// Tiles delegated to the tile helper, with everything it needs to run
/// them.
#[derive(Debug, Default)]
pub(crate) struct TileJob {
    /// The matrix the tiles belong to: a clone, whose buffers are shared.
    matrix: Option<BlockCirculantMatrix>,
    /// Tile indices to run.
    tiles: Range<usize>,
    /// Inputs in the call.
    batch: usize,
    /// The caller's input spectra in `x_spectra`, the helper's own planes
    /// in the rest.
    scratch: MatVecScratch,
    /// `batch × rows` outputs; the helper writes its tiles' rows only.
    ys: Vec<f32>,
}

impl HelperJob for TileJob {
    fn run(&mut self) {
        let matrix = self.matrix.as_ref().expect("a posted job holds its matrix");
        let (tiles, batch) = (self.tiles.clone(), self.batch);
        let ys = &mut self.ys[..batch * matrix.rows()];
        matrix.run_tiles(matrix.spectra(), tiles, ys, batch, &mut self.scratch);
    }

    fn release(&mut self) {
        self.matrix = None;
    }
}

static TILE_HELPER: OnceLock<Option<&'static Helper<TileJob>>> = OnceLock::new();

/// The process-wide tile helper: started by the first call large enough
/// to split, `None` when the machine has one core.
fn tile_helper() -> Option<&'static Helper<TileJob>> {
    Helper::process(&TILE_HELPER, "ernn-matvec-helper")
}

/// The tile helper's [`SplitStats`]; all zero until a call large enough
/// to split has run, and forever on a one-core machine.
pub fn split_stats() -> SplitStats {
    let helper = TILE_HELPER.get().copied().flatten();
    helper.map_or_else(SplitStats::default, Helper::stats)
}

/// The tile helper held for a caller's scope (see [`claim_tiles`]).
#[derive(Debug)]
pub struct TileClaim {
    _claim: Option<Claim<'static, TileJob>>,
}

/// Holds the tile helper so that no matvec, on any thread, posts tiles
/// while the returned claim lives: a caller that keeps the second core
/// busy with work of its own takes it first, so two cores never serve
/// three threads. `None` when the tile helper is claimed elsewhere or
/// still on a job (counted as busy in [`split_stats`]); a resting one can
/// be held. A claim that holds nothing on a one-core machine, which has
/// no tile helper.
pub fn claim_tiles() -> Option<TileClaim> {
    let claim = match tile_helper() {
        Some(helper) => Some(helper.try_hold()?),
        None => None,
    };
    Some(TileClaim { _claim: claim })
}

/// A block-circulant matrix: an immutable value whose weight spectra are
/// derived state.
///
/// Construct one either from explicit defining vectors
/// ([`BlockCirculantMatrix::from_blocks`]) or by Euclidean projection of a
/// dense matrix ([`BlockCirculantMatrix::project_dense`], the paper's
/// Eqn. 6 — the optimal solution of ADMM's second subproblem).
/// Construction runs no FFT: `FFT(w_ij)` of every block is computed at
/// most once, by the first read — the first FFT matvec, or
/// [`Self::cache_spectra`] — and clones share that one computation.
#[derive(Debug, Clone)]
pub struct BlockCirculantMatrix {
    /// Logical output dimension (rows of the represented matrix).
    rows: usize,
    /// Logical input dimension.
    cols: usize,
    /// Circulant block size `L_b`.
    block_size: usize,
    /// Number of block rows, `⌈rows / L_b⌉`.
    p: usize,
    /// Number of block columns, `⌈cols / L_b⌉`.
    q: usize,
    /// The defining vectors and their spectra, shared by clones, so the
    /// helper thread can hold the matrix without copying it.
    weights: Arc<Weights>,
    /// Process-wide shared real-FFT plan of size `L_b` (see
    /// [`RealFft::shared`]); clones of this matrix share the plan instead
    /// of recomputing twiddle tables.
    rfft: Arc<RealFft>,
}

/// What a [`BlockCirculantMatrix`] and its clones share.
#[derive(Debug)]
struct Weights {
    /// Defining first-row vectors, `p*q` blocks × `L_b` entries, block
    /// row-major.
    blocks: Box<[f32]>,
    /// `FFT(w_ij)` as lane-major planes, `[tile][j][plane][lane]` (see the
    /// module docs): `L_b` planes per block, block *rows* in the stride-1
    /// lane axis, the tail tile zero-padded to its lane width. Set by the
    /// first read.
    spectra: OnceLock<Box<[f32]>>,
}

impl BlockCirculantMatrix {
    /// Builds a block-circulant matrix from defining vectors.
    ///
    /// `blocks` holds `⌈rows/L_b⌉ · ⌈cols/L_b⌉` first-row vectors of length
    /// `block_size`, in block row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two, dimensions are zero,
    /// or `blocks` has the wrong length.
    pub fn from_blocks(rows: usize, cols: usize, block_size: usize, blocks: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be non-zero");
        assert!(
            is_power_of_two(block_size),
            "block size must be a power of two, got {block_size}"
        );
        let p = rows.div_ceil(block_size);
        let q = cols.div_ceil(block_size);
        assert_eq!(
            blocks.len(),
            p * q * block_size,
            "expected {} block parameters, got {}",
            p * q * block_size,
            blocks.len()
        );
        BlockCirculantMatrix {
            rows,
            cols,
            block_size,
            p,
            q,
            weights: Arc::new(Weights {
                blocks: blocks.into(),
                spectra: OnceLock::new(),
            }),
            rfft: RealFft::shared(block_size),
        }
    }

    /// Euclidean projection of a dense matrix onto the block-circulant
    /// manifold (paper Eqn. 6 / Fig. 5).
    ///
    /// For each block, each entry of the defining vector is the mean of the
    /// corresponding circulant diagonal. When the dense dimensions do not
    /// divide `block_size`, edge blocks are truncated: the mean runs over
    /// the in-bounds entries only, which keeps the projection the exact
    /// Euclidean minimizer over the *represented* (truncated) matrix and —
    /// crucially for ADMM — idempotent.
    ///
    /// Every block runs one body, `sum_block_diagonals`, which sums its
    /// `L_b` diagonals over `r = 0..` in order, one block at a time in
    /// registers; the test oracle `project_block_row_by_segments` is the
    /// per-row segment loop it replaced, and the two are `to_bits`-equal.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    pub fn project_dense(dense: &Matrix, block_size: usize) -> Self {
        assert!(
            is_power_of_two(block_size),
            "block size must be a power of two, got {block_size}"
        );
        let (rows, cols, lb) = (dense.rows(), dense.cols(), block_size);
        let q = cols.div_ceil(lb);
        let mut blocks = vec![0.0f32; rows.div_ceil(lb) * q * lb];
        let block_rows = dense.as_slice().chunks((lb * cols).max(1));
        for (dense, sums) in block_rows.zip(blocks.chunks_exact_mut(q * lb)) {
            project_block_row(dense, cols, lb, sums);
        }
        BlockCirculantMatrix::from_blocks(rows, cols, block_size, blocks)
    }

    /// [`Self::project_dense`] of [`Matrix::xavier`]`(rows, cols, rng)`,
    /// bit for bit and draw for draw, without the dense matrix: the
    /// entries are drawn a run of whole block rows at a time, at most
    /// [`DRAW_CHUNK`] entries (at least one block row), and each run is
    /// projected as soon as it is drawn.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two or a dimension is
    /// zero.
    pub fn project_xavier(rows: usize, cols: usize, block_size: usize, rng: &mut impl Rng) -> Self {
        let run = (DRAW_CHUNK / (block_size * cols).max(1)).max(1);
        Self::project_xavier_in_runs(rows, cols, block_size, run, rng)
    }

    /// [`Self::project_xavier`], drawing `run` block rows at a time.
    fn project_xavier_in_runs(
        rows: usize,
        cols: usize,
        block_size: usize,
        run: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            is_power_of_two(block_size),
            "block size must be a power of two, got {block_size}"
        );
        let (lb, a) = (block_size, xavier_bound(rows, cols));
        let q = cols.div_ceil(lb);
        let mut blocks = vec![0.0f32; rows.div_ceil(lb) * q * lb];
        let mut drawn = vec![0.0f32; rows.min(run * lb) * cols];
        for (i, sums) in blocks.chunks_mut(run * q * lb).enumerate() {
            let dense = &mut drawn[..(rows - i * run * lb).min(run * lb) * cols];
            rng.fill_f32_range(dense, -a, a);
            for (dense, sums) in dense.chunks(lb * cols).zip(sums.chunks_exact_mut(q * lb)) {
                project_block_row(dense, cols, lb, sums);
            }
        }
        BlockCirculantMatrix::from_blocks(rows, cols, block_size, blocks)
    }

    /// `[self; below]` as one operand: `below`'s block rows appended under
    /// this matrix's, so one matvec FFTs a shared input once and its
    /// output holds `self·x` in rows `..self.rows()` and `below·x` from row
    /// `p·L_b` on (when `self.rows()` is not a multiple of `L_b` the rows
    /// in between continue its last block row's circulants; no caller
    /// reads them).
    /// Per output block the blocks and their `j` order are the operands'
    /// own, so both slices are bit-identical to the separate matvecs.
    /// `None` when block size or column count differ.
    pub fn stack_block_rows(&self, below: &Self) -> Option<Self> {
        if (self.block_size, self.cols) != (below.block_size, below.cols) {
            return None;
        }
        let blocks = [self.blocks(), below.blocks()].concat();
        Some(Self::from_blocks(
            self.p * self.block_size + below.rows,
            self.cols,
            self.block_size,
            blocks,
        ))
    }

    /// Logical number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Circulant block size `L_b`.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Block-grid shape `(p, q)`.
    #[inline]
    pub fn grid(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    /// The stored defining vectors (block row-major, `L_b` per block).
    #[inline]
    pub fn blocks(&self) -> &[f32] {
        &self.weights.blocks
    }

    /// The defining vector of block `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the block indices are out of range.
    pub fn block(&self, i: usize, j: usize) -> &[f32] {
        assert!(i < self.p && j < self.q, "block index out of range");
        let base = (i * self.q + j) * self.block_size;
        &self.blocks()[base..base + self.block_size]
    }

    /// Compression ratio versus dense storage of the logical matrix.
    pub fn compression_ratio(&self) -> f64 {
        (self.rows * self.cols) as f64 / self.param_count() as f64
    }

    /// Computes the weight spectra now, unless a read already has: what a
    /// caller does at deploy time so that no matvec computes them later.
    /// Counts `p·q` forward transforms on this thread's FFT ledger the
    /// first time, nothing after.
    pub fn cache_spectra(&self) {
        self.spectra();
    }

    /// The weight spectra, computed on first read.
    fn spectra(&self) -> &[f32] {
        self.weights.spectra.get_or_init(|| self.compute_spectra())
    }

    /// `FFT(w_ij)` of every block, packed as the lane-major planes the
    /// tile stage reads.
    fn compute_spectra(&self) -> Box<[f32]> {
        let lb = self.block_size;
        let mut spectra = vec![0.0; padded_lanes(self.p) * self.q * lb];
        let (mut time, mut bins) = (Vec::new(), Vec::new());
        let mut planes = spectra.as_mut_slice();
        for tile in lane_tiles(self.p) {
            let (head, rest) = planes.split_at_mut(tile.width * self.q * lb);
            planes = rest;
            with_lane_width!(tile.width, W => self.pack_tile::<W>(tile, head, &mut time, &mut bins));
        }
        spectra.into()
    }

    /// FFTs the defining vectors of one tile of block rows and packs the
    /// `L_b` independent reals of every spectrum into `planes`
    /// (`[j][plane][lane]`). Padding lanes transform zeros, so they pack
    /// `+0.0` and contribute nothing.
    fn pack_tile<const W: usize>(
        &self,
        tile: LaneTile,
        planes: &mut [f32],
        time: &mut Vec<f32>,
        bins: &mut Vec<f32>,
    ) {
        let lb = self.block_size;
        let half = lb / 2;
        let time = grown(time, lb * W);
        let bins = grown(bins, self.rfft.spectrum_len() * 2 * W);
        for (j, packed) in planes.chunks_exact_mut(lb * W).enumerate() {
            let blocks = (0..tile.live).map(|l| self.block(tile.first + l, j));
            gather_lanes::<W>(time, lb, blocks);
            self.rfft.forward_lanes::<W>(time, bins, tile.live);
            // re[0], re[L_b/2], then (re, im) of bins 1..L_b/2: the im
            // planes of the two real bins are +0.0 and are not stored.
            packed[..W].copy_from_slice(&bins[..W]);
            if lb >= 2 {
                packed[W..2 * W].copy_from_slice(&bins[2 * half * W..][..W]);
                packed[2 * W..].copy_from_slice(&bins[2 * W..2 * half * W]);
            }
        }
    }

    /// FFT-based matvec `y = W·x` with FFT/IFFT decoupling (Sec. V-A1).
    ///
    /// Cost: `q` forward FFTs, `p·q` frequency-domain multiply-accumulates,
    /// `p` inverse FFTs. Thin allocating wrapper over
    /// [`Self::matvec_into`]; results are bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y, &mut MatVecScratch::new());
        y
    }

    /// FFT-based matvec writing into a caller-provided output buffer,
    /// allocation-free once `scratch` has grown to this matrix's shape.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch) {
        self.matvec_batch_into(x, y, 1, scratch);
    }

    /// Batch-fused FFT matvec: `ys[b] = W·xs[b]` for `batch` inputs laid
    /// out contiguously (`xs` is `batch × cols` row-major, `ys` is
    /// `batch × rows`).
    ///
    /// All `batch · q` input blocks are FFT'd first; the weight spectra
    /// (computed here on this thread if this is their first read) are
    /// then streamed **once per batch** — each `(i, j)` block
    /// visit accumulates into all `batch` frequency-domain accumulators
    /// (observable via
    /// [`spectrum_block_reads`](ernn_fft::stats::FftStats::spectrum_block_reads):
    /// `p·q` reads per call, versus `batch · p·q` for sequential calls).
    /// This is the host-side analogue of how C-LSTM amortizes the weight
    /// stream across concurrent inputs. Per-input results are
    /// bit-identical to [`Self::matvec`]: each input sees the exact same
    /// operation sequence, only the weight-block traversal is shared.
    ///
    /// Allocation-free once `scratch` has grown to this shape and batch.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * cols` or `ys.len() != batch * rows`.
    pub fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        assert_eq!(
            xs.len(),
            batch * self.cols,
            "input length must equal batch × cols"
        );
        assert_eq!(
            ys.len(),
            batch * self.rows,
            "output length must equal batch × rows"
        );
        let spectra = self.spectra();
        self.input_spectra(xs, batch, scratch);

        // Stage 2+3: one pass over the weight planes per batch — every
        // tile visit feeds all `batch` accumulators — then one lane-batched
        // IFFT per (tile, input). The pass visits exactly p·q blocks, so
        // the read counter is bumped once up front rather than paying an
        // atomic RMW inside the hot accumulate loop.
        stats::count_spectrum_block_reads((self.p * self.q) as u64);
        let tiles = self.p.div_ceil(TILE);
        if self.p * self.q * batch >= SPLIT_MIN_WORK && tiles >= 2 {
            if let Some(helper) = tile_helper() {
                return self.run_tiles_split(spectra, helper, tiles, ys, batch, scratch);
            }
        }
        self.run_tiles(spectra, 0..tiles, ys, batch, scratch);
    }

    /// Stages 2+3 for tiles `tiles` of block rows, reading the weight
    /// planes from `spectra`. Inlined: called once out of line, it put
    /// ≈ 5 ns on GRU-8's ≈ 65 ns 8×8 call.
    #[inline(always)]
    pub(crate) fn run_tiles(
        &self,
        spectra: &[f32],
        tiles: Range<usize>,
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        for t in tiles {
            let (tile, planes) = self.weight_tile(spectra, t);
            with_lane_width!(tile.width, W => {
                self.matvec_tile::<W>(tile, planes, ys, batch, scratch);
            });
        }
    }

    /// Stages 2+3 for all `tiles` tiles, the upper half on `helper` when
    /// this thread can claim it (see the crate docs, "Two cores"). The
    /// caller runs the lower half, then copies the helper's rows in — or
    /// runs the upper half too, when the helper has not started it or not
    /// finished it in time. Each tile runs the one tile stage either way,
    /// so the bits never depend on which thread ran it.
    pub(crate) fn run_tiles_split(
        &self,
        spectra: &[f32],
        helper: &Helper<TileJob>,
        tiles: usize,
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        #[cfg(test)]
        tests::SPLIT_CALLS.with(|n| n.set(n.get() + 1));
        let Some(mut claim) = helper.try_claim() else {
            return self.run_tiles(spectra, 0..tiles, ys, batch, scratch);
        };
        let split = tiles.div_ceil(2);
        claim.post(|job| self.delegate(job, split..tiles, batch, scratch));
        self.run_tiles(spectra, 0..split, ys, batch, scratch);
        match claim.collect() {
            Some(job) => {
                // Rows of the delegated tiles, per input.
                let first = split * TILE * self.block_size;
                for (y, done) in ys
                    .chunks_exact_mut(self.rows)
                    .zip(job.ys.chunks_exact(self.rows))
                {
                    y[first..].copy_from_slice(&done[first..]);
                }
            }
            None => self.run_tiles(spectra, split..tiles, ys, batch, scratch),
        };
    }

    /// Loads `job` with `tiles` of this call: the matrix (a clone that
    /// shares its buffers), stage 1's input spectra from `scratch`, and
    /// every buffer the helper writes grown to size here, on the caller,
    /// so the helper thread never allocates.
    fn delegate(
        &self,
        job: &mut TileJob,
        tiles: Range<usize>,
        batch: usize,
        scratch: &MatVecScratch,
    ) {
        let lb = self.block_size;
        let bins = self.rfft.spectrum_len();
        let spectra = padded_lanes(batch * self.q) * bins * 2;
        grown(&mut job.scratch.x_spectra, spectra).copy_from_slice(&scratch.x_spectra[..spectra]);
        grown(&mut job.scratch.acc, batch * bins * 2 * TILE);
        grown(&mut job.scratch.time, lb * TILE);
        grown(&mut job.ys, batch * self.rows);
        job.matrix = Some(self.clone());
        job.tiles = tiles;
        job.batch = batch;
    }

    /// Stage 1 (decoupled): FFT of every (zero-padded) input block, once,
    /// into `scratch.x_spectra`. All `batch · q` blocks share one lane
    /// axis (block `j` of input `b` is lane `b·q + j`), so small `q` still
    /// fills the lane-batched transforms; spectra land as
    /// `[chunk][bin][re|im][lane]`.
    fn input_spectra(&self, xs: &[f32], batch: usize, scratch: &mut MatVecScratch) {
        let lb = self.block_size;
        let bins = self.rfft.spectrum_len();
        let MatVecScratch {
            time, x_spectra, ..
        } = scratch;
        let x_blocks = batch * self.q;
        let mut x_spec = grown(x_spectra, padded_lanes(x_blocks) * bins * 2);
        for chunk in lane_tiles(x_blocks) {
            let (head, rest) = x_spec.split_at_mut(chunk.width * bins * 2);
            x_spec = rest;
            let blocks = (chunk.first..chunk.first + chunk.live).map(|f| {
                let x = &xs[f / self.q * self.cols..][..self.cols];
                let start = f % self.q * lb;
                &x[start..(start + lb).min(self.cols)]
            });
            with_lane_width!(chunk.width, W => {
                let time = grown(time, lb * W);
                gather_lanes::<W>(time, lb, blocks);
                self.rfft.forward_lanes::<W>(time, head, chunk.live);
            });
        }
    }

    /// Tile `t` of block rows with its weight planes (`[j][plane][lane]`)
    /// in `spectra`; every tile but the last is [`TILE`] lanes wide.
    fn weight_tile<'s>(&self, spectra: &'s [f32], t: usize) -> (LaneTile, &'s [f32]) {
        let tile = lane_tile(self.p, t * TILE);
        let len = self.q * self.block_size;
        (tile, &spectra[t * TILE * len..][..tile.width * len])
    }

    /// Stages 2+3 for one tile: picks the instantiation of
    /// [`Self::tile_stage`] from the CPU and the tile width (see the module
    /// docs, "Two instantiations"). `W` is a constant, so a 4-lane tile
    /// compiles to the baseline call alone, without the detection.
    #[allow(unsafe_code)]
    fn matvec_tile<const W: usize>(
        &self,
        tile: LaneTile,
        planes: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        #[cfg(target_arch = "x86_64")]
        if W > crate::lanes::MIN_TILE && is_x86_feature_detected!("avx2") {
            // SAFETY: the condition of this `if` has just observed AVX2 on
            // the running CPU, which is all `matvec_tile_avx2` requires.
            return unsafe { self.matvec_tile_avx2::<W>(tile, planes, ys, batch, scratch) };
        }
        self.matvec_tile_baseline::<W>(tile, planes, ys, batch, scratch);
    }

    /// [`Self::tile_stage`] compiled for the build's baseline target.
    fn matvec_tile_baseline<const W: usize>(
        &self,
        tile: LaneTile,
        planes: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        self.tile_stage::<W>(tile, planes, ys, batch, scratch);
    }

    /// [`Self::tile_stage`] compiled with 256-bit lanes.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn matvec_tile_avx2<const W: usize>(
        &self,
        tile: LaneTile,
        planes: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        #[cfg(test)]
        tests::AVX2_TILES.with(|n| n.set(n.get() + 1));
        self.tile_stage::<W>(tile, planes, ys, batch, scratch);
    }

    /// Stages 2+3 for one tile of `W` block rows: frequency-domain
    /// accumulate over every block column, then IFFT and scatter.
    ///
    /// Accumulators are `[b][bin][re|im][lane]` — the layout
    /// [`RealFft::inverse_lanes`] consumes, so stage 3 needs no gather.
    /// Per output block the sum over `j` runs in ascending order with the
    /// scalar definition's operations; only the lanes run side by side.
    ///
    /// This is the one source body of the tile stage; it is only ever
    /// inlined into [`Self::matvec_tile_baseline`] and
    /// [`Self::matvec_tile_avx2`].
    #[inline(always)]
    fn tile_stage<const W: usize>(
        &self,
        tile: LaneTile,
        planes: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        let MatVecScratch {
            time,
            x_spectra,
            acc,
        } = scratch;
        let lb = self.block_size;
        let half = lb / 2;
        let bins = self.rfft.spectrum_len();
        let acc = grown(acc, batch * bins * 2 * W);
        acc.fill(0.0);

        let x_blocks = batch * self.q;
        for (j, w) in planes.chunks_exact(lb * W).enumerate() {
            for (b, acc) in acc.chunks_exact_mut(bins * 2 * W).enumerate() {
                // `FFT(x_j)[k]` of input `b`, broadcast over the tile's lanes.
                let lane = (b * self.q + j) % TILE;
                let chunk = lane_tile(x_blocks, b * self.q + j - lane);
                let x_spec = &x_spectra[chunk.first * bins * 2..];
                let x = |k: usize, im: usize| x_spec[(2 * k + im) * chunk.width + lane];
                mac_real::<W>(&mut acc[..W], &w[..W], x(0, 0));
                if lb >= 2 {
                    mac_real::<W>(&mut acc[2 * half * W..], &w[W..], x(half, 0));
                }
                for k in 1..half {
                    mac_conj::<W>(
                        &mut acc[2 * k * W..],
                        &w[2 * k * W..],
                        Complex32::new(x(k, 0), x(k, 1)),
                    );
                }
            }
        }

        let time = grown(time, lb * W);
        for (acc, y) in acc
            .chunks_exact(bins * 2 * W)
            .zip(ys.chunks_exact_mut(self.rows))
        {
            self.rfft.inverse_lanes::<W>(acc, time, tile.live);
            scatter_lanes::<W>(time, lb, &mut y[tile.first * lb..], tile.live);
        }
    }

    /// Direct (no-FFT) matvec, O(L_b²) per block. Reference implementation
    /// used to validate [`Self::matvec`] and by the fixed-point simulator,
    /// which mirrors the hardware's integer datapath.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_direct(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input length must equal cols");
        let lb = self.block_size;
        let mut y = vec![0.0f32; self.rows];
        for i in 0..self.p {
            let rlimit = lb.min(self.rows - i * lb);
            for j in 0..self.q {
                let w = self.block(i, j);
                let jbase = j * lb;
                let climit = lb.min(self.cols - jbase);
                let xs = &x[jbase..jbase + climit];
                for (r, out) in y[i * lb..i * lb + rlimit].iter_mut().enumerate() {
                    // Row r of the block is w rotated right by r: entry
                    // (r, c) = w[(c − r) mod L_b], i.e. the wrapped tail
                    // w[L_b−r..] for c < r followed by w[..] for c ≥ r —
                    // two contiguous segments, no per-element modulo.
                    let mut acc = 0.0f32;
                    for (wv, xv) in w[lb - r..].iter().zip(xs) {
                        acc += wv * xv;
                    }
                    if r < climit {
                        for (wv, xv) in w.iter().zip(&xs[r..]) {
                            acc += wv * xv;
                        }
                    }
                    *out += acc;
                }
            }
        }
        y
    }

    /// Transposed matvec `y = Wᵀ·x`.
    ///
    /// Uses the identity that the transpose of a first-row circulant `w` is
    /// the circulant defined by `w'(k) = w((L_b − k) mod L_b)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "input length must equal rows");
        let lb = self.block_size;
        let mut y = vec![0.0f32; self.cols];
        for i in 0..self.p {
            let ibase = i * lb;
            let rlimit = lb.min(self.rows - ibase);
            let xs = &x[ibase..ibase + rlimit];
            for j in 0..self.q {
                let w = self.block(i, j);
                let jbase = j * lb;
                let climit = lb.min(self.cols - jbase);
                for (c, out) in y[jbase..jbase + climit].iter_mut().enumerate() {
                    // Column c reads w[(c − r) mod L_b] down the rows:
                    // w[c], w[c−1], …, w[0], then w[L_b−1] down to the wrap
                    // point — two reversed contiguous runs, no modulo.
                    let mut acc = 0.0f32;
                    for (wv, xv) in w[..=c].iter().rev().zip(xs) {
                        acc += wv * xv;
                    }
                    if c + 1 < rlimit {
                        let lo = lb + c + 1 - rlimit;
                        for (wv, xv) in w[lo..].iter().rev().zip(&xs[c + 1..]) {
                            acc += wv * xv;
                        }
                    }
                    *out += acc;
                }
            }
        }
        y
    }

    /// Gradient of a loss with respect to the defining vectors for
    /// `y = W·x`: given `∂L/∂y`, returns `∂L/∂w` in the same layout as
    /// [`Self::blocks`].
    ///
    /// Because entry `(r, c)` of block `(i, j)` equals `w_ij[(c−r) mod L_b]`,
    /// the gradient of `w_ij[k]` sums `dy[r] · x[(r+k) mod L_b]` along the
    /// diagonal — this is the exact gradient of the circulant
    /// parameterization used by C-LSTM-style training.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the matrix shape.
    pub fn grad_blocks(&self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input length must equal cols");
        assert_eq!(
            dy.len(),
            self.rows,
            "output-gradient length must equal rows"
        );
        let lb = self.block_size;
        let mut grad = vec![0.0f32; self.param_count()];
        for i in 0..self.p {
            let ibase = i * lb;
            let rlimit = lb.min(self.rows - ibase);
            let dys = &dy[ibase..ibase + rlimit];
            for j in 0..self.q {
                let jbase = j * lb;
                let climit = lb.min(self.cols - jbase);
                let xs = &x[jbase..jbase + climit];
                let base = (i * self.q + j) * lb;
                for (k, g) in grad[base..base + lb].iter_mut().enumerate() {
                    // Diagonal (r, (r + k) mod L_b): column index r + k
                    // until it wraps at r = L_b − k, then r + k − L_b —
                    // two contiguous dy/x segment products, no modulo.
                    let mut acc = 0.0f32;
                    if k < climit {
                        for (dv, xv) in dys.iter().zip(&xs[k..]) {
                            acc += dv * xv;
                        }
                    }
                    if k > 0 && lb - k < rlimit {
                        for (dv, xv) in dys[lb - k..].iter().zip(xs) {
                            acc += dv * xv;
                        }
                    }
                    *g = acc;
                }
            }
        }
        grad
    }

    /// Materializes the dense equivalent (logical dimensions, padding
    /// dropped).
    pub fn to_dense(&self) -> Matrix {
        let lb = self.block_size;
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            let (bi, bj) = (r / lb, c / lb);
            let (br, bc) = (r % lb, c % lb);
            self.block(bi, bj)[(bc + lb - br) % lb]
        })
    }

    /// Squared Euclidean distance between this matrix and a dense matrix of
    /// the same logical shape — the quantity ADMM's second subproblem
    /// minimizes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn distance_sq(&self, dense: &Matrix) -> f32 {
        assert_eq!(dense.rows(), self.rows, "row mismatch");
        assert_eq!(dense.cols(), self.cols, "col mismatch");
        let own = self.to_dense();
        own.as_slice()
            .iter()
            .zip(dense.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

/// Eqn. 6 for one block row: `dense` holds its rows (`L_b` of them,
/// fewer in the last block row), `cols` wide, and `sums` (`q·L_b`
/// zeros) receives its defining vectors.
///
/// Every width runs the one body [`sum_block_diagonals`]; the arms only
/// hand it `L_b` as a literal, so each width up to 32 gets its loops
/// unrolled and its sums in registers. Wider blocks run it at the runtime
/// width as a scalar loop, 2–4× slower at `L_b` 64–128 than the per-row
/// segment loop it replaced; no model here uses those widths.
fn project_block_row(dense: &[f32], cols: usize, lb: usize, sums: &mut [f32]) {
    let height = dense.len() / cols;
    let scratch = &mut [0.0f32; 64];
    match lb {
        1 => sum_diagonals(dense, cols, 1, sums, scratch),
        2 => sum_diagonals(dense, cols, 2, sums, scratch),
        4 => sum_diagonals(dense, cols, 4, sums, scratch),
        8 => sum_diagonals(dense, cols, 8, sums, scratch),
        16 => sum_diagonals(dense, cols, 16, sums, scratch),
        32 => sum_diagonals(dense, cols, 32, sums, scratch),
        _ => sum_diagonals(dense, cols, lb, sums, &mut vec![0.0; 2 * lb]),
    }
    // The mean over each diagonal's in-bounds entries: all L_b of them in
    // an interior block, fewer in an edge block.
    for (bj, sum) in sums.chunks_exact_mut(lb).enumerate() {
        let width = lb.min(cols - bj * lb);
        for (k, s) in sum.iter_mut().enumerate() {
            let count = if height == lb && width == lb {
                lb
            } else {
                (0..height).filter(|r| (r + k) % lb < width).count()
            };
            *s = if count > 0 { *s / count as f32 } else { 0.0 };
        }
    }
}

/// The diagonal sums of each block of one block row into `sums`, with
/// `scratch` of at least `2·L_b` entries.
#[inline(always)]
fn sum_diagonals(dense: &[f32], cols: usize, lb: usize, sums: &mut [f32], scratch: &mut [f32]) {
    let whole = cols / lb;
    let (interior, ragged) = sums.split_at_mut(whole * lb);
    for (bj, sum) in interior.chunks_exact_mut(lb).enumerate() {
        sum_block_diagonals(dense, cols, bj * lb, lb, lb, sum, scratch);
    }
    if !ragged.is_empty() {
        let width = cols - whole * lb;
        sum_block_diagonals(dense, cols, whole * lb, width, lb, ragged, scratch);
    }
}

/// The `L_b` diagonal sums of the block whose columns start at `first`,
/// `width` of them in bounds, into `sum`: entry (r, c) lies on diagonal
/// (c − r) mod L_b, and each sum runs over r = 0.. in order.
///
/// The sums build up in `acc`, turned so that the rows of each group of
/// `g` read at fixed shifts 0..g: before row r = a·g + b, `acc[c]` holds
/// diagonal (c − a·g) mod L_b, which takes column (c + b) mod L_b; after
/// each group `acc` turns right by `g`. With `g·L_b ≤ 128` a literal
/// `L_b` unrolls a whole group. Columns past `width` add nothing.
#[inline(always)]
fn sum_block_diagonals(
    dense: &[f32],
    cols: usize,
    first: usize,
    width: usize,
    lb: usize,
    sum: &mut [f32],
    scratch: &mut [f32],
) {
    let (acc, rotated) = scratch[..2 * lb].split_at_mut(lb);
    let height = dense.len() / cols;
    let g = (128 / lb).clamp(1, 8).min(lb);
    let row = |r: usize| &dense[r * cols + first..][..width];
    let add_shifted = |acc: &mut [f32], x: &[f32], b: usize| {
        for (k, s) in acc.iter_mut().enumerate() {
            let c = (k + b) & (lb - 1);
            if c < width {
                *s += x[c];
            }
        }
    };
    acc.fill(0.0);
    for a in 0..height / g {
        for b in 0..g {
            add_shifted(acc, row(a * g + b), b);
        }
        rotated.copy_from_slice(acc);
        acc[g..].copy_from_slice(&rotated[..lb - g]);
        acc[..g].copy_from_slice(&rotated[lb - g..]);
    }
    let done = height / g * g;
    for b in 0..height % g {
        add_shifted(acc, row(done + b), b);
    }
    // acc[c] holds diagonal (c − done) mod L_b.
    let s = done & (lb - 1);
    sum[..lb - s].copy_from_slice(&acc[s..]);
    sum[lb - s..].copy_from_slice(&acc[..s]);
}

/// The first `n` entries of a grow-only scratch buffer.
fn grown(buf: &mut Vec<f32>, n: usize) -> &mut [f32] {
    if buf.len() < n {
        buf.resize(n, 0.0);
    }
    &mut buf[..n]
}

/// Stage 1's transpose: up to `W` blocks of `L_b` samples into the
/// `[sample][lane]` planes `time` (`L_b · W` floats); a ragged last block
/// and the padding lanes read `+0.0`.
///
/// Every block goes through [`gather_block`]. At the paper's `L_b` 8 and
/// 16 a whole block reaches it as arrays, so its loop runs with the block
/// size a literal as well as the lane width; a ragged block and every
/// other `L_b` run it at the runtime length.
#[inline(always)]
fn gather_lanes<'a, const W: usize>(
    time: &mut [f32],
    lb: usize,
    blocks: impl Iterator<Item = &'a [f32]>,
) {
    time.fill(0.0);
    let (planes, _) = time.as_chunks_mut::<W>();
    match lb {
        8 => gather_blocks::<W, 8>(planes, blocks),
        16 => gather_blocks::<W, 16>(planes, blocks),
        _ => {
            for (l, block) in blocks.enumerate() {
                gather_block(planes, l, block);
            }
        }
    }
}

/// [`gather_lanes`] at a literal `L_b` (see [`scatter_blocks`] for why the
/// lane index is not zipped from `0..W`).
#[inline(always)]
fn gather_blocks<'a, const W: usize, const LB: usize>(
    planes: &mut [[f32; W]],
    blocks: impl Iterator<Item = &'a [f32]>,
) {
    let planes: &mut [[f32; W]; LB] = planes.try_into().expect("L_b planes");
    for (l, block) in blocks.enumerate() {
        match <&[f32; LB]>::try_from(block) {
            Ok(whole) => gather_block(planes, l, whole),
            Err(_) => gather_block(planes, l, block),
        }
    }
}

/// Sample `n` of `block` into lane `l` of plane `n`.
#[inline(always)]
fn gather_block<const W: usize>(planes: &mut [[f32; W]], l: usize, block: &[f32]) {
    for (plane, &v) in planes.iter_mut().zip(block) {
        plane[l] = v;
    }
}

/// Stage 3's transpose: lane `l` of the `[sample][lane]` planes `time`
/// (`L_b · W` floats) into block `l` of `y`, for the first `live` blocks.
/// `y` ends at the logical edge, so a ragged last block takes its rows
/// only and nothing past the edge is written.
///
/// Every block goes through [`scatter_block`], at a literal `L_b` for a
/// whole block at the paper's 8 and 16, as [`gather_lanes`] does.
#[inline(always)]
fn scatter_lanes<const W: usize>(time: &[f32], lb: usize, y: &mut [f32], live: usize) {
    let (planes, _) = time.as_chunks::<W>();
    let blocks = y.chunks_mut(lb).take(live);
    match lb {
        8 => scatter_blocks::<W, 8>(planes, blocks),
        16 => scatter_blocks::<W, 16>(planes, blocks),
        _ => {
            for (l, block) in blocks.enumerate() {
                scatter_block(planes, l, block);
            }
        }
    }
}

/// [`scatter_lanes`] at a literal `L_b`. The lane index comes from
/// `enumerate`: zipped from `0..W`, the four-lane tiles unrolled and put
/// ≈ 20 ns on GRU-8's ≈ 70 ns 8×8 call.
#[inline(always)]
fn scatter_blocks<'a, const W: usize, const LB: usize>(
    planes: &[[f32; W]],
    blocks: impl Iterator<Item = &'a mut [f32]>,
) {
    let planes: &[[f32; W]; LB] = planes.try_into().expect("L_b planes");
    for (l, block) in blocks.enumerate() {
        match <&mut [f32; LB]>::try_from(&mut *block) {
            Ok(whole) => scatter_block(planes, l, whole),
            Err(_) => scatter_block(planes, l, block),
        }
    }
}

/// Lane `l` of plane `n` into sample `n` of `block`.
#[inline(always)]
fn scatter_block<const W: usize>(planes: &[[f32; W]], l: usize, block: &mut [f32]) {
    for (out, plane) in block.iter_mut().zip(planes) {
        *out = plane[l];
    }
}

/// `acc += w · x` over `W` lanes — the MAC of a purely real bin (0 and
/// `L_b/2`): with both imaginary parts `+0.0` and accumulators that start
/// at `+0.0` (so never become `−0.0`), the two flops leave the same bits
/// as the full complex MAC.
///
/// The accumulators are copied out and stored back whole: updating them
/// through the `&mut` left LLVM with 16–32 scalar `mulss`/`addss` chains.
#[inline(always)]
fn mac_real<const W: usize>(acc: &mut [f32], w: &[f32], x: f32) {
    let (acc, w) = (lanes_mut::<W>(acc), lanes::<W>(w));
    let mut sum = *acc;
    for l in 0..W {
        sum[l] += w[l] * x;
    }
    *acc = sum;
}

/// `acc += conj(w) · x` over `W` lanes, planes `[re|im][lane]`: each lane
/// is the scalar definition's complex MAC.
#[inline(always)]
fn mac_conj<const W: usize>(acc: &mut [f32], w: &[f32], x: Complex32) {
    let (acc_re, acc_im) = acc.split_at_mut(W);
    let (acc_re, acc_im) = (lanes_mut::<W>(acc_re), lanes_mut::<W>(acc_im));
    let (w_re, w_im) = (lanes::<W>(w), lanes::<W>(&w[W..]));
    let (mut re, mut im) = (*acc_re, *acc_im);
    for l in 0..W {
        let mut sum = Complex32::new(re[l], im[l]);
        sum += Complex32::new(w_re[l], w_im[l]).conj() * x;
        (re[l], im[l]) = (sum.re, sum.im);
    }
    (*acc_re, *acc_im) = (re, im);
}

impl PartialEq for BlockCirculantMatrix {
    /// Two block-circulant matrices are equal when they represent the same
    /// logical matrix: shape, block size and defining vectors all match
    /// (the cached spectra are derived state and excluded).
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.block_size == other.block_size
            && self.blocks() == other.blocks()
    }
}

impl MatVec for BlockCirculantMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    /// `p·q·L_b`.
    fn param_count(&self) -> usize {
        self.blocks().len()
    }
    fn matvec(&self, x: &[f32]) -> Vec<f32> {
        BlockCirculantMatrix::matvec(self, x)
    }
    fn matvec_into(&self, x: &[f32], y: &mut [f32], scratch: &mut MatVecScratch) {
        BlockCirculantMatrix::matvec_into(self, x, y, scratch);
    }
    fn matvec_batch_into(
        &self,
        xs: &[f32],
        ys: &mut [f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) {
        BlockCirculantMatrix::matvec_batch_into(self, xs, ys, batch, scratch);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::sync::{mpsc, OnceLock};
    use std::thread;

    thread_local! {
        /// Tiles this thread has run through `matvec_tile_avx2`.
        pub(super) static AVX2_TILES: Cell<u64> = const { Cell::new(0) };
        /// Calls this thread has sent down the split path.
        pub(super) static SPLIT_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// The diagonal walk `project_dense` replaced: per block and
    /// diagonal, a bounds-checked mean over `r = 0..L_b` in order.
    fn project_dense_per_diagonal(dense: &Matrix, block_size: usize) -> BlockCirculantMatrix {
        let rows = dense.rows();
        let cols = dense.cols();
        let p = rows.div_ceil(block_size);
        let q = cols.div_ceil(block_size);
        let lb = block_size;
        let mut blocks = vec![0.0f32; p * q * lb];
        for bi in 0..p {
            for bj in 0..q {
                let base = (bi * q + bj) * lb;
                for k in 0..lb {
                    // Average along the diagonal (r, (r + k) mod L_b),
                    // counting only entries inside the logical matrix.
                    let mut sum = 0.0f32;
                    let mut count = 0usize;
                    for r in 0..lb {
                        let rr = bi * lb + r;
                        let cc = bj * lb + (r + k) % lb;
                        if rr < rows && cc < cols {
                            sum += dense.get(rr, cc);
                            count += 1;
                        }
                    }
                    blocks[base + k] = if count > 0 { sum / count as f32 } else { 0.0 };
                }
            }
        }
        BlockCirculantMatrix::from_blocks(rows, cols, block_size, blocks)
    }

    /// The segment loop `project_block_row` replaced: per row and block,
    /// columns r.. into diagonals 0..L_b − r and columns ..r into the
    /// rest, then the same means.
    fn project_block_row_by_segments(dense: &[f32], cols: usize, lb: usize, sums: &mut [f32]) {
        let height = dense.len() / cols;
        let ragged = cols % lb;
        for (r, row) in dense.chunks_exact(cols).enumerate() {
            let mut rest = sums.chunks_exact_mut(lb);
            for (x, sum) in row.chunks_exact(lb).zip(&mut rest) {
                // Columns r.. are diagonals 0..L_b − r, columns ..r the rest.
                let (wrapped, straight) = x.split_at(r);
                let (head, tail) = sum.split_at_mut(lb - r);
                for (s, v) in head.iter_mut().zip(straight) {
                    *s += v;
                }
                for (s, v) in tail.iter_mut().zip(wrapped) {
                    *s += v;
                }
            }
            if ragged > 0 {
                let sum = rest.next().expect("the ragged block column");
                for (c, v) in row[cols - ragged..].iter().enumerate() {
                    sum[(c + lb - r) % lb] += v;
                }
            }
        }
        // The mean over each diagonal's in-bounds entries: all L_b of them in
        // an interior block, fewer in an edge block.
        for (bj, sum) in sums.chunks_exact_mut(lb).enumerate() {
            let width = lb.min(cols - bj * lb);
            for (k, s) in sum.iter_mut().enumerate() {
                let count = if height == lb && width == lb {
                    lb
                } else {
                    (0..height).filter(|r| (r + k) % lb < width).count()
                };
                *s = if count > 0 { *s / count as f32 } else { 0.0 };
            }
        }
    }

    /// `project_dense`'s defining vectors through the segment loop.
    fn project_dense_by_segments(dense: &Matrix, lb: usize) -> Vec<f32> {
        let cols = dense.cols();
        let q = cols.div_ceil(lb);
        let mut blocks = vec![0.0f32; dense.rows().div_ceil(lb) * q * lb];
        let block_rows = dense.as_slice().chunks(lb * cols);
        for (dense, sums) in block_rows.zip(blocks.chunks_exact_mut(q * lb)) {
            project_block_row_by_segments(dense, cols, lb, sums);
        }
        blocks
    }

    /// Stage 1's gather before the literal block widths, verbatim: the
    /// oracle of [`gather_lanes`].
    fn gather_lanes_by_elements<'a, const W: usize>(
        time: &mut [f32],
        blocks: impl Iterator<Item = &'a [f32]>,
    ) {
        time.fill(0.0);
        for (l, block) in blocks.enumerate() {
            for (n, &v) in block.iter().enumerate() {
                time[n * W + l] = v;
            }
        }
    }

    /// Stage 3's scatter before the literal block widths, verbatim (with
    /// the tile's rows of `y` as `y`): the oracle of [`scatter_lanes`].
    fn scatter_lanes_by_elements<const W: usize>(
        time: &[f32],
        lb: usize,
        y: &mut [f32],
        live: usize,
    ) {
        let blocks = y.chunks_mut(lb).take(live);
        for (l, block) in blocks.enumerate() {
            for (n, out) in block.iter_mut().enumerate() {
                *out = time[n * W + l];
            }
        }
    }

    fn random_bc(
        rows: usize,
        cols: usize,
        lb: usize,
        seed: u64,
    ) -> (BlockCirculantMatrix, rand_chacha::ChaCha8Rng) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let p = rows.div_ceil(lb);
        let q = cols.div_ceil(lb);
        let blocks: Vec<f32> = (0..p * q * lb).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (
            BlockCirculantMatrix::from_blocks(rows, cols, lb, blocks),
            rng,
        )
    }

    /// The scalar definition of the FFT matvec — the pre-lane kernel,
    /// kept as the oracle: AoS `Complex32` spectra from the scalar
    /// `forward_into`, one bin-major complex MAC per `(i, j, b)`, one
    /// scalar `inverse_into` per output block.
    fn reference_matvec_batch(m: &BlockCirculantMatrix, xs: &[f32], batch: usize) -> Vec<f32> {
        use ernn_fft::{Complex32, RealFftScratch};
        let (lb, bins) = (m.block_size, m.rfft.spectrum_len());
        let mut fft = RealFftScratch::new();
        let mut spectrum_of = |block: &[f32]| {
            let mut padded = vec![0.0f32; lb];
            padded[..block.len()].copy_from_slice(block);
            let mut spec = vec![Complex32::ZERO; bins];
            m.rfft.forward_into(&padded, &mut spec, &mut fft);
            spec
        };
        let w: Vec<Vec<Complex32>> = m.blocks().chunks(lb).map(&mut spectrum_of).collect();
        let mut ys = vec![0.0f32; batch * m.rows];
        for (x, y) in xs.chunks(m.cols).zip(ys.chunks_mut(m.rows)) {
            let x_spectra: Vec<Vec<Complex32>> = x.chunks(lb).map(&mut spectrum_of).collect();
            for (i, y_block) in y.chunks_mut(lb).enumerate() {
                let mut acc = vec![Complex32::ZERO; bins];
                for (j, x_spec) in x_spectra.iter().enumerate() {
                    for ((dst, &wv), &xv) in acc.iter_mut().zip(&w[i * m.q + j]).zip(x_spec) {
                        *dst += wv.conj() * xv;
                    }
                }
                let mut block_out = vec![0.0f32; lb];
                m.rfft
                    .inverse_into(&acc, &mut block_out, &mut RealFftScratch::new());
                y_block.copy_from_slice(&block_out[..y_block.len()]);
            }
        }
        ys
    }

    /// Inputs with exact `0.0`, `-0.0` and whole zero blocks mixed in.
    fn tricky_inputs(rng: &mut impl Rng, len: usize, lb: usize) -> Vec<f32> {
        let mut xs: Vec<f32> = (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        for block in xs.chunks_mut(lb) {
            if rng.gen_range(0..6) == 0 {
                block.fill(0.0);
            }
        }
        xs
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `matvec_batch_into` with every tile sent through the baseline
    /// caller, whatever the CPU: the instantiation a machine without AVX2
    /// runs, reachable on one that has it.
    fn baseline_matvec_batch(
        m: &BlockCirculantMatrix,
        xs: &[f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) -> Vec<f32> {
        let mut ys = vec![f32::NAN; batch * m.rows];
        m.input_spectra(xs, batch, scratch);
        for t in 0..m.p.div_ceil(TILE) {
            let (tile, planes) = m.weight_tile(m.spectra(), t);
            with_lane_width!(tile.width, W => {
                m.matvec_tile_baseline::<W>(tile, planes, &mut ys, batch, scratch);
            });
        }
        ys
    }

    /// Stages 2+3 all on this thread: the serial path, whatever the size.
    fn serial_matvec_batch(
        m: &BlockCirculantMatrix,
        xs: &[f32],
        batch: usize,
        scratch: &mut MatVecScratch,
    ) -> Vec<f32> {
        let mut ys = vec![f32::NAN; batch * m.rows];
        m.input_spectra(xs, batch, scratch);
        m.run_tiles(m.spectra(), 0..m.p.div_ceil(TILE), &mut ys, batch, scratch);
        ys
    }

    /// Stages 2+3 down the split path on `helper`, whatever the size.
    pub(crate) fn split_matvec_batch(
        m: &BlockCirculantMatrix,
        xs: &[f32],
        batch: usize,
        helper: &Helper<TileJob>,
        scratch: &mut MatVecScratch,
    ) -> Vec<f32> {
        let mut ys = vec![f32::NAN; batch * m.rows];
        m.input_spectra(xs, batch, scratch);
        m.run_tiles_split(
            m.spectra(),
            helper,
            m.p.div_ceil(TILE),
            &mut ys,
            batch,
            scratch,
        );
        ys
    }

    /// A started helper of the split proptest's own, so its counts are
    /// the proptest's.
    fn free_helper() -> &'static Helper<TileJob> {
        static FREE: OnceLock<&'static Helper<TileJob>> = OnceLock::new();
        FREE.get_or_init(|| Helper::spawn("test"))
    }

    /// `f` while another thread holds `helper`'s claim.
    fn while_claimed<T>(helper: &Helper<TileJob>, f: impl FnOnce() -> T) -> T {
        thread::scope(|s| {
            let (claimed, release) = (mpsc::channel(), mpsc::channel::<()>());
            s.spawn(move || {
                let claim = helper.try_claim();
                claimed.0.send(claim.is_some()).expect("test thread waits");
                let _ = release.1.recv();
            });
            assert!(claimed.1.recv().expect("claimer reports"), "claim taken");
            let out = f();
            release.0.send(()).expect("claimer waits");
            out
        })
    }

    /// The baseline caller, then `matvec_batch_into`, `matvec_into` and
    /// `matvec` (the dispatched entry points) against the oracle,
    /// `f32::to_bits` for `to_bits`, sharing one scratch across batches.
    fn assert_bitwise_equal_to_reference(rows: usize, cols: usize, lb: usize, batches: &[usize]) {
        let seed = (rows * 31 + cols * 7 + lb) as u64;
        let (bc, mut rng) = random_bc(rows, cols, lb, seed);
        let mut scratch = MatVecScratch::new();
        for &batch in batches {
            let xs = tricky_inputs(&mut rng, batch * cols, lb);
            let want = bits(&reference_matvec_batch(&bc, &xs, batch));
            let baseline = baseline_matvec_batch(&bc, &xs, batch, &mut scratch);
            assert_eq!(
                bits(&baseline),
                want,
                "{rows}×{cols} L_b={lb} batch={batch} baseline"
            );
            let mut ys = vec![f32::NAN; batch * rows];
            bc.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
            assert_eq!(bits(&ys), want, "{rows}×{cols} L_b={lb} batch={batch}");
            let x0 = &xs[..cols];
            let mut y0 = vec![f32::NAN; rows];
            bc.matvec_into(x0, &mut y0, &mut scratch);
            assert_eq!(bits(&y0), want[..rows], "{rows}×{cols} L_b={lb} into");
            assert_eq!(bits(&bc.matvec(x0)), want[..rows], "{rows}×{cols} L_b={lb}");
        }
    }

    #[test]
    fn tiles_wider_than_four_lanes_take_the_avx2_caller_when_the_cpu_has_it() {
        let avx2_tiles_of = |p: usize| {
            let (bc, _) = random_bc(p * 8, 16, 8, p as u64);
            let before = AVX2_TILES.with(Cell::get);
            bc.matvec(&[0.5; 16]);
            AVX2_TILES.with(Cell::get) - before
        };
        // p ≤ 4 is one 4-lane tile — one `xmm` register on either path, so
        // GRU-8-sized matrices run the baseline caller on every CPU.
        for p in 1..=4 {
            assert_eq!(avx2_tiles_of(p), 0, "p = {p}");
        }
        // 5 → one 8-lane tile; 37 → a 32-lane and an 8-lane tile; 68 → two
        // 32-lane tiles and a 4-lane tail that stays on the baseline.
        let wide = u64::from(crate::lane_isa() == "avx2");
        for (p, wide_tiles) in [(5, 1), (16, 1), (37, 2), (68, 2)] {
            assert_eq!(avx2_tiles_of(p), wide * wide_tiles, "p = {p}");
        }
        if wide == 0 {
            // Written past libtest's capture so a CI log shows it.
            use std::io::Write;
            let note = "ernn-linalg: no AVX2 on this CPU, the oracle tests ran the baseline \
                        instantiation only\n";
            std::io::stderr()
                .write_all(note.as_bytes())
                .expect("stderr");
        }
    }

    #[test]
    fn lane_kernel_is_bitwise_the_scalar_definition_around_the_tile_width() {
        // p and q on both sides of the 32-lane tile (and of the 4-lane
        // minimum), every FFT size class (1, 2, ≥ 4), ragged edges.
        const GRID: [usize; 6] = [1, 2, 31, 32, 33, 129];
        for lb in [1usize, 2, 4, 8, 16, 32] {
            for p in GRID {
                for q in GRID {
                    let batches: &[usize] = if p.max(q) > 33 { &[1, 3] } else { &[1, 3, 16] };
                    assert_bitwise_equal_to_reference(p * lb, q * lb, lb, batches);
                    if lb > 1 {
                        let (rows, cols) = (p * lb - lb / 2, q * lb - 1);
                        assert_bitwise_equal_to_reference(rows, cols, lb, &[3]);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_kernel_is_bitwise_the_scalar_definition_on_the_paper_shapes() {
        for lb in [8usize, 16] {
            for (rows, cols) in [(1024, 1024), (2048, 153), (4096, 512)] {
                assert_bitwise_equal_to_reference(rows, cols, lb, &[1, 16]);
            }
        }
    }

    #[test]
    fn to_dense_rows_rotate_right() {
        let bc = BlockCirculantMatrix::from_blocks(4, 4, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let d = bc.to_dense();
        assert_eq!(d.row(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.row(1), &[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(d.row(2), &[3.0, 4.0, 1.0, 2.0]);
        assert_eq!(d.row(3), &[2.0, 3.0, 4.0, 1.0]);
    }

    #[test]
    fn fft_matvec_matches_dense() {
        let (bc, mut rng) = random_bc(8, 12, 4, 11);
        let x: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = bc.to_dense().matvec(&x);
        let got = bc.matvec(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4, "{got:?} vs {expected:?}");
        }
    }

    #[test]
    fn direct_matvec_matches_dense() {
        let (bc, mut rng) = random_bc(8, 12, 4, 13);
        let x: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = bc.to_dense().matvec(&x);
        let got = bc.matvec_direct(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_t_matches_dense_transpose() {
        let (bc, mut rng) = random_bc(8, 12, 4, 17);
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expected = bc.to_dense().matvec_t(&x);
        let got = bc.matvec_t(&x);
        for (a, b) in got.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn projection_is_identity_on_circulant_input() {
        let (bc, _) = random_bc(8, 8, 4, 19);
        let reprojected = BlockCirculantMatrix::project_dense(&bc.to_dense(), 4);
        for (a, b) in bc.blocks().iter().zip(reprojected.blocks()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn euclidean_mapping_averages_diagonals() {
        // 2×2 block: entries (0,0),(1,1) share w[0]; (0,1),(1,0) share w[1].
        let dense = Matrix::from_rows(&[&[0.5, 0.4], &[-0.3, 0.5]]);
        let bc = BlockCirculantMatrix::project_dense(&dense, 2);
        let w = bc.block(0, 0);
        assert!((w[0] - 0.5).abs() < 1e-6); // (0.5 + 0.5)/2
        assert!((w[1] - 0.05).abs() < 1e-6); // (0.4 − 0.3)/2
    }

    #[test]
    fn euclidean_mapping_matches_paper_figure_5_layout() {
        // A 4×4 matrix with block size 2 has 4 independent 2×2 circulant
        // blocks; check each block's diagonal averaging independently.
        let dense = Matrix::from_rows(&[
            &[0.5, 0.4, 1.2, -0.3],
            &[-1.3, 0.5, 0.1, 0.7],
            &[-0.1, 1.4, 0.7, 0.5],
            &[0.6, -1.3, -0.9, 1.4],
        ]);
        let bc = BlockCirculantMatrix::project_dense(&dense, 2);
        // Block (0,0): diag {0.5, 0.5} -> 0.5; off-diag {0.4, -1.3} -> -0.45.
        assert!((bc.block(0, 0)[0] - 0.5).abs() < 1e-6);
        assert!((bc.block(0, 0)[1] - (-0.45)).abs() < 1e-6);
        // Block (0,1): diag {1.2, 0.7} -> 0.95; off-diag {-0.3, 0.1} -> -0.1.
        assert!((bc.block(0, 1)[0] - 0.95).abs() < 1e-6);
        assert!((bc.block(0, 1)[1] - (-0.1)).abs() < 1e-6);
        // Block (1,1): diag {0.7, 1.4} -> 1.05; off-diag {0.5, -0.9} -> -0.2.
        assert!((bc.block(1, 1)[0] - 1.05).abs() < 1e-6);
        assert!((bc.block(1, 1)[1] - (-0.2)).abs() < 1e-6);
    }

    #[test]
    fn projection_minimizes_distance() {
        // The projection must beat any perturbed circulant candidate.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let dense = Matrix::xavier(8, 8, &mut rng);
        let proj = BlockCirculantMatrix::project_dense(&dense, 4);
        let best = proj.distance_sq(&dense);
        for _ in 0..20 {
            let mut blocks = proj.blocks().to_vec();
            for b in &mut blocks {
                *b += rng.gen_range(-0.05..0.05);
            }
            let candidate = BlockCirculantMatrix::from_blocks(8, 8, 4, blocks);
            assert!(candidate.distance_sq(&dense) >= best - 1e-6);
        }
    }

    #[test]
    fn grad_blocks_matches_finite_difference() {
        let (bc, mut rng) = random_bc(8, 8, 4, 29);
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let dy: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let grad = bc.grad_blocks(&x, &dy);
        // L = dy · (W x); compare to central differences on each parameter.
        let eps = 1e-3f32;
        let loss_at = |k: usize, v: f32| {
            let mut blocks = bc.blocks().to_vec();
            blocks[k] = v;
            let moved = BlockCirculantMatrix::from_blocks(8, 8, 4, blocks);
            crate::ops::dot(&dy, &moved.matvec_direct(&x))
        };
        for k in (0..bc.param_count()).step_by(3) {
            let orig = bc.blocks()[k];
            let fd = (loss_at(k, orig + eps) - loss_at(k, orig - eps)) / (2.0 * eps);
            assert!(
                (fd - grad[k]).abs() < 1e-2 * (1.0 + fd.abs()),
                "param {k}: fd={fd} grad={}",
                grad[k]
            );
        }
    }

    #[test]
    fn compression_ratio_matches_block_size_for_square() {
        let (bc, _) = random_bc(64, 64, 8, 31);
        assert!((bc.compression_ratio() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_block() {
        let _ = BlockCirculantMatrix::from_blocks(6, 6, 3, vec![0.0; 12]);
    }

    /// Forward transforms `f` counts on this thread's FFT ledger.
    fn forward_ffts(f: impl FnOnce()) -> u64 {
        let before = ernn_fft::stats::thread_snapshot();
        f();
        ernn_fft::stats::thread_snapshot()
            .since(&before)
            .forward_transforms
    }

    #[test]
    fn spectra_are_computed_once_on_first_read_and_shared_by_clones() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(37);
        let dense = Matrix::xavier(20, 12, &mut rng);
        let mut built = Vec::new();
        // No constructor runs an FFT.
        let none = forward_ffts(|| {
            let (bc, _) = random_bc(20, 12, 4, 37);
            let stacked = bc.stack_block_rows(&bc).expect("same columns");
            let projected = BlockCirculantMatrix::project_dense(&dense, 4);
            let drawn = BlockCirculantMatrix::project_xavier(20, 12, 4, &mut rng);
            built.extend([bc, stacked, projected, drawn]);
        });
        assert_eq!(none, 0);
        let x: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for bc in built {
            let (p, q) = bc.grid();
            let want = bc.matvec_direct(&x);
            let clone = bc.clone();
            let per_call = q as u64;
            // The first read, through a clone, computes the p·q spectra…
            let first = forward_ffts(|| {
                let y = clone.matvec(&x);
                assert!(y.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-4));
            });
            assert_eq!(first, (p * q) as u64 + per_call);
            // …once, for the original too; forcing them again is free.
            assert_eq!(forward_ffts(|| drop(bc.matvec(&x))), per_call);
            assert_eq!(forward_ffts(|| bc.cache_spectra()), 0);
        }
    }

    #[test]
    fn racing_first_reads_compute_the_spectra_once() {
        let (bc, mut rng) = random_bc(64, 48, 8, 39);
        let (p, q) = bc.grid();
        let x: Vec<f32> = (0..48).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let want = bits(&reference_matvec_batch(&bc, &x, 1));
        // All four threads leave the barrier before any has read.
        let start = std::sync::Barrier::new(4);
        let counts: Vec<u64> = thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let (bc, x, want, start) = (bc.clone(), &x, &want, &start);
                    s.spawn(move || {
                        start.wait();
                        forward_ffts(|| assert_eq!(&bits(&bc.matvec(x)), want))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("a reader panicked"))
                .collect()
        });
        // Each call FFTs its q input blocks; one of them also the weights.
        assert_eq!(counts.iter().sum::<u64>(), (4 * q + p * q) as u64);
    }

    /// The GRU-8 call (8×8, `L_b = 8`, B = 1) counts once per counter:
    /// one input FFT, one block read, one output IFFT. Only the first call
    /// also FFTs the one weight block.
    #[test]
    fn an_8x8_call_counts_once_per_counter_after_its_first_read() {
        let (bc, mut rng) = random_bc(8, 8, 8, 47);
        let x: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (mut y, mut scratch) = ([0.0f32; 8], MatVecScratch::new());
        let mut counts = || {
            let before = ernn_fft::stats::thread_snapshot();
            bc.matvec_into(&x, &mut y, &mut scratch);
            let d = ernn_fft::stats::thread_snapshot().since(&before);
            (
                d.forward_transforms,
                d.spectrum_block_reads,
                d.inverse_transforms,
            )
        };
        assert_eq!(counts(), (2, 1, 1), "the first call FFTs the weight block");
        for call in 1..4 {
            assert_eq!(counts(), (1, 1, 1), "call {call}");
        }
    }

    #[test]
    fn batched_matvec_streams_weight_spectra_once_per_batch() {
        let (bc, mut rng) = random_bc(16, 24, 8, 41);
        let (p, q) = bc.grid();
        let batch = 6usize;
        let xs: Vec<f32> = (0..batch * bc.cols())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut ys = vec![0.0f32; batch * bc.rows()];
        let mut scratch = MatVecScratch::new();
        // The first read computes the weight spectra; read them before
        // counting.
        bc.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);

        // Sequential: one pass over the weight spectra per input.
        let before = ernn_fft::stats::thread_snapshot();
        for b in 0..batch {
            let (x, y) = (
                &xs[b * bc.cols()..(b + 1) * bc.cols()],
                &mut ys[b * bc.rows()..(b + 1) * bc.rows()],
            );
            bc.matvec_into(x, y, &mut scratch);
        }
        let seq = ernn_fft::stats::thread_snapshot().since(&before);
        assert_eq!(seq.spectrum_block_reads, (batch * p * q) as u64);

        // Fused: exactly one pass per batch, whatever the batch size.
        let before = ernn_fft::stats::thread_snapshot();
        bc.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
        let fused = ernn_fft::stats::thread_snapshot().since(&before);
        assert_eq!(fused.spectrum_block_reads, (p * q) as u64);
        // FFT work is identical either way; only the spectrum streaming
        // is amortized.
        assert_eq!(fused.forward_transforms, seq.forward_transforms);
        assert_eq!(fused.inverse_transforms, seq.inverse_transforms);
    }

    #[test]
    fn the_helper_thread_runs_delegated_tiles() {
        let (bc, mut rng) = random_bc(520, 300, 8, 43);
        let xs = tricky_inputs(&mut rng, 2 * 300, 8);
        let want = bits(&reference_matvec_batch(&bc, &xs, 2));
        let (helper, mut scratch) = (Helper::<TileJob>::spawn("test"), MatVecScratch::new());
        let before = helper.stats();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while helper.stats().since(&before).helper_ran == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the helper ran none of {:?}",
                helper.stats().since(&before)
            );
            let ys = split_matvec_batch(&bc, &xs, 2, helper, &mut scratch);
            assert_eq!(bits(&ys), want);
        }
    }

    #[test]
    fn four_threads_sharing_split_size_matrices_get_the_serial_bits() {
        // (rows, cols, batch): 2 tiles at exactly the threshold, 4 tiles
        // above it with a ragged edge.
        let cases = [(512, 1024, 1), (797, 300, 3)];
        let cases: Vec<_> = cases
            .iter()
            .enumerate()
            .map(|(i, &(rows, cols, batch))| {
                let (bc, mut rng) = random_bc(rows, cols, 8, 47 + i as u64);
                let (p, q) = bc.grid();
                assert!(p > TILE && p * q * batch >= SPLIT_MIN_WORK);
                let xs = tricky_inputs(&mut rng, batch * cols, 8);
                let want = serial_matvec_batch(&bc, &xs, batch, &mut MatVecScratch::new());
                (Arc::new(bc), xs, batch, bits(&want))
            })
            .collect();
        thread::scope(|s| {
            for t in 0..4 {
                let cases = &cases;
                s.spawn(move || {
                    let mut scratch = MatVecScratch::new();
                    for i in 0..24 {
                        let (bc, xs, batch, want) = &cases[(i + t) % cases.len()];
                        let mut ys = vec![f32::NAN; batch * bc.rows()];
                        bc.matvec_batch_into(xs, &mut ys, *batch, &mut scratch);
                        assert_eq!(&bits(&ys), want, "thread {t} call {i}");
                    }
                });
            }
        });
    }

    proptest! {
        #[test]
        fn one_pass_projection_is_bitwise_the_diagonal_walk(
            rows in 1usize..70,
            cols in 1usize..70,
            lb in 0usize..5,
            seed in any::<u64>(),
        ) {
            // Ragged shapes on every L_b: interior and edge blocks, and
            // matrices narrower or shorter than one block.
            let lb = [1, 2, 4, 8, 16][lb];
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let dense = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0f32..3.0));
            let got = BlockCirculantMatrix::project_dense(&dense, lb);
            let want = project_dense_per_diagonal(&dense, lb);
            let bits = |m: &BlockCirculantMatrix| m.blocks().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn block_at_a_time_projection_is_bitwise_the_segment_loop(
            lb in 0usize..8,
            p in 1usize..4,
            q in 1usize..4,
            short in any::<u16>(),
            ragged in any::<u16>(),
            run in 0usize..4,
            seed in any::<u64>(),
        ) {
            // Every literal width and two runtime ones (64, 128), with a short
            // last block row and a ragged last block column of any size,
            // through the dense projection and through drawn runs of one,
            // two, all and more block rows.
            let lb = [1, 2, 4, 8, 16, 32, 64, 128][lb];
            let rows = p * lb - usize::from(short) % lb;
            let cols = q * lb - usize::from(ragged) % lb;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let dense = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0f32..3.0));
            let mut twin = rng.clone();
            let got = BlockCirculantMatrix::project_dense(&dense, lb);
            prop_assert_eq!(bits(got.blocks()), bits(&project_dense_by_segments(&dense, lb)));
            let run = [1, 2, p, p + 1][run];
            let drawn = BlockCirculantMatrix::project_xavier_in_runs(rows, cols, lb, run, &mut rng);
            let want = project_dense_by_segments(&Matrix::xavier(rows, cols, &mut twin), lb);
            prop_assert_eq!(bits(drawn.blocks()), bits(&want));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn literal_width_transposes_are_bitwise_the_element_loops(
            lb in 0usize..7,
            width in 0usize..4,
            live in any::<u16>(),
            short in any::<u16>(),
            first in 0usize..3,
            after in any::<u16>(),
            seed in any::<u64>(),
        ) {
            // Every tile width with 1..=W live lanes, every L_b the kernel
            // runs (the literal 8 and 16 and the runtime width), a ragged
            // last block of any length, and a tile that starts past row 0
            // with rows after it when its last block is whole.
            let lb = [1, 2, 4, 8, 16, 32, 64][lb];
            let width = [4, 8, 16, 32][width];
            let live = 1 + usize::from(live) % width;
            let short = usize::from(short) % lb;
            let after = if short == 0 { usize::from(after) % (2 * lb) } else { 0 };
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut draw = |n: usize| (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<_>>();
            let sentinel = f32::from_bits(0x7fc0_dead);
            with_lane_width!(width, W => {
                // Stage 1: `live` blocks, the last `short` samples short,
                // into planes that start out as sentinels.
                let x = draw(live * lb - short);
                let blocks = || x.chunks(lb);
                let mut want = vec![sentinel; lb * W];
                gather_lanes_by_elements::<W>(&mut want, blocks());
                let mut got = vec![sentinel; lb * W];
                gather_lanes::<W>(&mut got, lb, blocks());
                prop_assert_eq!(bits(&got), bits(&want));
                for (i, v) in got.iter().enumerate() {
                    let (n, l) = (i / W, i % W);
                    let sample = x.get(l * lb + n).filter(|_| l < live && n < lb);
                    prop_assert_eq!(v.to_bits(), sample.map_or(0, |s| s.to_bits()), "n {} l {}", n, l);
                }

                // Stage 3: the tile's rows start `first` blocks into a
                // sentinel-filled `y`, which ends `short` rows short of
                // `live` blocks (the logical edge) or `after` rows past them.
                let time = draw(lb * W);
                let (start, end) = (first * lb, (first + live) * lb - short);
                let mut want = vec![sentinel; end + after];
                scatter_lanes_by_elements::<W>(&time, lb, &mut want[start..], live);
                let mut got = vec![sentinel; end + after];
                scatter_lanes::<W>(&time, lb, &mut got[start..], live);
                prop_assert_eq!(bits(&got), bits(&want));
                for (r, v) in got.iter().enumerate() {
                    let row = (start..end).contains(&r).then(|| (r - start) % lb * W + (r - start) / lb);
                    prop_assert_eq!(v.to_bits(), row.map_or(sentinel.to_bits(), |i| time[i].to_bits()), "row {}", r);
                }
            });
        }
    }

    proptest! {
        #[test]
        fn drawn_runs_project_to_the_projected_xavier_draw(
            rows in 1usize..70,
            cols in 1usize..70,
            lb in 0usize..5,
            run in 0usize..4,
            skip in 0usize..3,
            seed in any::<u64>(),
        ) {
            // Runs of one block row, of two, of as many as the matrix has
            // (a boundary at its end only) and of more; after 0–2 words so
            // that a run may start mid keystream block.
            use rand::RngCore;
            let lb = [1, 2, 4, 8, 16][lb];
            let p = rows.div_ceil(lb);
            let run = [1, 2, p, p + 1][run];
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..skip {
                rng.next_u32();
            }
            let mut twin = rng.clone();
            let got = BlockCirculantMatrix::project_xavier_in_runs(rows, cols, lb, run, &mut rng);
            let want = BlockCirculantMatrix::project_dense(&Matrix::xavier(rows, cols, &mut twin), lb);
            prop_assert_eq!(bits(got.blocks()), bits(want.blocks()));
            for _ in 0..40 {
                prop_assert_eq!(rng.next_u32(), twin.next_u32());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn split_path_is_bitwise_the_serial_path_and_the_scalar_definition(
            tiles in 0usize..3,
            tail in 1usize..33,
            lb in 0usize..3,
            batch in 0usize..3,
            straddle in 0usize..3,
            rows_off in 0usize..4,
            cols_off in 0usize..4,
            seed in any::<u64>(),
        ) {
            // 2, 3 or 16 tiles, L_b 4, 8 or 16, batch 1, 3 or 16; p·q·batch
            // one block column below, at or above the threshold; logical
            // dims that need not divide L_b.
            let (tiles, lb, batch) = ([2, 3, 16][tiles], [4, 8, 16][lb], [1, 3, 16][batch]);
            let p = (tiles - 1) * TILE + tail;
            let q = (SPLIT_MIN_WORK.div_ceil(p * batch) + straddle).max(2) - 1;
            let (rows, cols) = (p * lb - rows_off, q * lb - cols_off);
            let (bc, mut rng) = random_bc(rows, cols, lb, seed);
            let xs = tricky_inputs(&mut rng, batch * cols, lb);
            let want = bits(&reference_matvec_batch(&bc, &xs, batch));
            let mut scratch = MatVecScratch::new();
            prop_assert_eq!(&bits(&serial_matvec_batch(&bc, &xs, batch, &mut scratch)), &want);

            // The dispatched entry point takes the split path exactly when
            // the work reaches the threshold (and the machine has a helper).
            let (calls, mut ys) = (SPLIT_CALLS.with(Cell::get), vec![f32::NAN; batch * rows]);
            bc.matvec_batch_into(&xs, &mut ys, batch, &mut scratch);
            prop_assert_eq!(&bits(&ys), &want);
            let splits = p * q * batch >= SPLIT_MIN_WORK && tile_helper().is_some();
            prop_assert_eq!(SPLIT_CALLS.with(Cell::get) - calls, u64::from(splits));

            // Helper free: it ran the upper half, or the caller took it
            // back, or the helper was resting — one of the four, once.
            let free = free_helper();
            let before = free.stats();
            let ys = split_matvec_batch(&bc, &xs, batch, free, &mut scratch);
            prop_assert_eq!(&bits(&ys), &want);
            let s = free.stats().since(&before);
            prop_assert_eq!(s.helper_ran + s.taken_back + s.busy + s.rested, 1);

            // Helper held elsewhere: a helper thread that never starts the
            // job (taken back), and a claim another thread holds (serial).
            let never = Helper::new();
            let ys = split_matvec_batch(&bc, &xs, batch, &never, &mut scratch);
            prop_assert_eq!(&bits(&ys), &want);
            prop_assert_eq!(never.stats(), SplitStats { taken_back: 1, ..SplitStats::default() });
            let held = Helper::new();
            let ys = while_claimed(&held, || split_matvec_batch(&bc, &xs, batch, &held, &mut scratch));
            prop_assert_eq!(&bits(&ys), &want);
            prop_assert_eq!(held.stats(), SplitStats { busy: 1, ..SplitStats::default() });
        }

        #[test]
        fn into_and_batch_paths_are_bit_identical_to_matvec(
            lb_pow in 0u32..5,
            p in 1usize..12,
            q in 1usize..4,
            batch in 1usize..5,
            rows_off in 0usize..3,
            cols_off in 0usize..3,
            seed in any::<u64>(),
        ) {
            // Padded edge blocks included: logical dims need not divide
            // L_b; p crosses the 4-lane width, so both callers are drawn.
            let lb = 1usize << lb_pow;
            let rows = (p * lb).saturating_sub(rows_off).max(1);
            let cols = (q * lb).saturating_sub(cols_off).max(1);
            let (bc, mut rng) = random_bc(rows, cols, lb, seed);
            let flat = tricky_inputs(&mut rng, batch * cols, lb);
            let want = bits(&reference_matvec_batch(&bc, &flat, batch));

            // The baseline caller, then the dispatched entry points, with
            // one reused scratch across calls.
            let mut scratch = MatVecScratch::new();
            let baseline = baseline_matvec_batch(&bc, &flat, batch, &mut scratch);
            prop_assert_eq!(&bits(&baseline), &want);
            for (x, want) in flat.chunks(cols).zip(want.chunks(rows)) {
                prop_assert_eq!(bits(&bc.matvec(x)), want);
                let mut y = vec![f32::NAN; rows];
                bc.matvec_into(x, &mut y, &mut scratch);
                prop_assert_eq!(bits(&y), want);
            }
            let mut ys = vec![f32::NAN; batch * rows];
            bc.matvec_batch_into(&flat, &mut ys, batch, &mut scratch);
            prop_assert_eq!(&bits(&ys), &want);
        }

        #[test]
        fn fft_and_direct_paths_agree(
            lb_pow in 0u32..5,
            p in 1usize..4,
            q in 1usize..4,
            seed in any::<u64>(),
        ) {
            let lb = 1usize << lb_pow;
            let rows = p * lb;
            let cols = q * lb;
            let (bc, mut rng) = random_bc(rows, cols, lb, seed);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let fft = bc.matvec(&x);
            let direct = bc.matvec_direct(&x);
            for (a, b) in fft.iter().zip(direct.iter()) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }

        #[test]
        fn padded_dims_agree_with_dense(
            rows in 1usize..20,
            cols in 1usize..20,
            seed in any::<u64>(),
        ) {
            let lb = 8;
            let (bc, mut rng) = random_bc(rows, cols, lb, seed);
            let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let expected = bc.to_dense().matvec(&x);
            let got = bc.matvec(&x);
            prop_assert_eq!(got.len(), rows);
            for (a, b) in got.iter().zip(expected.iter()) {
                prop_assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()));
            }
        }
    }
}
