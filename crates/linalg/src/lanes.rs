//! Lane tiling shared by the lane-major kernels.
//!
//! Both kernels ([`BlockCirculantMatrix`](crate::BlockCirculantMatrix)'s
//! frequency-domain MAC and [`LanePanel`](crate::LanePanel)'s dense
//! matvec) put *independent outputs* in a stride-1 lane axis and advance
//! a whole tile of them side by side, each output keeping its own scalar
//! operation sequence. This module decides how outputs are cut into tiles.
//!
//! The transforms around the block-circulant MAC are `ernn_fft::RealFft`'s
//! lane-batched ones, on the same planes. At `L_b` 8 and 16 they are
//! straight-line codelets whose outputs are `==` the radix-2 plan's, the
//! sign of an exact zero excepted, and the scalar oracle runs the same
//! codelet at one lane — so "its own scalar operation sequence" is the
//! codelet's there.

/// Widest lane count of a tile: 32 outputs advance together.
///
/// Measured on 1024² `L_b = 8`: lane loops over fixed-width `[f32; 32]`
/// arrays (`try_into`) whose accumulators are copied out and stored back
/// whole run the MAC at 25–31 µs on baseline SSE2 and 19 µs in the AVX2
/// instantiation (the whole call, on the radix-2 lane FFTs; the FFT8
/// codelets took ≈ 1.5 µs off both). The same loops over runtime-length zipped slices take
/// 69 µs, and updating the accumulators through their `&mut` leaves 16–32
/// scalar `mulss`/`addss` chains after full unrolling (83–142 µs). Check
/// the disassembly for `mulps` (and `vmulps … %ymm` in
/// `matvec_tile_avx2`, never `vfmadd`) after touching a lane loop.
///
/// AVX2 has a wake-up cost the baseline does not: after ≈ 0.7 ms without
/// a 256-bit instruction the core powers its upper lanes down, and the
/// next ≈ 0.3 ms of tiles run at a third of their speed (measured: 63
/// instead of 19 µs per 1024² call after a 0.75 ms scalar stretch).
/// Steady inference never gets there — tiles are 70 % of an LSTM frame —
/// but a benchmark that interleaves long scalar work will read it.
pub(crate) const TILE: usize = 32;

/// Narrowest lane count: tiny matrices (GRU-8 has `p ≤ 2`) must not pay
/// for 32 lanes of FFT and MAC. One `xmm` register, so also the width at
/// and below which a tile stays on the baseline instantiation. An 8×8
/// `L_b = 8` call is one forward and one inverse 4-lane codelet (≈ 9–15
/// and ≈ 9–11 ns; ≈ 35–49 and ≈ 34–42 on the radix-2 plan) around one
/// MAC: ≈ 65–70 ns where it was ≈ 105–118.
pub(crate) const MIN_TILE: usize = 4;

/// The instruction set the block-circulant matvec runs its tiles wider
/// than four lanes on, on this CPU: `"avx2"` (256-bit lanes, detected at
/// run time) or `"baseline"` (the build target's own, SSE2 on x86-64).
/// Floats do not depend on it; bench artifacts record it because time does.
pub fn lane_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

/// A run of consecutive outputs that share the lane axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneTile {
    /// Index of the first output.
    pub(crate) first: usize,
    /// Outputs actually present (`≤ width`; the rest is zero padding).
    pub(crate) live: usize,
    /// Lane count: [`TILE`], or for the tail the smallest power of two
    /// `≥ live` (and `≥` [`MIN_TILE`]).
    pub(crate) width: usize,
}

/// Splits `n` outputs into full [`TILE`]-wide tiles plus one tail tile
/// only as wide as it needs to be.
pub(crate) fn lane_tiles(n: usize) -> impl Iterator<Item = LaneTile> {
    (0..n).step_by(TILE).map(move |first| lane_tile(n, first))
}

/// The tile of [`lane_tiles`]`(n)` that starts at output `first`.
pub(crate) fn lane_tile(n: usize, first: usize) -> LaneTile {
    let live = (n - first).min(TILE);
    LaneTile {
        first,
        live,
        width: live.next_power_of_two().max(MIN_TILE),
    }
}

/// Lanes [`lane_tiles`]`(n)` spans in total, padding included.
pub(crate) fn padded_lanes(n: usize) -> usize {
    lane_tiles(n).map(|t| t.width).sum()
}

/// The leading `W` lanes of a plane as a fixed-width array (see [`TILE`]
/// for why the lane loops need one).
pub(crate) fn lanes<const W: usize>(plane: &[f32]) -> &[f32; W] {
    plane[..W].try_into().expect("W lanes")
}

/// Mutable [`lanes`].
pub(crate) fn lanes_mut<const W: usize>(plane: &mut [f32]) -> &mut [f32; W] {
    (&mut plane[..W]).try_into().expect("W lanes")
}

/// Runs `$body` with the const lane width `$W` bound to the runtime
/// `$width` (one of the four widths [`lane_tiles`] produces).
macro_rules! with_lane_width {
    ($width:expr, $W:ident => $body:expr) => {
        match $width {
            4 => {
                const $W: usize = 4;
                $body
            }
            8 => {
                const $W: usize = 8;
                $body
            }
            16 => {
                const $W: usize = 16;
                $body
            }
            _ => {
                const $W: usize = $crate::lanes::TILE;
                $body
            }
        }
    };
}
pub(crate) use with_lane_width;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_tile_is_only_as_wide_as_it_needs() {
        let widths = |n| lane_tiles(n).map(|t| (t.live, t.width)).collect::<Vec<_>>();
        assert_eq!(widths(1), [(1, 4)]);
        assert_eq!(widths(5), [(5, 8)]);
        assert_eq!(widths(16), [(16, 16)]);
        assert_eq!(widths(17), [(17, 32)]);
        assert_eq!(widths(64), [(32, 32), (32, 32)]);
        assert_eq!(widths(66), [(32, 32), (32, 32), (2, 4)]);
        assert_eq!(padded_lanes(66), 68);
        assert_eq!(
            lane_tile(66, 64),
            lane_tiles(66).last().expect("three tiles")
        );
    }
}
