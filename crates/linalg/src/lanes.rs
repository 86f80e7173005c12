//! Lane tiling shared by the lane-major kernels.
//!
//! Both kernels ([`BlockCirculantMatrix`](crate::BlockCirculantMatrix)'s
//! frequency-domain MAC and [`LanePanel`](crate::LanePanel)'s dense
//! matvec) put *independent outputs* in a stride-1 lane axis and advance
//! a whole tile of them side by side, each output keeping its own scalar
//! operation sequence. This module decides how outputs are cut into tiles.

/// Widest lane count of a tile: 32 outputs advance together.
///
/// Measured on 1024² `L_b = 8` (baseline SSE2): lane loops over
/// fixed-width `[f32; 32]` arrays (`try_into`) whose accumulators are
/// copied out and stored back whole run the MAC at 25–31 µs. The same
/// loops over runtime-length zipped slices take 69 µs, and updating the
/// accumulators through their `&mut` leaves 16–32 scalar `mulss`/`addss`
/// chains after full unrolling (83–142 µs). Check the disassembly for
/// `mulps` after touching a lane loop.
pub(crate) const TILE: usize = 32;

/// Narrowest lane count: tiny matrices (GRU-8 has `p ≤ 2`) must not pay
/// for 32 lanes of FFT and MAC.
const MIN_TILE: usize = 4;

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
