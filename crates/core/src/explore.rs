//! The two design explorations that bound Phase I's search space.
//!
//! * **Bottom-up** (paper Sec. V, Fig. 8): the multiplication count of a
//!   layer as a function of block size converges at 32–64; larger blocks
//!   buy (almost) nothing, so Phase I never trains beyond that bound. The
//!   curve is [`ernn_fft::cost::fig8_curve`].
//! * **Storage floor** (Fig. 2 step 1): the smallest block size whose
//!   compressed model fits in on-chip BRAM is the search's lower bound.

use ernn_fpga::{Device, RnnSpec};

/// Block-size search bounds for Phase I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizeBounds {
    /// Smallest block size whose model fits in BRAM (Fig. 2 step 1).
    pub lower: usize,
    /// Largest block size worth training (Fig. 8 convergence, Sec. V-B).
    pub upper: usize,
    /// Number of power-of-two candidates in `[lower, upper]` — the bound
    /// on step-2 training trials.
    pub candidates: usize,
}

/// Computes the Phase-I block-size bounds for an LSTM of the given hidden
/// size deployed on `device` (the paper's step 1 starts "from the LSTM RNN
/// baseline model due to its high reliability").
pub fn block_size_bounds(deploy_hidden: usize, device: &Device) -> BlockSizeBounds {
    let upper = ernn_fft::cost::block_size_upper_bound(deploy_hidden);
    let mut lower = 1usize;
    while lower < upper {
        let spec = RnnSpec {
            hidden_dim: deploy_hidden,
            ..RnnSpec::lstm_1024(lower, 12)
        };
        if spec.fits_in_bram(device) {
            break;
        }
        lower = if lower == 1 { 2 } else { lower * 2 };
    }
    let candidates = {
        let mut n = 0usize;
        let mut b = lower.max(1);
        while b <= upper {
            n += 1;
            b *= 2;
        }
        n
    };
    BlockSizeBounds {
        lower,
        upper,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::{ADM_PCIE_7V3, XCKU060};

    #[test]
    fn bounds_match_paper_narrative() {
        // Paper Sec. VI-B: "For the ASR application and LSTM/GRU model, a
        // block size of 4 or 8 will fit the whole RNN model into BRAM" and
        // the upper bound is 32–64, giving "at most 3 or 4 training trials
        // for block size optimization".
        for dev in [ADM_PCIE_7V3, XCKU060] {
            let b = block_size_bounds(1024, &dev);
            assert!(
                (2..=8).contains(&b.lower),
                "{}: lower {}",
                dev.name,
                b.lower
            );
            assert!(
                (32..=64).contains(&b.upper),
                "{}: upper {}",
                dev.name,
                b.upper
            );
            assert!(
                b.candidates <= 6,
                "{}: {} candidates",
                dev.name,
                b.candidates
            );
        }
    }

    #[test]
    fn small_devices_raise_the_floor() {
        // A hypothetical tiny device forces larger blocks.
        let tiny = Device {
            name: "tiny",
            dsp: 512,
            bram_blocks: 120, // ~0.5 MB
            lut: 100_000,
            ff: 200_000,
            process_nm: 28,
        };
        let b = block_size_bounds(1024, &tiny);
        let b_large = block_size_bounds(1024, &ADM_PCIE_7V3);
        assert!(b.lower > b_large.lower);
    }
}
