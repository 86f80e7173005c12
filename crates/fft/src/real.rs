//! Real-input FFT via the packed half-size complex transform.
//!
//! E-RNN's inputs and weights are real-valued, so the spectra are Hermitian
//! symmetric: only `N/2 + 1` bins are unique. Sec. V-A2 of the paper
//! exploits this to halve the butterfly work and the element-wise multiply
//! count. This module implements the classic "pack two real samples into one
//! complex sample" algorithm, which performs a complex FFT of half the
//! length plus an O(N) untangling pass — the software analogue of the
//! hardware optimization.
//!
//! # Codelets
//!
//! For every size the radix-2 [`FftPlan`] plus a table-driven untangling
//! loop is the *definition* of the transform. The two sizes the paper
//! builds (FFT8 and FFT16, Table III) also have a straight-line **codelet**
//! each way that executes Sec. V's third reduction: the quarter-turn
//! twiddles `±1`, `±i` are an add / sub / swap, not a complex multiply.
//! A codelet also shares the even/odd untangling terms between bins `k`
//! and `N/2 − k` (the plan computes them twice), folds the inverse's `1/N`
//! into the untangling's `1/2`, and never permutes: one read of the input
//! planes, one write of the output planes. [`RealFft`]'s entry points —
//! scalar and lane-batched — run the codelet where there is one.
//!
//! **Contract:** on every input whose intermediates neither overflow nor
//! go subnormal, a codelet's outputs are `==` the plan's; only the sign of
//! an exact zero can differ (the plan forms `x − y·0`, the codelet `x`).
//! Every step above is exact in binary floating point: the tables hold
//! exact quarter turns ([`Complex32::twiddle`]), `tw[N/2 − k]` is
//! `−conj(tw[k])` bit for bit, negation and scaling by a power of two
//! commute with rounding, and what remains is the plan's own additions and
//! multiplications in the plan's order.

use crate::plan::{lane_planes, lane_planes_mut};
use crate::{is_power_of_two, Complex32, FftPlan};
use std::collections::HashMap;
use std::f32::consts::FRAC_1_SQRT_2;
use std::sync::{Arc, Mutex, OnceLock};

/// `cos(π/8)` and `sin(π/8)` as the twiddle table rounds them.
const COS_PI_8: f32 = 0.923_879_5;
const SIN_PI_8: f32 = 0.382_683_43;

/// Reusable workspace for the in-place real-FFT kernels.
///
/// [`RealFft::forward_into`] and [`RealFft::inverse_into`] need one
/// half-length complex buffer for the packed transform (sizes 8 and 16 run
/// their codelet on the stack and leave it alone); a `RealFftScratch`
/// owns it so steady-state transforms allocate nothing. One scratch serves
/// plans of any size (the buffer grows to the largest size seen and is
/// then reused), so a worker can keep a single scratch across every layer
/// of a model.
#[derive(Debug, Clone, Default)]
pub struct RealFftScratch {
    packed: Vec<Complex32>,
}

impl RealFftScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        RealFftScratch::default()
    }

    /// The packed buffer, resized to exactly `half` entries.
    fn packed(&mut self, half: usize) -> &mut [Complex32] {
        self.packed.resize(half, Complex32::ZERO);
        &mut self.packed[..half]
    }
}

/// Real-input FFT producing (and consuming) the unique half spectrum.
///
/// The forward transform maps `N` real samples to `N/2 + 1` complex bins;
/// bins `0` and `N/2` are purely real. The inverse reconstructs the real
/// signal, including the `1/N` scaling.
///
/// ```
/// use ernn_fft::RealFft;
/// let rfft = RealFft::new(8);
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
/// let spec = rfft.forward(&x);
/// assert_eq!(spec.len(), 5); // N/2 + 1 unique bins
/// let back = rfft.inverse(&spec);
/// for (a, b) in back.iter().zip(x.iter()) {
///     assert!((a - b).abs() < 1e-4);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    size: usize,
    /// Plan of size `N/2` (absent for N ≤ 2 where the transform is trivial).
    half_plan: Option<FftPlan>,
    /// `e^{-2πik/N}` for `k in 0..=N/2`.
    twiddles: Vec<Complex32>,
}

impl RealFft {
    /// Creates a real-FFT plan for signals of length `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: usize) -> Self {
        assert!(
            is_power_of_two(size),
            "real FFT size must be a power of two, got {size}"
        );
        let half_plan = if size >= 4 {
            Some(FftPlan::new(size / 2))
        } else {
            None
        };
        let twiddles = (0..=size / 2)
            .map(|k| Complex32::twiddle(k, size))
            .collect();
        crate::stats::count_plan();
        RealFft {
            size,
            half_plan,
            twiddles,
        }
    }

    /// The signal length this plan was built for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of unique spectrum bins, `N/2 + 1` (or 1 when `N == 1`).
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        if self.size == 1 {
            1
        } else {
            self.size / 2 + 1
        }
    }

    /// Looks up (or builds) a process-wide shared plan for `size`.
    ///
    /// `RealFft::new` recomputes the twiddle tables on every call — e.g.
    /// once per block-circulant matrix per model clone. The shared cache
    /// builds each size exactly once per process and hands out `Arc`
    /// clones afterwards; hits are observable as
    /// [`FftStats::plan_cache_hits`](crate::stats::FftStats).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn shared(size: usize) -> Arc<RealFft> {
        static CACHE: OnceLock<Mutex<HashMap<usize, Arc<RealFft>>>> = OnceLock::new();
        assert!(
            is_power_of_two(size),
            "real FFT size must be a power of two, got {size}"
        );
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("plan cache poisoned");
        if let Some(plan) = map.get(&size) {
            crate::stats::count_plan_cache_hit();
            return Arc::clone(plan);
        }
        let plan = Arc::new(RealFft::new(size));
        map.insert(size, Arc::clone(&plan));
        plan
    }

    /// Forward transform of a real signal into its unique half spectrum.
    ///
    /// Thin allocating wrapper over [`Self::forward_into`]; results are
    /// bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.size()`.
    pub fn forward(&self, input: &[f32]) -> Vec<Complex32> {
        let mut spectrum = vec![Complex32::ZERO; self.spectrum_len()];
        self.forward_into(input, &mut spectrum, &mut RealFftScratch::new());
        spectrum
    }

    /// In-place forward transform: writes the unique half spectrum into
    /// `spectrum`, using `scratch` for the packed half-length buffer.
    /// Allocation-free once the scratch has grown to this plan's size.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.size()` or
    /// `spectrum.len() != self.spectrum_len()`.
    pub fn forward_into(
        &self,
        input: &[f32],
        spectrum: &mut [Complex32],
        scratch: &mut RealFftScratch,
    ) {
        assert_eq!(input.len(), self.size, "input length must match plan size");
        assert_eq!(
            spectrum.len(),
            self.spectrum_len(),
            "spectrum length must be N/2 + 1"
        );
        crate::stats::count_forward(1);
        match self.size {
            1 => spectrum[0] = Complex32::from_real(input[0]),
            2 => {
                spectrum[0] = Complex32::from_real(input[0] + input[1]);
                spectrum[1] = Complex32::from_real(input[0] - input[1]);
            }
            8 | 16 => {
                // The lane codelet at W = 1, where `[bin][re|im][lane]`
                // planes are (re, im) pairs.
                let mut planes = [0.0f32; 18];
                let planes = &mut planes[..2 * spectrum.len()];
                self.forward_codelet::<1>(input, planes);
                for (bin, p) in spectrum.iter_mut().zip(planes.chunks_exact(2)) {
                    *bin = Complex32::new(p[0], p[1]);
                }
            }
            n => {
                let half = n / 2;
                let packed = scratch.packed(half);
                for (k, p) in packed.iter_mut().enumerate() {
                    *p = Complex32::new(input[2 * k], input[2 * k + 1]);
                }
                self.half_plan
                    .as_ref()
                    .expect("plan exists for N >= 4")
                    .forward(packed);
                // `half` is a power of two: wrap with a mask, not two
                // integer divisions per bin.
                let wrap = half - 1;
                for (k, bin) in spectrum.iter_mut().enumerate() {
                    let zk = packed[k & wrap];
                    let znk = packed[(half - k) & wrap].conj();
                    let even = (zk + znk).scale(0.5);
                    let odd = (zk - znk).mul_neg_i().scale(0.5);
                    *bin = even + self.twiddles[k] * odd;
                }
                // Enforce the exact Hermitian endpoints: bins 0 and N/2 of a
                // real signal are mathematically real.
                spectrum[0].im = 0.0;
                spectrum[half].im = 0.0;
            }
        }
    }

    /// Inverse transform from the unique half spectrum back to a real signal.
    ///
    /// Thin allocating wrapper over [`Self::inverse_into`]; results are
    /// bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `spectrum.len() != self.spectrum_len()`.
    pub fn inverse(&self, spectrum: &[Complex32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.size];
        self.inverse_into(spectrum, &mut out, &mut RealFftScratch::new());
        out
    }

    /// In-place inverse transform: writes the real signal into `output`,
    /// using `scratch` for the packed half-length buffer. Allocation-free
    /// once the scratch has grown to this plan's size.
    ///
    /// # Panics
    ///
    /// Panics if `spectrum.len() != self.spectrum_len()` or
    /// `output.len() != self.size()`.
    pub fn inverse_into(
        &self,
        spectrum: &[Complex32],
        output: &mut [f32],
        scratch: &mut RealFftScratch,
    ) {
        assert_eq!(
            spectrum.len(),
            self.spectrum_len(),
            "spectrum length must be N/2 + 1"
        );
        assert_eq!(
            output.len(),
            self.size,
            "output length must match plan size"
        );
        crate::stats::count_inverse(1);
        match self.size {
            1 => output[0] = spectrum[0].re,
            2 => {
                output[0] = 0.5 * (spectrum[0].re + spectrum[1].re);
                output[1] = 0.5 * (spectrum[0].re - spectrum[1].re);
            }
            8 | 16 => {
                let mut planes = [0.0f32; 18];
                let planes = &mut planes[..2 * spectrum.len()];
                for (p, bin) in planes.chunks_exact_mut(2).zip(spectrum) {
                    (p[0], p[1]) = (bin.re, bin.im);
                }
                self.inverse_codelet::<1>(planes, output);
            }
            n => {
                let half = n / 2;
                let packed = scratch.packed(half);
                for (k, p) in packed.iter_mut().enumerate() {
                    let xk = spectrum[k];
                    let xnk = spectrum[half - k].conj();
                    let even = (xk + xnk).scale(0.5);
                    // W^k · O[k] = (X[k] - conj(X[N/2-k])) / 2
                    let odd = (xk - xnk).scale(0.5) * self.twiddles[k].conj();
                    *p = even + odd.mul_i();
                }
                self.half_plan
                    .as_ref()
                    .expect("plan exists for N >= 4")
                    .inverse(packed);
                for (k, z) in packed.iter().enumerate() {
                    output[2 * k] = z.re;
                    output[2 * k + 1] = z.im;
                }
            }
        }
    }

    /// Lane-batched [`Self::forward_into`]: transforms `W` independent
    /// real signals side by side.
    ///
    /// `time` holds the signals as `[sample][lane]` planes (`N·W` floats)
    /// and doubles as the plan's workspace — it **may be clobbered**.
    /// `spectrum` receives `[bin][re|im][lane]` planes
    /// (`spectrum_len()·2·W` floats). Every lane goes through the scalar
    /// transform's exact operation sequence (the size's codelet, or pack →
    /// bit-reverse → radix-2 butterflies → untangle), so lane `l` of the
    /// result is bit-identical to `forward_into` of signal `l`; the lanes
    /// only run side by side. `live` is how many lanes carry real signals
    /// (the rest are padding the caller ignores) — it only feeds the
    /// [`stats`](crate::stats) counters, bumped once per call.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with the plan or `live > W`.
    pub fn forward_lanes<const W: usize>(
        &self,
        time: &mut [f32],
        spectrum: &mut [f32],
        live: usize,
    ) {
        assert_eq!(time.len(), self.size * W, "time planes must be N × W");
        assert_eq!(
            spectrum.len(),
            self.spectrum_len() * 2 * W,
            "spectrum planes must be (N/2 + 1) × 2 × W"
        );
        assert!(live <= W, "at most W live lanes");
        crate::stats::count_forward(live as u64);
        match self.size {
            1 => {
                spectrum[..W].copy_from_slice(time);
                spectrum[W..].fill(0.0);
            }
            2 => {
                let (t0, t1) = lane_planes::<W>(time);
                let (bin0, bin1) = spectrum.split_at_mut(2 * W);
                let (re0, im0) = lane_planes_mut::<W>(bin0);
                let (re1, im1) = lane_planes_mut::<W>(bin1);
                for l in 0..W {
                    re0[l] = t0[l] + t1[l];
                    re1[l] = t0[l] - t1[l];
                }
                (*im0, *im1) = ([0.0; W], [0.0; W]);
            }
            8 | 16 => self.forward_codelet::<W>(time, spectrum),
            _ => self.plan_forward_lanes::<W>(time, spectrum),
        }
    }

    /// Lane-batched [`Self::inverse_into`]: `spectrum` holds `W` half
    /// spectra as `[bin][re|im][lane]` planes, `time` receives the
    /// signals as `[sample][lane]` planes. Same contract as
    /// [`Self::forward_lanes`]: per lane the operation sequence is
    /// `inverse_into`'s, so the bits are too.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with the plan or `live > W`.
    pub fn inverse_lanes<const W: usize>(&self, spectrum: &[f32], time: &mut [f32], live: usize) {
        assert_eq!(
            spectrum.len(),
            self.spectrum_len() * 2 * W,
            "spectrum planes must be (N/2 + 1) × 2 × W"
        );
        assert_eq!(time.len(), self.size * W, "time planes must be N × W");
        assert!(live <= W, "at most W live lanes");
        crate::stats::count_inverse(live as u64);
        match self.size {
            1 => time.copy_from_slice(&spectrum[..W]),
            2 => {
                let (re0, _) = lane_planes::<W>(spectrum);
                let (re1, _) = lane_planes::<W>(&spectrum[2 * W..]);
                let (t0, t1) = lane_planes_mut::<W>(time);
                for l in 0..W {
                    t0[l] = 0.5 * (re0[l] + re1[l]);
                    t1[l] = 0.5 * (re0[l] - re1[l]);
                }
            }
            8 | 16 => self.inverse_codelet::<W>(spectrum, time),
            _ => self.plan_inverse_lanes::<W>(spectrum, time),
        }
    }

    /// The forward codelet of this plan's size (8 or 16) over `W` lanes.
    fn forward_codelet<const W: usize>(&self, time: &[f32], spectrum: &mut [f32]) {
        match self.size {
            8 => forward8_lanes::<W>(time, spectrum),
            16 => forward16_lanes::<W>(time, spectrum),
            n => unreachable!("no forward codelet for size {n}"),
        }
    }

    /// The inverse codelet of this plan's size (8 or 16) over `W` lanes.
    fn inverse_codelet<const W: usize>(&self, spectrum: &[f32], time: &mut [f32]) {
        match self.size {
            8 => inverse8_lanes::<W>(spectrum, time),
            16 => inverse16_lanes::<W>(spectrum, time),
            n => unreachable!("no inverse codelet for size {n}"),
        }
    }

    /// The forward transform as the radix-2 plan defines it, for `N ≥ 4`:
    /// the half-size complex transform in place on `time`, then the
    /// table-driven untangling loop. What every size without a codelet
    /// runs, and the codelets' test oracle.
    fn plan_forward_lanes<const W: usize>(&self, time: &mut [f32], spectrum: &mut [f32]) {
        // Samples (2k, 2k+1) are the (re, im) planes of packed entry k
        // already: the half-size transform runs in place.
        let half = self.size / 2;
        self.half_plan
            .as_ref()
            .expect("plan exists for N >= 4")
            .forward_lanes::<W>(time);
        let wrap = half - 1;
        for (k, bin) in spectrum.chunks_exact_mut(2 * W).enumerate() {
            let (z_re, z_im) = lane_planes::<W>(&time[(k & wrap) * 2 * W..]);
            let (n_re, n_im) = lane_planes::<W>(&time[((half - k) & wrap) * 2 * W..]);
            let (o_re, o_im) = lane_planes_mut::<W>(bin);
            let tw = self.twiddles[k];
            for l in 0..W {
                let zk = Complex32::new(z_re[l], z_im[l]);
                let znk = Complex32::new(n_re[l], n_im[l]).conj();
                let even = (zk + znk).scale(0.5);
                let odd = (zk - znk).mul_neg_i().scale(0.5);
                let out = even + tw * odd;
                (o_re[l], o_im[l]) = (out.re, out.im);
            }
        }
        // Enforce the exact Hermitian endpoints (fixed-width
        // stores: a `fill` is a libc call per 16-byte plane at W = 4).
        *lane_planes_mut::<W>(spectrum).1 = [0.0; W];
        *lane_planes_mut::<W>(&mut spectrum[2 * half * W..]).1 = [0.0; W];
    }

    /// The inverse transform as the radix-2 plan defines it, for `N ≥ 4`
    /// (see [`Self::plan_forward_lanes`]).
    fn plan_inverse_lanes<const W: usize>(&self, spectrum: &[f32], time: &mut [f32]) {
        let half = self.size / 2;
        for (k, packed) in time.chunks_exact_mut(2 * W).enumerate() {
            let (x_re, x_im) = lane_planes::<W>(&spectrum[k * 2 * W..]);
            let (n_re, n_im) = lane_planes::<W>(&spectrum[(half - k) * 2 * W..]);
            let (p_re, p_im) = lane_planes_mut::<W>(packed);
            let tw = self.twiddles[k].conj();
            for l in 0..W {
                let xk = Complex32::new(x_re[l], x_im[l]);
                let xnk = Complex32::new(n_re[l], n_im[l]).conj();
                let even = (xk + xnk).scale(0.5);
                let odd = (xk - xnk).scale(0.5) * tw;
                let out = even + odd.mul_i();
                (p_re[l], p_im[l]) = (out.re, out.im);
            }
        }
        self.half_plan
            .as_ref()
            .expect("plan exists for N >= 4")
            .inverse_lanes::<W>(time);
    }
}

/// `P` planes of `W` lanes as fixed-width arrays (a compile-time lane
/// count is what lets the autovectoriser run the lane loops side by side).
fn planes<const W: usize, const P: usize>(s: &[f32]) -> &[[f32; W]; P] {
    let (planes, _) = s.as_chunks::<W>();
    planes.try_into().expect("P planes of W lanes")
}

/// Mutable [`planes`].
fn planes_mut<const W: usize, const P: usize>(s: &mut [f32]) -> &mut [[f32; W]; P] {
    let (planes, _) = s.as_chunks_mut::<W>();
    planes.try_into().expect("P planes of W lanes")
}

/// Lane `l` of `N` consecutive `(re, im)` plane pairs.
#[inline(always)]
fn load<const W: usize, const P: usize, const N: usize>(
    planes: &[[f32; W]; P],
    l: usize,
) -> [Complex32; N] {
    std::array::from_fn(|k| Complex32::new(planes[2 * k][l], planes[2 * k + 1][l]))
}

/// Writes `values` to lane `l` of consecutive `(re, im)` plane pairs.
#[inline(always)]
fn store<const W: usize, const P: usize, const N: usize>(
    planes: &mut [[f32; W]; P],
    l: usize,
    values: [Complex32; N],
) {
    for (k, v) in values.into_iter().enumerate() {
        (planes[2 * k][l], planes[2 * k + 1][l]) = (v.re, v.im);
    }
}

/// 4-point complex DFT (`INVERSE`: the conjugate transform, unscaled):
/// both butterfly levels have quarter-turn twiddles only — 16 additions,
/// no multiplication.
#[inline(always)]
fn dft4<const INVERSE: bool>(z: [Complex32; 4]) -> [Complex32; 4] {
    let (a0, a1, a2, a3) = (z[0] + z[2], z[0] - z[2], z[1] + z[3], z[1] - z[3]);
    let r = quarter_turn::<INVERSE>(a3);
    [a0 + a2, a1 + r, a0 - a2, a1 - r]
}

/// 8-point complex DFT: two [`dft4`]s and a last level whose twiddles
/// `W_8^1`, `W_8^3` cost two multiplications by `√½` each (`W_8^3` is
/// `W_8^1` a quarter turn on) — 4 multiplications, 52 additions.
#[inline(always)]
fn dft8<const INVERSE: bool>(z: [Complex32; 8]) -> [Complex32; 8] {
    let w1 = |z: Complex32| {
        let (r, i) = (z.re * FRAC_1_SQRT_2, z.im * FRAC_1_SQRT_2);
        if INVERSE {
            Complex32::new(r - i, r + i)
        } else {
            Complex32::new(r + i, i - r)
        }
    };
    let e = dft4::<INVERSE>([z[0], z[2], z[4], z[6]]);
    let o = dft4::<INVERSE>([z[1], z[3], z[5], z[7]]);
    let t = [
        o[0],
        w1(o[1]),
        quarter_turn::<INVERSE>(o[2]),
        quarter_turn::<INVERSE>(w1(o[3])),
    ];
    [
        e[0] + t[0],
        e[1] + t[1],
        e[2] + t[2],
        e[3] + t[3],
        e[0] - t[0],
        e[1] - t[1],
        e[2] - t[2],
        e[3] - t[3],
    ]
}

/// `z · W_4^1`: times `−i` forward, times `i` inverse — a swap and a sign.
#[inline(always)]
fn quarter_turn<const INVERSE: bool>(z: Complex32) -> Complex32 {
    if INVERSE {
        z.mul_i()
    } else {
        z.mul_neg_i()
    }
}

/// Forward untangling of packed bins `k` and `N/2 − k` into spectrum bins
/// `k` and `N/2 − k`, whose even/odd terms are each other's conjugates.
/// `(c, −s)` is `tw[k]`, both pre-scaled by the untangling's `1/2`: four
/// products, two distinct where `c == s`.
#[inline(always)]
fn untangle_forward(zk: Complex32, zn: Complex32, c: f32, s: f32) -> (Complex32, Complex32) {
    let even = Complex32::new(zk.re + zn.re, zk.im - zn.im).scale(0.5);
    let (f, g) = (zk.im + zn.im, zk.re - zn.re);
    let (p, q) = (c * f - s * g, c * g + s * f);
    (
        Complex32::new(even.re + p, even.im - q),
        Complex32::new(even.re - p, -(q + even.im)),
    )
}

/// Inverse of [`untangle_forward`]: spectrum bins `k` and `N/2 − k` into
/// packed bins `k` and `N/2 − k`, everything scaled by `scale = 1/N` — the
/// untangling's `1/2` times the half transform's `2/N`. `(c, s)` is
/// `conj(tw[k])·scale`: four products, two distinct where `c == s`.
#[inline(always)]
fn untangle_inverse(
    xk: Complex32,
    xn: Complex32,
    scale: f32,
    c: f32,
    s: f32,
) -> (Complex32, Complex32) {
    let even = Complex32::new(xk.re + xn.re, xk.im - xn.im).scale(scale);
    let (dr, di) = (xk.re - xn.re, xk.im + xn.im);
    let odd = Complex32::new(dr * c - di * s, dr * s + di * c);
    (
        Complex32::new(even.re - odd.im, even.im + odd.re),
        Complex32::new(even.re + odd.im, odd.re - even.im),
    )
}

/// Packed bin 0 of the inverse from spectrum bins 0 and `N/2` (twiddle 1).
#[inline(always)]
fn untangle_inverse_ends(x0: Complex32, xh: Complex32, scale: f32) -> Complex32 {
    Complex32::new(
        ((x0.re + xh.re) - (x0.im + xh.im)) * scale,
        ((x0.im - xh.im) + (x0.re - xh.re)) * scale,
    )
}

/// Forward FFT8 codelet: `[sample][lane]` → `[bin][re|im][lane]`.
///
/// Twiddle multiplications: two, `√½/2` times each odd term of the
/// bin-1/3 untangling (`CostModel::paper().fft_real_mults(8)` charges 4);
/// the rest is 28 additions and two exact halvings. Bins 0 and 4 get
/// `+0.0` `im` planes. `inline(never)`: a codelet is compiled once, for
/// the build's baseline ISA, whoever calls it.
#[inline(never)]
fn forward8_lanes<const W: usize>(time: &[f32], spectrum: &mut [f32]) {
    const C: f32 = FRAC_1_SQRT_2 * 0.5;
    let (t, x) = (planes::<W, 8>(time), planes_mut::<W, 10>(spectrum));
    for l in 0..W {
        let z = dft4::<false>(load(t, l));
        let (x1, x3) = untangle_forward(z[1], z[3], C, C);
        let bins = [
            Complex32::from_real(z[0].re + z[0].im),
            x1,
            z[2].conj(),
            x3,
            Complex32::from_real(z[0].re - z[0].im),
        ];
        store(x, l, bins);
    }
}

/// Inverse FFT8 codelet: `[bin][re|im][lane]` → `[sample][lane]`, `1/8`
/// included.
///
/// Twiddle multiplications: two, `√½ · 2⁻³` times each difference term of
/// the bin-1/3 untangling (the model charges 4); the rest is 32 additions
/// and six exact scalings by `2⁻³` or `2⁻²`.
#[inline(never)]
fn inverse8_lanes<const W: usize>(spectrum: &[f32], time: &mut [f32]) {
    const S: f32 = 0.125;
    const C: f32 = FRAC_1_SQRT_2 * S;
    let (x, t) = (planes::<W, 10>(spectrum), planes_mut::<W, 8>(time));
    for l in 0..W {
        let x: [Complex32; 5] = load(x, l);
        let (p1, p3) = untangle_inverse(x[1], x[3], S, C, C);
        let packed = [
            untangle_inverse_ends(x[0], x[4], S),
            p1,
            x[2].conj().scale(2.0 * S),
            p3,
        ];
        store(t, l, dft4::<true>(packed));
    }
}

/// Forward FFT16 codelet: `[sample][lane]` → `[bin][re|im][lane]`.
///
/// Twiddle multiplications: 4 by `√½` in [`dft8`], then 4 + 2 + 4 in the
/// untanglings of bins 1/7, 2/6, 3/5 by `cos(π/8)/2`, `sin(π/8)/2` and
/// `√½/2` — 14 (`CostModel::paper().fft_real_mults(16)` charges 20) —
/// next to six exact halvings.
#[inline(never)]
fn forward16_lanes<const W: usize>(time: &[f32], spectrum: &mut [f32]) {
    const C1: f32 = COS_PI_8 * 0.5;
    const C2: f32 = FRAC_1_SQRT_2 * 0.5;
    const C3: f32 = SIN_PI_8 * 0.5;
    let (t, x) = (planes::<W, 16>(time), planes_mut::<W, 18>(spectrum));
    for l in 0..W {
        let z = dft8::<false>(load(t, l));
        let (x1, x7) = untangle_forward(z[1], z[7], C1, C3);
        let (x2, x6) = untangle_forward(z[2], z[6], C2, C2);
        let (x3, x5) = untangle_forward(z[3], z[5], C3, C1);
        let bins = [
            Complex32::from_real(z[0].re + z[0].im),
            x1,
            x2,
            x3,
            z[4].conj(),
            x5,
            x6,
            x7,
            Complex32::from_real(z[0].re - z[0].im),
        ];
        store(x, l, bins);
    }
}

/// Inverse FFT16 codelet: `[bin][re|im][lane]` → `[sample][lane]`, `1/16`
/// included.
///
/// Twiddle multiplications: 4 + 2 + 4 in the untanglings of bins 1/7,
/// 2/6, 3/5 (constants pre-scaled by `2⁻⁴`), then 4 by `√½` in [`dft8`] —
/// 14 (the model charges 20) — next to ten exact scalings by `2⁻⁴` or
/// `2⁻³`.
#[inline(never)]
fn inverse16_lanes<const W: usize>(spectrum: &[f32], time: &mut [f32]) {
    const S: f32 = 0.0625;
    const C1: f32 = COS_PI_8 * S;
    const C2: f32 = FRAC_1_SQRT_2 * S;
    const C3: f32 = SIN_PI_8 * S;
    let (x, t) = (planes::<W, 18>(spectrum), planes_mut::<W, 16>(time));
    for l in 0..W {
        let x: [Complex32; 9] = load(x, l);
        let (p1, p7) = untangle_inverse(x[1], x[7], S, C1, C3);
        let (p2, p6) = untangle_inverse(x[2], x[6], S, C2, C2);
        let (p3, p5) = untangle_inverse(x[3], x[5], S, C3, C1);
        let packed = [
            untangle_inverse_ends(x[0], x[8], S),
            p1,
            p2,
            p3,
            x[4].conj().scale(2.0 * S),
            p5,
            p6,
            p7,
        ];
        store(t, l, dft8::<true>(packed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::dft_naive;
    use proptest::prelude::*;

    fn spectra_close(a: &[Complex32], b: &[Complex32], tol: f32) -> bool {
        a.iter()
            .zip(b.iter())
            .all(|(x, y)| (x.re - y.re).abs() <= tol && (x.im - y.im).abs() <= tol)
    }

    #[test]
    fn matches_full_complex_fft() {
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
            let rfft = RealFft::new(n);
            let x: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32) * 0.3 - 1.0).collect();
            let spec = rfft.forward(&x);
            let full = dft_naive(
                &x.iter()
                    .map(|&v| Complex32::from_real(v))
                    .collect::<Vec<_>>(),
            );
            let expected: Vec<Complex32> = full[..rfft.spectrum_len()].to_vec();
            assert!(
                spectra_close(&spec, &expected, 2e-3),
                "n={n}: {spec:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn quarter_turn_twiddles_are_exact() {
        let bits = |w: Complex32| (w.re.to_bits(), w.im.to_bits());
        for n in [4usize, 8, 16, 32, 64, 128] {
            let tw = &RealFft::new(n).twiddles;
            assert_eq!(bits(tw[0]), bits(Complex32::new(1.0, 0.0)), "n={n}");
            assert_eq!(bits(tw[n / 4]), bits(Complex32::new(0.0, -1.0)), "n={n}");
            assert_eq!(bits(tw[n / 2]), bits(Complex32::new(-1.0, 0.0)), "n={n}");
        }
    }

    #[test]
    fn endpoints_are_real() {
        let rfft = RealFft::new(16);
        let x: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        let spec = rfft.forward(&x);
        assert_eq!(spec[0].im, 0.0);
        assert_eq!(spec[8].im, 0.0);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let rfft = RealFft::new(8);
        let mut x = [0.0f32; 8];
        x[0] = 1.0;
        let spec = rfft.forward(&x);
        for bin in &spec {
            assert!((bin.re - 1.0).abs() < 1e-5 && bin.im.abs() < 1e-5);
        }
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let rfft = RealFft::new(16);
        let x = [0.5f32; 16];
        let spec = rfft.forward(&x);
        assert!((spec[0].re - 8.0).abs() < 1e-4);
        for bin in &spec[1..] {
            assert!(bin.abs() < 1e-4);
        }
    }

    #[test]
    fn into_variants_are_bit_identical_to_allocating_paths() {
        let mut scratch = RealFftScratch::new();
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let rfft = RealFft::new(n);
            let x: Vec<f32> = (0..n).map(|i| ((i * 5 % 11) as f32) * 0.7 - 2.0).collect();
            let spec = rfft.forward(&x);
            let mut spec_into = vec![Complex32::ZERO; rfft.spectrum_len()];
            rfft.forward_into(&x, &mut spec_into, &mut scratch);
            assert_eq!(spec, spec_into, "forward n={n}");
            let back = rfft.inverse(&spec);
            let mut back_into = vec![0.0f32; n];
            rfft.inverse_into(&spec_into, &mut back_into, &mut scratch);
            assert_eq!(back, back_into, "inverse n={n}");
        }
    }

    #[test]
    fn one_scratch_serves_mixed_sizes() {
        // Shrinking then regrowing the packed buffer must stay correct.
        let mut scratch = RealFftScratch::new();
        for &n in &[64usize, 8, 128, 16] {
            let rfft = RealFft::new(n);
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).cos()).collect();
            let mut spec = vec![Complex32::ZERO; rfft.spectrum_len()];
            rfft.forward_into(&x, &mut spec, &mut scratch);
            let mut back = vec![0.0f32; n];
            rfft.inverse_into(&spec, &mut back, &mut scratch);
            for (a, b) in back.iter().zip(x.iter()) {
                assert!((a - b).abs() < 1e-3, "n={n}");
            }
        }
    }

    #[test]
    fn shared_plan_cache_reuses_plans() {
        // Unusual size to keep this test's first lookup plausibly cold;
        // the assertions below are exact regardless thanks to the
        // thread-local counters and the grow-only cache.
        let a = RealFft::shared(4096);
        let before = crate::stats::thread_snapshot();
        let b = RealFft::shared(4096);
        let delta = crate::stats::thread_snapshot().since(&before);
        assert_eq!(delta.plans_created, 0, "second lookup must build nothing");
        assert_eq!(delta.plan_cache_hits, 1);
        assert!(Arc::ptr_eq(&a, &b), "both handles share one plan");
        assert_eq!(a.size(), 4096);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shared_rejects_non_power_of_two() {
        let _ = RealFft::shared(12);
    }

    /// Transforms `live` random signals (incl. exact `±0.0` samples) of
    /// length `n` through the `W`-lane kernels and asserts every live
    /// lane carries the scalar kernels' exact bits.
    fn assert_lanes_match_scalar<const W: usize>(n: usize, live: usize, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let rfft = RealFft::new(n);
        let bins = rfft.spectrum_len();
        let signals: Vec<Vec<f32>> = (0..live)
            .map(|_| {
                (0..n)
                    .map(|_| match rng.gen_range(0..8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-2.0f32..2.0),
                    })
                    .collect()
            })
            .collect();
        let mut time = vec![0.0f32; n * W];
        for (l, x) in signals.iter().enumerate() {
            for (s, &v) in x.iter().enumerate() {
                time[s * W + l] = v;
            }
        }
        let mut planes = vec![f32::NAN; bins * 2 * W];
        let before = crate::stats::thread_snapshot();
        rfft.forward_lanes::<W>(&mut time, &mut planes, live);
        let mut back = vec![f32::NAN; n * W];
        rfft.inverse_lanes::<W>(&planes, &mut back, live);
        let counted = crate::stats::thread_snapshot().since(&before);
        assert_eq!(counted.forward_transforms, live as u64);
        assert_eq!(counted.inverse_transforms, live as u64);

        let mut scratch = RealFftScratch::new();
        let mut spec = vec![Complex32::ZERO; bins];
        let mut scalar_back = vec![0.0f32; n];
        for (l, x) in signals.iter().enumerate() {
            rfft.forward_into(x, &mut spec, &mut scratch);
            for (k, bin) in spec.iter().enumerate() {
                let got = (planes[2 * k * W + l], planes[(2 * k + 1) * W + l]);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits()),
                    (bin.re.to_bits(), bin.im.to_bits()),
                    "forward W={W} n={n} lane {l} bin {k}: {got:?} vs {bin}"
                );
            }
            rfft.inverse_into(&spec, &mut scalar_back, &mut scratch);
            for (s, want) in scalar_back.iter().enumerate() {
                assert_eq!(
                    back[s * W + l].to_bits(),
                    want.to_bits(),
                    "inverse W={W} n={n} lane {l} sample {s}"
                );
            }
        }
    }

    #[test]
    fn codelet_constants_are_the_plan_twiddles() {
        // The pair-sharing rests on tw[N/2 − k] == −conj(tw[k]) bit for bit.
        let bits = |w: Complex32| (w.re.to_bits(), w.im.to_bits());
        let (c, s, h) = (COS_PI_8, SIN_PI_8, FRAC_1_SQRT_2);
        let want16 = [
            (c, -s),
            (h, -h),
            (s, -c),
            (0.0, -1.0),
            (-s, -c),
            (-h, -h),
            (-c, -s),
        ];
        let tw = &RealFft::new(16).twiddles;
        for (k, &(re, im)) in want16.iter().enumerate() {
            assert_eq!(
                bits(tw[k + 1]),
                bits(Complex32::new(re, im)),
                "N=16 k={}",
                k + 1
            );
        }
        let tw = &RealFft::new(8).twiddles;
        assert_eq!(bits(tw[1]), bits(Complex32::new(h, -h)));
        assert_eq!(bits(tw[3]), bits(Complex32::new(-h, -h)));
    }

    /// A sample for the codelet oracle: exact `±0.0` one time in four, else
    /// a random sign and mantissa at a magnitude between 2⁻²⁰ and 2²⁰.
    fn wide_sample(rng: &mut impl rand::Rng) -> f32 {
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0) * 2.0f32.powi(rng.gen_range(-20..=20)),
        }
    }

    /// `==` as floats, and the same bits once the sign of an exact zero is
    /// normalised the way `quantize_f32`'s closing `+ 0.0` does.
    fn assert_same_but_for_zero_sign(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(g == w, "{what} [{i}]: codelet {g:e} vs plan {w:e}");
            assert_eq!((g + 0.0).to_bits(), (w + 0.0).to_bits(), "{what} [{i}]");
        }
    }

    /// Runs the size-`n` codelets and the radix-2 plan over the same `W`
    /// lanes (`live` random, the rest zero padding) in both directions.
    fn assert_codelet_matches_plan<const W: usize>(n: usize, live: usize, seed: u64) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let rfft = RealFft::new(n);
        let bins = rfft.spectrum_len();
        let what = |dir: &str| format!("{dir} N={n} W={W} live={live}");
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    if i % W < live {
                        wide_sample(&mut rng)
                    } else {
                        0.0
                    }
                })
                .collect()
        };

        let time = fill(n * W);
        let mut got = vec![f32::NAN; bins * 2 * W];
        let mut want = got.clone();
        rfft.forward_codelet::<W>(&time, &mut got);
        rfft.plan_forward_lanes::<W>(&mut time.clone(), &mut want);
        assert_same_but_for_zero_sign(&got, &want, &what("forward"));
        for bin in [0, n / 2] {
            let im = &got[(2 * bin + 1) * W..][..W];
            assert!(
                im.iter().all(|v| v.to_bits() == 0),
                "forward N={n}: bin {bin} must carry +0.0 im planes"
            );
        }

        // The inverse on arbitrary planes (non-zero `im` in bins 0 and N/2
        // included) and on a real signal's spectrum.
        for spectrum in [fill(bins * 2 * W), got] {
            let mut got = vec![f32::NAN; n * W];
            let mut want = got.clone();
            rfft.inverse_codelet::<W>(&spectrum, &mut got);
            rfft.plan_inverse_lanes::<W>(&spectrum, &mut want);
            assert_same_but_for_zero_sign(&got, &want, &what("inverse"));
        }
    }

    proptest! {
        #[test]
        fn codelets_match_the_radix2_plan(
            log_n in 3u32..5,
            live in 1usize..33,
            seed in any::<u64>(),
        ) {
            let n = 1usize << log_n;
            assert_codelet_matches_plan::<32>(n, live, seed);
            assert_codelet_matches_plan::<16>(n, live.min(16), seed);
            assert_codelet_matches_plan::<8>(n, live.min(8), seed);
            assert_codelet_matches_plan::<4>(n, live.min(4), seed);
            assert_codelet_matches_plan::<1>(n, 1, seed);
            // Scalar entry points == lane entry points, on the codelet sizes.
            assert_lanes_match_scalar::<32>(n, live, seed);
            assert_lanes_match_scalar::<4>(n, live.min(4), seed);
        }

        #[test]
        fn lane_kernels_are_bit_identical_to_scalar_kernels(
            log_n in 0u32..7,
            live in 1usize..33,
            seed in any::<u64>(),
        ) {
            let n = 1usize << log_n;
            assert_lanes_match_scalar::<32>(n, live, seed);
            assert_lanes_match_scalar::<16>(n, live.min(16), seed);
            assert_lanes_match_scalar::<8>(n, live.min(8), seed);
            assert_lanes_match_scalar::<4>(n, live.min(4), seed);
        }

        #[test]
        fn roundtrip_recovers_signal(log_n in 0u32..9, seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let n = 1usize << log_n;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let rfft = RealFft::new(n);
            let spec = rfft.forward(&x);
            let back = rfft.inverse(&spec);
            for (a, b) in back.iter().zip(x.iter()) {
                prop_assert!((a - b).abs() < 1e-3);
            }
        }
    }
}
