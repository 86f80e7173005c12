//! Criterion benches for the FFT kernels underlying every E-RNN matvec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ernn_fft::{Complex32, FftPlan, RealFft, RealFftScratch};
use std::time::Duration;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_forward");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(800));
    for &n in &[8usize, 16, 64, 256, 512] {
        let plan = FftPlan::new(n);
        let input: Vec<Complex32> = (0..n)
            .map(|i| Complex32::new((i as f32 * 0.13).sin(), (i as f32 * 0.31).cos()))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut buf = input.clone();
                plan.forward(&mut buf);
                std::hint::black_box(buf)
            })
        });
    }
    group.finish();
}

fn bench_real_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_fft_vs_complex");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(800));
    let n = 512usize;
    let signal: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
    let rfft = RealFft::new(n);
    group.bench_function("real_packed_512", |b| {
        b.iter(|| std::hint::black_box(rfft.forward(&signal)))
    });
    let plan = FftPlan::new(n);
    group.bench_function("complex_zeroimag_512", |b| {
        b.iter(|| std::hint::black_box(plan.forward_real(&signal)))
    });
    group.finish();
}

/// 32 block-sized real transforms: one scalar call per signal against one
/// lane-batched call (what the block-circulant matvec issues), then the
/// lane-batched inverse of those spectra (its stage 3).
fn bench_lane_fft(c: &mut Criterion) {
    const W: usize = 32;
    let mut group = c.benchmark_group("real_fft_32_signals");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(800));
    for &n in &[8usize, 16] {
        let rfft = RealFft::new(n);
        let planes: Vec<f32> = (0..n * W).map(|i| (i as f32 * 0.37).sin()).collect();
        let signal = &planes[..n];
        let mut spectrum = vec![Complex32::ZERO; rfft.spectrum_len()];
        let mut scratch = RealFftScratch::new();
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..W {
                    rfft.forward_into(std::hint::black_box(signal), &mut spectrum, &mut scratch);
                }
            })
        });
        let mut time = planes.clone();
        let mut lanes = vec![0.0f32; rfft.spectrum_len() * 2 * W];
        group.bench_with_input(BenchmarkId::new("lanes", n), &n, |b, _| {
            b.iter(|| {
                time.copy_from_slice(&planes);
                rfft.forward_lanes::<W>(std::hint::black_box(&mut time), &mut lanes, W);
            })
        });
        group.bench_with_input(BenchmarkId::new("inverse_lanes", n), &n, |b, _| {
            b.iter(|| rfft.inverse_lanes::<W>(std::hint::black_box(&lanes), &mut time, W))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fft, bench_real_fft, bench_lane_fft);
criterion_main!(benches);
