//! Criterion benches for the fixed-point quantizer and PWL activations
//! (the Phase-II datapath components).

use criterion::{criterion_group, criterion_main, Criterion};
use ernn_quant::{FixedFormat, PiecewiseLinear, Quantizer};
use std::time::Duration;

fn bench_quant(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantization");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(700));

    let data: Vec<f32> = (0..4096).map(|i| ((i as f32) * 0.001).sin()).collect();
    let q = Quantizer::new(FixedFormat::new(12, 10));
    group.bench_function("quantize_4096_12bit", |b| {
        b.iter(|| {
            let mut d = data.clone();
            std::hint::black_box(q.apply(&mut d))
        })
    });

    // The datapath's own forms: the paper's Q4.7 activation format over a
    // whole slice, and the same work one `quantize_f32` call at a time
    // with each result kept apart so the loop cannot vectorise.
    let fmt = FixedFormat::for_range(12, 8.0);
    group.bench_function("quantize_slice_4096_q4_7", |b| {
        b.iter(|| {
            let mut d = data.clone();
            fmt.quantize_slice(&mut d);
            std::hint::black_box(d)
        })
    });
    group.bench_function("quantize_f32_x4096_q4_7", |b| {
        b.iter(|| {
            for &x in &data {
                std::hint::black_box(fmt.quantize_f32(std::hint::black_box(x)));
            }
        })
    });

    let pwl = PiecewiseLinear::sigmoid(64);
    group.bench_function("pwl_sigmoid_eval_x4096", |b| {
        b.iter(|| {
            for &x in &data {
                std::hint::black_box(pwl.eval(std::hint::black_box(x)));
            }
        })
    });
    group.bench_function("pwl_sigmoid_4096", |b| {
        b.iter(|| {
            let mut d = data.clone();
            pwl.eval_slice(&mut d);
            std::hint::black_box(d)
        })
    });
    group.bench_function("exact_sigmoid_4096", |b| {
        b.iter(|| {
            let d: Vec<f32> = data.iter().map(|&x| 1.0 / (1.0 + (-x).exp())).collect();
            std::hint::black_box(d)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_quant);
criterion_main!(benches);
