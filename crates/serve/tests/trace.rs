//! Property tests for the observability layer (`ernn_serve::trace`):
//!
//! * **The event journal is bit-identical across executors** — over
//!   random loads, batch policies and ring capacities, a traced
//!   `SchedRuntime` run produces the same flight-recorder journal,
//!   stage attribution, and byte-for-byte Chrome trace rendering under
//!   `Inline` and `ThreadPool`, and tracing never perturbs the
//!   virtual-time responses or metrics.
//! * **Histogram quantiles respect the documented error bound** — over
//!   random sample sets, every `LatencyHistogram` quantile is at least
//!   the exact nearest-rank value and overestimates it by at most
//!   `RELATIVE_ERROR_BOUND` relative (plus 1 µs absolute for sub-µs
//!   samples), and never exceeds the observed maximum.
//! * **Merging histograms is lossless** — merging two independently
//!   recorded `LatencyHistogram`s is exact on count/sum/max and
//!   quantile-identical to recording the concatenated sample stream
//!   into one histogram, regardless of how the stream is split.

use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn_serve::sched::{AdmissionPolicy, ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::trace::{chrome_trace_json, LatencyHistogram, RunTrace, TraceConfig};
use ernn_serve::{CompiledModel, ExecutorKind, Request, RuntimeConfig};
use proptest::prelude::*;
use rand::SeedableRng;

const DIM: usize = 8;

fn compiled(seed: u64, hidden: usize) -> CompiledModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dense = ModelSpec::new(CellType::Gru, DIM, 5)
        .layer_dims(&[hidden])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));
    CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
}

fn registry() -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.register("gru-16", compiled(31, 16));
    reg.register("gru-32", compiled(32, 32));
    reg
}

fn load(n: usize, rate: f64, slo_us: f64, seed: u64) -> Vec<Request> {
    let utts = synthetic_utterances(6, (3, 12), DIM, seed);
    open_loop_poisson(&utts, n, rate, seed + 1)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let arrival = r.arrival_us;
            r.with_model(i % 2).with_deadline(arrival + slo_us)
        })
        .collect()
}

fn traced_run(kind: ExecutorKind, capacity: usize, reqs: Vec<Request>) -> (RunTrace, String) {
    let report = SchedRuntime::with_config(
        registry(),
        vec![XCKU060, ADM_PCIE_7V3],
        SchedPolicy::edf_cost_model(4, 100.0).with_admission(AdmissionPolicy::ShedPredictedLate),
        RuntimeConfig::new()
            .executor(kind)
            .tracing(TraceConfig::enabled(capacity)),
    )
    .run(reqs);
    let rendered = chrome_trace_json(&report.trace);
    (report.trace, rendered)
}

/// The exact nearest-rank quantile the histogram approximates.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn journal_is_bit_identical_across_executors(
        n in 8usize..40,
        rate_k in 50u64..400,
        slo_us in 100u64..5_000,
        cap_pow in 4u32..12,
    ) {
        let capacity = 1usize << cap_pow;
        let mk = || load(n, rate_k as f64 * 1_000.0, slo_us as f64, 41);
        let (inline_trace, inline_json) =
            traced_run(ExecutorKind::Inline, capacity, mk());
        let (pool_trace, pool_json) =
            traced_run(ExecutorKind::ThreadPool, capacity, mk());
        prop_assert_eq!(&inline_trace, &pool_trace);
        prop_assert_eq!(inline_json, pool_json);
        // The ring never exceeds its capacity and accounts for every
        // offered event as kept + dropped.
        let journal = &inline_trace.journal;
        prop_assert!(!journal.events.is_empty());
        prop_assert!(journal.events.len() <= capacity);
        prop_assert_eq!(journal.capacity, capacity);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn histogram_quantiles_match_nearest_rank_within_bound(
        // Milli-µs integers spanning sub-µs to multi-second latencies.
        samples_mus in proptest::collection::vec(1u64..10_000_000_000, 1..300),
        q_pct in 1u32..100,
    ) {
        let samples: Vec<f64> = samples_mus.iter().map(|&m| m as f64 / 1_000.0).collect();
        let mut hist = LatencyHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let q = q_pct as f64 / 100.0;
        let exact = nearest_rank(&sorted, q);
        let est = hist.quantile(q);
        prop_assert!(est >= exact, "q{q_pct}: {est} underestimates exact {exact}");
        prop_assert!(
            est <= exact * (1.0 + LatencyHistogram::RELATIVE_ERROR_BOUND) + 1.0,
            "q{q_pct}: {est} exceeds bound for exact {exact}"
        );
        prop_assert!(est <= *sorted.last().expect("non-empty"));
        // The exact moments are exact, not bucketed.
        let summary = hist.summary();
        prop_assert_eq!(summary.count, samples.len());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((summary.mean_us - mean).abs() <= mean.abs() * 1e-9 + 1e-9);
        prop_assert_eq!(summary.max_us, *sorted.last().expect("non-empty"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn histogram_merge_is_equivalent_to_one_stream(
        samples_mus in proptest::collection::vec(1u64..10_000_000_000, 2..300),
        split_ppm in 0u32..1_000_000,
        q_pct in 1u32..100,
    ) {
        // Split the stream at an arbitrary point; the two shards are
        // what per-worker recorders would hold before aggregation.
        let samples: Vec<f64> =
            samples_mus.iter().map(|&m| m as f64 / 1_000.0).collect();
        let split = (samples.len() * split_ppm as usize / 1_000_000)
            .clamp(0, samples.len());
        let (left, right) = samples.split_at(split);

        let mut merged = LatencyHistogram::new();
        for &s in left {
            merged.record(s);
        }
        let mut shard = LatencyHistogram::new();
        for &s in right {
            shard.record(s);
        }
        merged.merge(&shard);

        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record(s);
        }

        // Count, sum (hence mean), and max are exact: merge adds the
        // moments, it does not re-bucket them.
        let (m, w) = (merged.summary(), whole.summary());
        prop_assert_eq!(m.count, w.count);
        prop_assert_eq!(m.max_us, w.max_us);
        prop_assert!((m.mean_us - w.mean_us).abs() <= w.mean_us.abs() * 1e-9 + 1e-9);
        // Bucket counts add exactly, so every quantile — not just the
        // summary's fixed ones — is bit-identical to the single-stream
        // histogram.
        let q = q_pct as f64 / 100.0;
        prop_assert_eq!(merged.quantile(q), whole.quantile(q));
        prop_assert_eq!(m.p50_us, w.p50_us);
        prop_assert_eq!(m.p95_us, w.p95_us);
        prop_assert_eq!(m.p99_us, w.p99_us);
        prop_assert_eq!(m.p999_us, w.p999_us);
    }
}
