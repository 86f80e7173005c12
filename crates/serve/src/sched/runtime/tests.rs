//! Event-loop tests, driven through the public entry points
//! ([`SchedRuntime::run`], [`SchedRuntime::run_closed_loop`]) and the
//! crate-internal stepped [`SchedEngine`].

use super::*;
use crate::loadgen::{open_loop_poisson, paced_session, synthetic_utterances};
use crate::sched::{CostModel, DeviceResidency};
use crate::{CompiledModel, ExecutorKind, Response, TraceConfig};
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::sim::simulate_batch;
use ernn_fpga::{StageCycles, ADM_PCIE_7V3, XCKU060};
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
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
    reg.register("gru-16", compiled(21, 16));
    reg.register("gru-32", compiled(22, 32));
    reg
}

/// Mixed-model open-loop load: request i targets model i % 2.
fn load(n: usize, rate: f64) -> Vec<Request> {
    let utts = synthetic_utterances(6, (10, 30), DIM, 33);
    open_loop_poisson(&utts, n, rate, 44)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.with_model(i % 2))
        .collect()
}

#[test]
fn mixed_model_load_completes_exactly_once() {
    use crate::trace::TraceEvent;
    let rt = SchedRuntime::with_config(
        registry(),
        vec![XCKU060, ADM_PCIE_7V3],
        SchedPolicy::edf_cost_model(4, 100.0),
        RuntimeConfig::new().tracing(TraceConfig::enabled(4096)),
    );
    let report = rt.run(load(48, 100_000.0));
    assert_eq!(report.responses.len(), 48);
    let mut ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..48).collect::<Vec<_>>());
    for r in &report.responses {
        assert!(!r.shed);
        assert!(!r.logits.is_empty());
        assert!(r.complete_us > r.arrival_us);
    }
    assert_eq!(report.sched.admitted, 48);
    assert_eq!(report.metrics.shed, 0);
    // Every admission decision is journaled, and all 48 admitted.
    let events = &report.trace.journal.events;
    let admits = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Admit { .. }));
    assert_eq!(admits.count(), 48);
    assert!(!events.iter().any(|e| matches!(e, TraceEvent::Shed { .. })));
    // Both models served, both counted in the per-model breakdown.
    assert_eq!(report.metrics.per_model.len(), 2);
    assert_eq!(report.metrics.per_model[&0].completed, 24);
    assert_eq!(report.metrics.per_model[&1].completed, 24);
}

#[test]
fn batches_never_mix_models() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(8, 400.0),
    );
    let report = rt.run(load(64, 400_000.0));
    // Group responses by (device, dispatch time): one dispatched
    // batch each. All members must share a model.
    use std::collections::BTreeMap;
    let mut batches: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for r in &report.responses {
        batches
            .entry((r.device.expect("served"), r.dispatch_us.to_bits()))
            .or_default()
            .push(r.model);
    }
    let mut saw_real_batch = false;
    for members in batches.values() {
        assert!(members.windows(2).all(|w| w[0] == w[1]), "{members:?}");
        saw_real_batch |= members.len() > 1;
    }
    assert!(saw_real_batch, "load must actually form multi-batches");
}

#[test]
fn scheduler_logits_match_direct_inference_per_model() {
    let reg = registry();
    let models = reg.models();
    let rt = SchedRuntime::new(
        reg,
        vec![XCKU060, ADM_PCIE_7V3],
        SchedPolicy::edf_cost_model(4, 100.0),
    );
    let requests = load(16, 50_000.0);
    let expected: Vec<Vec<Vec<f32>>> = requests
        .iter()
        .map(|r| models[r.model].infer(&r.frames))
        .collect();
    let report = rt.run(requests);
    for r in &report.responses {
        assert_eq!(r.logits, expected[r.id as usize], "request {}", r.id);
    }
}

#[test]
fn run_is_deterministic() {
    let make = || {
        SchedRuntime::new(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 50.0),
        )
    };
    let a = make().run(load(40, 200_000.0));
    let b = make().run(load(40, 200_000.0));
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.sched, b.sched);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn tracing_captures_the_request_lifecycle() {
    use crate::trace::{TraceConfig, TraceEvent};
    let rt = SchedRuntime::with_config(
        registry(),
        vec![XCKU060, ADM_PCIE_7V3],
        SchedPolicy::edf_cost_model(4, 100.0),
        RuntimeConfig::new().tracing(TraceConfig::enabled(4096)),
    );
    assert!(rt.config().trace.is_enabled());
    let report = rt.run(load(24, 100_000.0));
    let events = &report.trace.journal.events;
    assert_eq!(report.trace.journal.dropped, 0);
    let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    // Every request is admitted, enqueued, dequeued, and completed
    // exactly once.
    for (pred, label) in [
        (
            (|e| matches!(e, TraceEvent::Admit { .. })) as fn(&TraceEvent) -> bool,
            "admit",
        ),
        (|e| matches!(e, TraceEvent::Enqueue { .. }), "enqueue"),
        (|e| matches!(e, TraceEvent::Dequeue { .. }), "dequeue"),
        (|e| matches!(e, TraceEvent::Complete { .. }), "complete"),
    ] {
        assert_eq!(count(pred), 24, "{label} events");
    }
    // Each dispatched batch shows formation + placement, and each
    // cold model load appears with its stall in device cycles.
    let batches = count(|e| matches!(e, TraceEvent::BatchFormed { .. }));
    assert_eq!(count(|e| matches!(e, TraceEvent::Dispatch { .. })), batches);
    let loads: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ResidencyLoad { .. }))
        .collect();
    assert_eq!(loads.len() as u64, report.sched.model_loads);
    for e in loads {
        if let TraceEvent::ResidencyLoad {
            load_us,
            stall_cycles,
            ..
        } = e
        {
            assert!(*load_us > 0.0);
            assert!(*stall_cycles > 0);
        }
    }
    // Attribution covers every served request and its device time.
    let attributed_requests: u64 = report
        .trace
        .attribution
        .iter()
        .map(|(_, _, c)| c.requests)
        .sum();
    assert_eq!(attributed_requests, 24);
    let attributed_load: f64 = report
        .trace
        .attribution
        .iter()
        .map(|(_, _, c)| c.load_us)
        .sum();
    assert!((attributed_load - report.sched.load_us_total).abs() < 1e-9);
}

#[test]
fn timeline_tracks_queue_residency_and_counters() {
    use crate::health::HealthConfig;
    use crate::timeline::TimelineConfig;
    let run = |config: RuntimeConfig| {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 100.0),
            config,
        )
        .run(load(48, 100_000.0))
    };
    let captured = |exec: ExecutorKind| {
        RuntimeConfig::new()
            .executor(exec)
            .timeline(TimelineConfig::enabled(100.0, 4096))
            .health(HealthConfig::enabled())
    };
    let report = run(captured(ExecutorKind::Inline));
    // Samples and rule firings are virtual-time-derived: identical
    // across executors.
    let serial = run(captured(ExecutorKind::ThreadPool));
    assert_eq!(report.timeline, serial.timeline);
    assert_eq!(report.health, serial.health);
    // Disabled capture leaves both report fields empty.
    let off = run(RuntimeConfig::new());
    assert!(off.timeline.samples.is_empty());
    assert!(off.health.healthy());
    assert_eq!(off.health.samples_evaluated, 0);
    let tl = &report.timeline;
    assert!(!tl.samples.is_empty());
    assert_eq!(tl.dropped, 0);
    assert_eq!(tl.num_devices, 2);
    for w in tl.samples.windows(2) {
        assert!(w[1].t_us > w[0].t_us);
        assert!(w[1].completed >= w[0].completed);
        assert!(w[1].weight_loads >= w[0].weight_loads);
    }
    // The final (drain-time) sample closes the books: every request
    // accounted for, queue empty, both model images resident.
    let last = tl.samples.last().unwrap();
    assert_eq!(last.completed + last.shed, 48);
    assert_eq!(last.queue_depth, 0);
    assert_eq!(last.weight_loads, report.sched.model_loads);
    assert!(last.weights_bytes > 0, "weight images stay resident");
    // Mid-run samples show real utilization on at least one device.
    assert!(tl
        .samples
        .iter()
        .enumerate()
        .any(|(i, _)| tl.device_util_row(i).iter().any(|&u| u > 0.0)));
    // No deadlines, no faults: a healthy run.
    assert!(report.health.healthy(), "{:?}", report.health.events);
    assert_eq!(report.health.samples_evaluated, tl.samples.len() as u64);
}

#[test]
fn overload_fires_the_burn_rate_alert_and_journals_it() {
    use crate::health::{HealthConfig, HealthRuleKind};
    use crate::loadgen::with_uniform_slo;
    use crate::timeline::TimelineConfig;
    use crate::trace::{TraceConfig, TraceEvent};
    let make = || {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060],
            SchedPolicy::edf_cost_model(4, 100.0),
            RuntimeConfig::new()
                .tracing(TraceConfig::enabled(1 << 14))
                .timeline(TimelineConfig::enabled(50.0, 8192))
                .health(HealthConfig::enabled()),
        )
    };
    // 1 µs deadlines are unmeetable: every request burns the miss
    // budget, so both burn-rate windows saturate.
    let hot = make().run(with_uniform_slo(load(48, 200_000.0), 1.0));
    assert!(hot.health.count(HealthRuleKind::SloBurnRate) >= 1);
    let fired = hot
        .health
        .events
        .iter()
        .find(|e| e.rule == HealthRuleKind::SloBurnRate)
        .expect("burn-rate alert");
    assert!(fired.value >= fired.threshold);
    // Every health firing is journaled as a trace event too.
    let journaled = hot
        .trace
        .journal
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Health { .. }))
        .count();
    assert_eq!(hot.health.dropped, 0);
    assert_eq!(journaled, hot.health.events.len());
    // The same load without deadlines fires nothing.
    let calm = make().run(load(48, 200_000.0));
    assert!(calm.health.healthy(), "{:?}", calm.health.events);
}

#[test]
fn tracing_never_changes_virtual_time_results() {
    use crate::trace::TraceConfig;
    let make = |cfg: TraceConfig| {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 50.0).with_admission(AdmissionPolicy::ShedPredictedLate),
            RuntimeConfig::new().tracing(cfg),
        )
    };
    let slo = |reqs: Vec<Request>| -> Vec<Request> {
        reqs.into_iter()
            .map(|r| {
                let arrival = r.arrival_us;
                r.with_deadline(arrival + 300.0)
            })
            .collect()
    };
    let off = make(TraceConfig::disabled()).run(slo(load(32, 300_000.0)));
    let on = make(TraceConfig::enabled(64)).run(slo(load(32, 300_000.0)));
    assert_eq!(off.responses, on.responses);
    assert_eq!(off.metrics, on.metrics);
    assert_eq!(off.sched, on.sched);
    // Attribution is collected either way; only the journal differs.
    assert_eq!(off.trace.attribution, on.trace.attribution);
    assert!(off.trace.journal.events.is_empty());
    assert!(!on.trace.journal.events.is_empty());
    // The tiny capacity forced flight-recorder overwrite.
    assert!(on.trace.journal.dropped > 0);
    assert_eq!(on.trace.journal.events.len(), 64);
}

#[test]
fn residency_loads_are_counted_and_charged() {
    // Single device with a budget that holds exactly one model:
    // alternating models must thrash the weight cache.
    let reg = registry();
    let total_bytes: u64 = (0..reg.len()).map(|m| reg.weight_bytes(m)).sum();
    // 90% of the combined footprint: each model fits alone, both
    // together never do.
    let budget = (total_bytes as f64 * 0.9) as u64;
    let rt = SchedRuntime::new(
        reg,
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0).with_bram_budget_bytes(budget),
    );
    let report = rt.run(load(12, 50_000.0));
    assert_eq!(report.responses.len(), 12);
    assert!(
        report.sched.model_loads >= 4,
        "alternating models must reload: {:?}",
        report.sched
    );
    assert!(report.sched.model_evictions >= 3, "{:?}", report.sched);
    assert!(report.sched.load_us_total > 0.0);
    // With the full default budget both models stay resident: exactly
    // one load each, no evictions.
    let roomy = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let report = roomy.run(load(12, 50_000.0));
    assert_eq!(report.sched.model_loads, 2);
    assert_eq!(report.sched.model_evictions, 0);
}

#[test]
fn edf_serves_urgent_requests_first_under_backlog() {
    // All requests arrive at t=0 on one device. Under EDF the tight
    // deadlines run first regardless of submission order; under FIFO
    // they run last (they were submitted last) and miss.
    let utts = synthetic_utterances(1, (40, 40), DIM, 7);
    let mk_requests = || {
        let mut reqs = Vec::new();
        for i in 0..6u64 {
            // Submitted first: loose deadlines.
            reqs.push(Request::new(i, utts[0].clone(), 0.0).with_deadline(1e9));
        }
        for i in 6..12u64 {
            // Submitted last: deadlines only the head of the line can
            // make.
            reqs.push(Request::new(i, utts[0].clone(), 0.0).with_deadline(40.0));
        }
        reqs
    };
    let edf = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    )
    .run(mk_requests());
    let fifo = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::fifo_earliest_free(1, 0.0),
    )
    .run(mk_requests());
    assert!(
        edf.metrics.deadline_miss_rate < fifo.metrics.deadline_miss_rate,
        "EDF {} vs FIFO {}",
        edf.metrics.deadline_miss_rate,
        fifo.metrics.deadline_miss_rate
    );
}

#[test]
fn closed_loop_respects_budget_and_mints_on_completion() {
    let utts = synthetic_utterances(4, (3, 6), DIM, 11);
    let payloads: Vec<(ModelId, Vec<Vec<f32>>)> = utts
        .into_iter()
        .enumerate()
        .map(|(i, u)| (i % 2, u))
        .collect();
    let run = |exec: ExecutorKind| {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 30.0),
            RuntimeConfig::new().executor(exec),
        )
        .run_closed_loop(&payloads, 3, 30, None)
    };
    let report = run(ExecutorKind::Inline);
    assert_eq!(report.responses.len(), 30);
    for r in &report.responses {
        assert!(r.batch_size <= 3, "concurrency bounds in-flight work");
    }
    // Every replacement arrives exactly at some earlier completion.
    let completions: Vec<f64> = report.responses.iter().map(|r| r.complete_us).collect();
    for r in report.responses.iter().filter(|r| r.id >= 3) {
        assert!(
            completions.contains(&r.arrival_us),
            "arrival {} matches no completion",
            r.arrival_us
        );
    }
    // Completion feedback lives on the virtual clock, so the closed
    // loop is as executor-independent as an open one.
    let serial = run(ExecutorKind::ThreadPool);
    assert_eq!(report.responses, serial.responses);
    assert_eq!(report.metrics, serial.metrics);
}

// ----- one model, FIFO + earliest-free: plain dynamic batching -----

fn fifo(devices: usize, max_batch: usize, max_wait_us: f64) -> SchedRuntime {
    let mut reg = ModelRegistry::new();
    reg.register("gru-16", compiled(21, 16));
    SchedRuntime::new(
        reg,
        vec![XCKU060; devices],
        SchedPolicy::fifo_earliest_free(max_batch, max_wait_us),
    )
}

/// Utterances long enough that service time (≈ frames × II) dominates
/// the µs-scale arrival gaps used by the pressure tests.
fn long_utterances() -> Vec<Vec<Vec<f32>>> {
    synthetic_utterances(6, (40, 80), DIM, 33)
}

#[test]
fn batching_engages_under_pressure() {
    // Offered load far above single-device capacity forces full
    // batches once the queue builds.
    let report = fifo(1, 8, 200.0).run(open_loop_poisson(&long_utterances(), 96, 500_000.0, 44));
    assert!(
        report.metrics.mean_batch_size > 2.0,
        "mean batch {} under heavy load",
        report.metrics.mean_batch_size
    );
    assert!(report.metrics.batch_histogram.contains_key(&8));
}

#[test]
fn max_wait_bounds_queue_time_under_light_load() {
    // One request every millisecond (deterministic spacing far above
    // the wait budget): every batch is a flushed singleton and
    // queueing stays within the 50 µs budget.
    let utts = long_utterances();
    let reqs: Vec<Request> = (0..20)
        .map(|i| Request::new(i, utts[i as usize % utts.len()].clone(), i as f64 * 1000.0))
        .collect();
    let report = fifo(1, 8, 50.0).run(reqs);
    for r in &report.responses {
        assert!(r.queue_us() <= 50.0 + 1e-9, "queue {}", r.queue_us());
        assert_eq!(r.batch_size, 1);
    }
}

#[test]
fn more_devices_never_slow_the_drain() {
    let reqs = open_loop_poisson(&long_utterances(), 80, 400_000.0, 44);
    let one = fifo(1, 4, 100.0).run(reqs.clone());
    let two = fifo(2, 4, 100.0).run(reqs.clone());
    let four = fifo(4, 4, 100.0).run(reqs);
    assert!(two.metrics.makespan_us < one.metrics.makespan_us);
    assert!(four.metrics.makespan_us <= two.metrics.makespan_us);
}

#[test]
fn earliest_free_placement_breaks_ties_to_the_lowest_index() {
    // Three singleton batches at t = 0 on two idle devices: the tie
    // goes to device 0, the second batch to the still-idle device 1,
    // and the third to whichever frees first — device 1, whose
    // batch was short.
    let frames = |n: usize| vec![vec![0.1f32; DIM]; n];
    let report = fifo(2, 1, 0.0).run(vec![
        Request::new(0, frames(40), 0.0),
        Request::new(1, frames(2), 0.0),
        Request::new(2, frames(2), 0.0),
    ]);
    let mut by_id: Vec<&Response> = report.responses.iter().collect();
    by_id.sort_by_key(|r| r.id);
    let devices: Vec<Option<usize>> = by_id.iter().map(|r| r.device).collect();
    assert_eq!(devices, vec![Some(0), Some(1), Some(1)]);
}

#[test]
fn occupancy_horizon_starts_at_first_arrival() {
    // All arrivals late on the virtual clock: occupancy must be
    // measured from the first arrival, not from t = 0.
    let utts = long_utterances();
    let reqs: Vec<Request> = (0..32)
        .map(|i| {
            Request::new(
                i,
                utts[i as usize % utts.len()].clone(),
                1_000_000.0 + i as f64,
            )
        })
        .collect();
    let report = fifo(1, 8, 50.0).run(reqs);
    assert!(
        report.metrics.device_occupancy[0] > 0.5,
        "late-start load must still show real occupancy: {:?}",
        report.metrics.device_occupancy
    );
}

#[test]
#[should_panic(expected = "has no frames")]
fn closed_loop_validates_all_payloads_up_front() {
    // The second payload is only reachable via a mid-run
    // replacement request; admission must still reject it.
    let good = vec![vec![0.0f32; DIM]; 3];
    let _ = fifo(1, 1, 0.0).run_closed_loop(&[(0, good), (0, Vec::new())], 1, 10, None);
}

/// Splits one utterance into `chunk_frames`-sized session chunks with
/// ids starting at `base_id`, arriving every `gap_us` from `t0_us`.
fn chunked(
    session: u64,
    base_id: u64,
    utt: &[Vec<f32>],
    chunk_frames: usize,
    t0_us: f64,
    gap_us: f64,
) -> Vec<Request> {
    paced_session(utt, session, base_id, t0_us, gap_us, chunk_frames, None).collect()
}

#[test]
fn streaming_sessions_pin_one_device_and_match_whole_utterances() {
    let reg = registry();
    let models = reg.models();
    let utts = synthetic_utterances(3, (12, 20), DIM, 55);
    let mut requests = Vec::new();
    let mut next_id = 0u64;
    for (s, utt) in utts.iter().enumerate() {
        let chunks = chunked(s as u64, next_id, utt, 5, s as f64 * 40.0, 300.0);
        next_id += chunks.len() as u64;
        requests.extend(chunks);
    }
    let run = |exec: ExecutorKind| {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 50.0),
            RuntimeConfig::new()
                .executor(exec)
                .tracing(TraceConfig::enabled(4096)),
        )
        .run(requests.clone())
    };
    let inline = run(ExecutorKind::Inline);
    let serial = run(ExecutorKind::ThreadPool);
    // Virtual-time results and the trace journal are bit-identical
    // across executors, streaming state included.
    assert_eq!(inline.responses, serial.responses);
    assert_eq!(inline.metrics, serial.metrics);
    assert_eq!(inline.sched, serial.sched);
    assert_eq!(inline.trace, serial.trace);
    // Every chunk of a session ran on that session's one device, and
    // stitching the per-chunk logits reproduces the whole-utterance
    // inference bit-exactly.
    for (s, utt) in utts.iter().enumerate() {
        let mut on: Vec<&Response> = inline
            .responses
            .iter()
            .filter(|r| r.workload.session() == Some(s as u64))
            .collect();
        on.sort_by_key(|r| r.id);
        let device = on[0].device.expect("served");
        assert!(on.iter().all(|r| r.device == Some(device)), "session {s}");
        let stitched: Vec<Vec<f32>> = on.iter().flat_map(|r| r.logits.iter().cloned()).collect();
        assert_eq!(stitched, models[0].infer(utt), "session {s}");
    }
    assert_eq!(inline.metrics.sessions, 3);
}

#[test]
fn live_session_cap_sheds_excess_sessions_whole() {
    let utts = synthetic_utterances(2, (12, 12), DIM, 77);
    let mut requests = chunked(0, 0, &utts[0], 4, 0.0, 500.0);
    // Session 1 starts while session 0 is still live.
    requests.extend(chunked(1, 100, &utts[1], 4, 10.0, 500.0));
    let rt = SchedRuntime::with_config(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(2, 50.0),
        RuntimeConfig::new()
            .max_live_sessions(1)
            .tracing(TraceConfig::enabled(4096)),
    );
    assert_eq!(rt.config().max_live_sessions, Some(1));
    let report = rt.run(requests);
    // Session 0 is served completely; session 1 is shed whole — its
    // first chunk hit the cap and cancellation covers the rest.
    for r in &report.responses {
        match r.workload.session() {
            Some(0) => assert!(!r.shed, "chunk {} of session 0", r.id),
            Some(1) => {
                assert!(r.shed, "chunk {} of session 1", r.id);
                assert_eq!(r.device, None);
            }
            _ => unreachable!("only chunks in this load"),
        }
    }
    assert_eq!(report.metrics.shed, 3);
    // Shed chunks are journaled as rejected admissions.
    let rejected = report
        .trace
        .journal
        .events
        .iter()
        .filter(|e| matches!(e, crate::trace::TraceEvent::Shed { .. }))
        .count();
    assert_eq!(rejected, 3);
}

#[test]
fn evicted_session_state_is_reloaded_charged_and_traced() {
    // One device whose budget holds the bigger weight image but not
    // the session's state alongside it: dispatching the other model
    // evicts the session's state image, forcing charged reloads.
    // (The session's own batches pin their state image, so only a
    // foreign batch can evict it.)
    let reg = registry();
    let budget = reg.weight_bytes(1) + reg.model(0).state_bytes() - 1;
    let rt = SchedRuntime::with_config(
        reg,
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0).with_bram_budget_bytes(budget),
        RuntimeConfig::new().tracing(TraceConfig::enabled(4096)),
    );
    let utts = synthetic_utterances(2, (12, 12), DIM, 88);
    let mut requests = chunked(9, 0, &utts[0], 3, 0.0, 1000.0);
    for i in 0..3u64 {
        requests
            .push(Request::new(50 + i, utts[1].clone(), 500.0 + 1000.0 * i as f64).with_model(1));
    }
    let report = rt.run(requests);
    assert!(report.responses.iter().all(|r| !r.shed));
    assert!(
        report.sched.state_loads >= 1,
        "interleaved models must thrash session state: {:?}",
        report.sched
    );
    assert!(report.sched.state_evictions >= 1, "{:?}", report.sched);
    assert!(report.sched.state_load_us_total > 0.0);
    // Each charged reload appears in the journal with its stall.
    let loads: Vec<_> = report
        .trace
        .journal
        .events
        .iter()
        .filter_map(|e| match e {
            crate::trace::TraceEvent::SessionStateLoad {
                session,
                load_us,
                stall_cycles,
                ..
            } => Some((*session, *load_us, *stall_cycles)),
            _ => None,
        })
        .collect();
    assert_eq!(loads.len() as u64, report.sched.state_loads);
    for (session, load_us, stall_cycles) in loads {
        assert_eq!(session, 9);
        assert!(load_us > 0.0);
        assert!(stall_cycles > 0);
    }
    // The stalls land in the attribution's state lane.
    let attributed_state: f64 = report
        .trace
        .attribution
        .iter()
        .map(|(_, _, c)| c.state_us)
        .sum();
    assert!((attributed_state - report.sched.state_load_us_total).abs() < 1e-9);
}

#[test]
fn shedding_one_chunk_cancels_the_rest_of_its_session() {
    // All chunks share one absolute deadline (non-decreasing, as
    // validation requires), sized to fit the cold load plus about two
    // chunks of service. The first chunk makes it; a later chunk
    // predicts late under ShedPredictedLate, and from that point the
    // whole session sheds — served prefixes never interleave with
    // holes.
    let reg = registry();
    let cost = CostModel::build(&[XCKU060], &reg);
    let est = cost.estimate_frames_us(0, 0, 3);
    let deadline = DeviceResidency::load_us(reg.weight_bytes(0)) + 2.5 * est;
    let utts = synthetic_utterances(1, (30, 30), DIM, 99);
    let requests: Vec<Request> = chunked(4, 0, &utts[0], 3, 0.0, 1.0)
        .into_iter()
        .map(|r| r.with_deadline(deadline))
        .collect();
    let rt = SchedRuntime::new(
        reg,
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0).with_admission(AdmissionPolicy::ShedPredictedLate),
    );
    let report = rt.run(requests);
    let mut by_id: Vec<&Response> = report.responses.iter().collect();
    by_id.sort_by_key(|r| r.id);
    let first_shed = by_id.iter().position(|r| r.shed);
    let first_shed = first_shed.expect("the 30-frame session must overrun a 120 µs deadline");
    assert!(first_shed > 0, "the first chunk fits its deadline");
    assert!(
        by_id[first_shed..].iter().all(|r| r.shed),
        "cancellation sheds every chunk after the first shed one"
    );
}

#[test]
#[should_panic(expected = "unregistered model")]
fn rejects_unknown_model_ids() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let _ = rt.run(vec![
        Request::new(0, vec![vec![0.0; DIM]], 0.0).with_model(7)
    ]);
}

#[test]
#[should_panic(expected = "frame dimension")]
fn rejects_wrong_dimension_for_target_model() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let _ = rt.run(vec![Request::new(0, vec![vec![0.0; 3]], 0.0)]);
}

/// The issue-16 regression: `[0.0, NaN, −5.0]` used to come back as
/// two responses for three requests — `total_cmp` sorts the NaN
/// arrival last in the heap and no horizon ever reaches it.
#[test]
#[should_panic(expected = "request 1: arrival_us must be finite")]
fn rejects_a_nan_arrival_instead_of_losing_the_request() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let frames = || vec![vec![0.0; DIM]];
    let _ = rt.run(vec![
        Request::new(0, frames(), 0.0),
        Request::new(1, frames(), f64::NAN),
        Request::new(2, frames(), -5.0),
    ]);
}

#[test]
#[should_panic(expected = "request 4: arrival_us must be finite")]
fn stepped_offers_reject_infinite_arrivals() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    SchedEngine::new(&rt, &Lane::serial()).offer(Request::new(
        4,
        vec![vec![0.0; DIM]],
        f64::INFINITY,
    ));
}

/// Two requests sharing an id would share one retry record: the first
/// to commit would erase the other's attempt count. The cluster already
/// rejects such a load; the scheduler rejects it with the same message.
#[test]
#[should_panic(expected = "duplicate request id 3")]
fn duplicate_request_ids_are_rejected() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let frames = || vec![vec![0.0; DIM]];
    let _ = rt.run(vec![
        Request::new(3, frames(), 0.0),
        Request::new(7, frames(), 1.0),
        Request::new(3, frames(), 2.0),
    ]);
}

#[test]
#[should_panic(expected = "request 0: deadline_us must not be NaN")]
fn closed_loop_rejects_a_nan_deadline_up_front() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let payloads = vec![(0, vec![vec![0.0; DIM]])];
    let _ = rt.run_closed_loop(&payloads, 1, 2, Some(f64::NAN));
}

fn slow_stages() -> StageCycles {
    StageCycles {
        stage1: 100,
        stage2: 60,
        stage3: 80,
    }
}

fn fast_stages() -> StageCycles {
    StageCycles {
        stage1: 50,
        stage2: 30,
        stage3: 40,
    }
}

/// Books a batch of `frame_counts` on `device`'s clock the way
/// `dispatch` does once the fault scan passes: occupancy starts at
/// `max(dispatch_us, free_at)`, and the batch time is the closed form of
/// the total frames.
fn book(
    engine: &mut SchedEngine<'_, '_>,
    device: usize,
    dispatch_us: f64,
    setup_us: f64,
    stages: StageCycles,
    frame_counts: &[u64],
) {
    let start_us = dispatch_us.max(engine.free_at_us[device]);
    engine.frame_counts.clear();
    engine.frame_counts.extend_from_slice(frame_counts);
    let batch_us = CostModel::stream_us(stages, frame_counts.iter().sum());
    engine.commit_clock(device, start_us, setup_us, stages, batch_us);
}

/// `(complete_us, free_us, busy_us)` of one batch as the event
/// simulation times it, frame by frame, on a clock that stood at
/// `(free_at_us, busy_us)`.
fn simulated(
    (free_at_us, busy_us): (f64, f64),
    dispatch_us: f64,
    setup_us: f64,
    stages: StageCycles,
    frame_counts: &[u64],
) -> (Vec<f64>, f64, f64) {
    let compute_start_us = dispatch_us.max(free_at_us) + setup_us;
    let trace = simulate_batch(stages, frame_counts);
    let period_us = Device::clock_period_us();
    let complete_us = trace.completion_cycles.iter();
    let complete_us = complete_us.map(|&c| compute_start_us + c as f64 * period_us);
    let makespan_us = trace.makespan_cycles as f64 * period_us;
    let free_us = compute_start_us + makespan_us;
    (
        complete_us.collect(),
        free_us,
        busy_us + (setup_us + makespan_us),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn closed_form_clock_is_the_event_sim_to_the_bit(
        s1 in 1u64..300,
        s2 in 1u64..300,
        s3 in 1u64..300,
        brownout in 1.0f64..3.0,
        browned in any::<bool>(),
        counts in proptest::collection::vec(1u64..40, 1..7),
        dispatch in proptest::collection::vec(0.0f64..200.0, 3),
        setup in proptest::collection::vec(0.0f64..50.0, 3),
        cold in any::<bool>(),
    ) {
        let base = StageCycles { stage1: s1, stage2: s2, stage3: s3 };
        let stages = if browned { base.scaled(brownout) } else { base };
        let rt = SchedRuntime::new(registry(), vec![XCKU060], SchedPolicy::edf_cost_model(1, 0.0));
        let mut engine = SchedEngine::new(&rt, &Lane::serial());
        // Three batches back to back, so later ones queue behind the
        // clock the earlier ones left.
        for (i, (&at, &stall)) in dispatch.iter().zip(&setup).enumerate() {
            let stall = if cold { stall } else { 0.0 };
            let counts = &counts[..counts.len() - i.min(counts.len() - 1)];
            let before = (engine.free_at_us[0], engine.busy_us[0]);
            let (complete, free, busy) = simulated(before, at, stall, stages, counts);
            book(&mut engine, 0, at, stall, stages, counts);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&engine.complete_us), bits(&complete));
            prop_assert_eq!(engine.free_at_us[0].to_bits(), free.to_bits());
            prop_assert_eq!(engine.busy_us[0].to_bits(), busy.to_bits());
        }
    }
}

#[test]
fn device_clock_charges_setup_before_compute() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060, XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let mut engine = SchedEngine::new(&rt, &Lane::serial());
    // Device 0 stalls 7.5 µs for a load first; device 1 starts warm.
    book(&mut engine, 0, 0.0, 7.5, slow_stages(), &[2, 3]);
    let cold = engine.complete_us.clone();
    book(&mut engine, 1, 0.0, 0.0, slow_stages(), &[2, 3]);
    let warm = engine.complete_us.clone();
    // Completions and the free time shift by the setup...
    for (c, w) in cold.iter().zip(&warm) {
        assert!((c - w - 7.5).abs() < 1e-9);
    }
    assert!((engine.free_at_us[0] - engine.free_at_us[1] - 7.5).abs() < 1e-9);
    // ...and busy time includes the stall.
    assert!((engine.busy_us[0] - engine.busy_us[1] - 7.5).abs() < 1e-9);
}

#[test]
fn a_batch_waits_for_its_device_to_free_up() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::fifo_earliest_free(1, 0.0),
    );
    let frames = || vec![vec![0.1; DIM]; 4];
    let report = rt.run(vec![
        Request::new(0, frames(), 0.0),
        Request::new(1, frames(), 0.0),
    ]);
    let (first, second) = (&report.responses[0], &report.responses[1]);
    assert_eq!((first.id, second.id), (0, 1));
    // The second batch is formed at t = 0 but starts the instant the
    // first one's last frame leaves the pipeline.
    assert!(first.complete_us > 0.0);
    assert_eq!(second.dispatch_us, first.complete_us);
}

#[test]
fn each_device_clock_keeps_its_own_timing() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060, ADM_PCIE_7V3, XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let mut engine = SchedEngine::new(&rt, &Lane::serial());
    // Same batch, per-platform timing: the fast device finishes in half
    // the cycles.
    book(&mut engine, 0, 0.0, 0.0, slow_stages(), &[4]);
    book(&mut engine, 1, 0.0, 0.0, fast_stages(), &[4]);
    assert!((engine.free_at_us[0] - 2.0 * engine.free_at_us[1]).abs() < 1e-9);
}

#[test]
fn busy_time_tracks_only_the_work_a_device_ran() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060, XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let mut engine = SchedEngine::new(&rt, &Lane::serial());
    book(&mut engine, 0, 0.0, 0.0, slow_stages(), &[3]);
    // A device busy from t = 0 was busy until it freed; one nobody used
    // stays idle.
    assert!((engine.busy_us[0] - engine.free_at_us[0]).abs() < 1e-9);
    assert!(engine.busy_us[0] > 0.0);
    assert_eq!((engine.free_at_us[1], engine.busy_us[1]), (0.0, 0.0));
}

#[test]
fn two_device_clocks_drain_sooner_than_one() {
    let one_rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let two_rt = SchedRuntime::new(
        registry(),
        vec![XCKU060, XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let (mut one, mut two) = (
        SchedEngine::new(&one_rt, &Lane::serial()),
        SchedEngine::new(&two_rt, &Lane::serial()),
    );
    for i in 0..8 {
        book(&mut one, 0, 0.0, 0.0, slow_stages(), &[5]);
        book(&mut two, i % 2, 0.0, 0.0, slow_stages(), &[5]);
    }
    let drained = |e: &SchedEngine<'_, '_>| e.free_at_us.iter().copied().fold(0.0, f64::max);
    assert!(drained(&two) < drained(&one));
}

#[test]
fn one_device_clock_times_each_batch_with_its_own_stages() {
    let rt = SchedRuntime::new(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
    );
    let mut engine = SchedEngine::new(&rt, &Lane::serial());
    // One device, two "models": the batch booked with the slow model's
    // stages occupies the device longer than the fast model's did.
    book(&mut engine, 0, 0.0, 0.0, fast_stages(), &[4]);
    let fast_us = engine.free_at_us[0];
    book(&mut engine, 0, fast_us, 0.0, slow_stages(), &[4]);
    let slow_us = engine.free_at_us[0] - fast_us;
    assert!(slow_us > fast_us);
}

/// Everything a `run_until` may touch, bit-exact.
fn engine_fingerprint(e: &SchedEngine<'_, '_>) -> impl PartialEq + std::fmt::Debug {
    let s = e;
    (
        (s.responses.clone(), s.stats.clone()),
        (s.now_us.to_bits(), s.admit_seq, s.live_sessions),
        (s.queue.len(), s.queue.backlog_us().to_bits()),
        s.arrivals.len(),
        s.free_at_us
            .iter()
            .zip(&s.busy_us)
            .map(|(free, busy)| (free.to_bits(), busy.to_bits()))
            .collect::<Vec<_>>(),
        (e.ewma_queue_us().to_bits(), e.resident_bytes()),
    )
}

/// The invariant the cluster router's wake index rests on: stepping
/// an engine to any horizon short of `next_event_us()` changes
/// nothing — and the bound is tight, stepping *to* it does.
#[test]
fn run_until_short_of_the_next_event_mutates_nothing() {
    let mut state = 0x5EED_0016_u64;
    let mut rand = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let utts = synthetic_utterances(8, (2, 9), DIM, 77);
    for case in 0..24 {
        let max_batch = 1 + (rand() % 4) as usize;
        let max_wait_us = (rand() % 4) as f64 * 60.0;
        let policy = if case % 2 == 0 {
            SchedPolicy::edf_cost_model(max_batch, max_wait_us)
        } else {
            SchedPolicy::fifo_earliest_free(max_batch, max_wait_us)
        };
        let rt = SchedRuntime::new(registry(), vec![XCKU060, ADM_PCIE_7V3], policy);
        let mut engine = SchedEngine::new(&rt, &Lane::serial());
        let (mut t, mut next_id, mut probes, mut wakes) = (0.0f64, 0u64, 0, 0);
        // One streaming session open at a time: (id, next chunk
        // index, last chunk's arrival — a session's arrivals must
        // strictly increase).
        let mut open_session: Option<(u64, u32, f64)> = None;
        for step in 0..120 {
            // Offer a burst (sometimes empty, sometimes in the past,
            // sometimes simultaneous), mixing in the session.
            for _ in 0..rand() % 3 {
                let arrival = t + (rand() % 5) as f64 * 17.0 - 20.0;
                let utt = utts[(rand() % 8) as usize].clone();
                let r = match open_session {
                    Some((session, index, prev)) if rand() % 3 == 0 => {
                        let (last, arrival) = (index == 5, arrival.max(prev + 1.0));
                        open_session = (!last).then_some((session, index + 1, arrival));
                        Request::chunk(next_id, session, index, last, utt, arrival)
                    }
                    None if rand() % 4 == 0 => {
                        open_session = Some((step, 1, arrival));
                        Request::chunk(next_id, step, 0, false, utt, arrival)
                    }
                    _ => Request::new(next_id, utt, arrival)
                        .with_model((rand() % 2) as usize)
                        .with_deadline(arrival + (rand() % 900) as f64),
                };
                next_id += 1;
                engine.offer(r);
            }
            let next = engine.next_event_us();
            if next > t {
                // Any horizon in [t, next): the far end, when finite.
                let short = if next.is_finite() {
                    t + (next - t) * 0.999
                } else {
                    t + 1e9
                };
                let before = engine_fingerprint(&engine);
                engine.run_until(short);
                assert_eq!(
                    before,
                    engine_fingerprint(&engine),
                    "case {case} step {step}: run_until({short}) ran an event \
                     before next_event_us() = {next}"
                );
                assert_eq!(engine.next_event_us().to_bits(), next.to_bits());
                probes += 1;
            }
            if next.is_finite() {
                let before = engine_fingerprint(&engine);
                engine.run_until(next);
                assert_ne!(
                    before,
                    engine_fingerprint(&engine),
                    "case {case} step {step}: nothing was due at next_event_us() = {next}"
                );
                wakes += 1;
            }
            t = t.max(next.min(t + 200.0)) + (rand() % 3) as f64 * 11.0;
            engine.run_until(t);
            assert!(engine.next_event_us() > t);
        }
        assert!(probes > 20 && wakes > 20, "case {case}: {probes} / {wakes}");
        // Drain: the sessions left open never finish, which is fine —
        // the engine is stepped, not validated as a whole load.
        engine.run_until(f64::INFINITY);
        assert_eq!(engine.next_event_us(), f64::INFINITY);
        assert_eq!(engine.finish().responses.len() as u64, next_id);
    }
}

// ----- fault injection, failover, and migration -----

use crate::config::backoff_us;
use crate::request::ShedReason;
use ernn_fpga::{DeviceFault, FaultEvent, FaultPlan};

/// A timeline config for the faulted tests.
fn sampled() -> crate::TimelineConfig {
    crate::TimelineConfig::enabled(40.0, 1024)
}

/// After any run with the timeline on, the engine's live counters — what
/// the timeline samples and the SLO burn-rate rule read — agree with the
/// responses it returned; sheds count as deadline misses whether they
/// happen at admission or at dispatch. (Dispatch-time sheds used to be a
/// second copy of the shed sequence that forgot the counter: the burn
/// rate under-counted exactly when devices died.)
fn assert_final_sample_matches_responses(report: &SchedReport) {
    let last = report
        .timeline
        .samples
        .last()
        .expect("the timeline is on, so the run has a final sample");
    let count = |pick: fn(&Response) -> bool| report.responses.iter().filter(|r| pick(r)).count();
    assert_eq!(last.completed as usize, count(|r| !r.shed));
    assert_eq!(last.shed as usize, count(|r| r.shed));
    assert_eq!(
        last.deadline_misses as usize,
        count(|r| r.deadline_tracked && !r.deadline_met)
    );
}

#[test]
fn a_run_ending_on_a_grid_point_closes_with_a_fresh_sample() {
    use crate::health::{HealthConfig, HealthRuleKind};
    use crate::timeline::TimelineConfig;
    // The grid sample at 100 µs is taken as the clock reaches the
    // arrival, before admission sheds it; the closing sample at the same
    // instant must read the shed, and the burn-rate rule must see it.
    let rt = SchedRuntime::with_config(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0).with_admission(AdmissionPolicy::ShedPredictedLate),
        RuntimeConfig::new()
            .timeline(TimelineConfig::enabled(100.0, 64))
            .health(HealthConfig::enabled()),
    );
    let utts = synthetic_utterances(1, (10, 10), DIM, 5);
    let report = rt.run(vec![
        Request::new(0, utts[0].clone(), 100.0).with_deadline(100.0)
    ]);
    assert!(report.responses[0].shed);
    let times: Vec<f64> = report.timeline.samples.iter().map(|s| s.t_us).collect();
    assert_eq!(times, [100.0, 100.0]);
    assert_eq!(report.timeline.samples[0].shed, 0);
    assert_final_sample_matches_responses(&report);
    let rules: Vec<_> = report.health.events.iter().map(|e| e.rule).collect();
    assert_eq!(rules, [HealthRuleKind::SloBurnRate]);
}

#[test]
fn try_with_config_reports_typed_errors() {
    let policy = || SchedPolicy::edf_cost_model(1, 0.0);
    let err = SchedRuntime::try_with_config(
        ModelRegistry::new(),
        vec![XCKU060],
        policy(),
        RuntimeConfig::new(),
    )
    .unwrap_err();
    assert_eq!(err, SchedConfigError::EmptyRegistry);
    assert_eq!(err.to_string(), "registry needs at least one model");

    let err = SchedRuntime::try_with_config(registry(), Vec::new(), policy(), RuntimeConfig::new())
        .unwrap_err();
    assert_eq!(err, SchedConfigError::NoDevices);

    let err = SchedRuntime::try_with_config(
        registry(),
        vec![XCKU060],
        policy().with_bram_budget_bytes(1),
        RuntimeConfig::new(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        SchedConfigError::ModelFitsNoDevice { model: 0, .. }
    ));
    assert!(err.to_string().contains("fits no device's BRAM budget"));

    let plan = FaultPlan::new(vec![FaultEvent {
        t_us: 10.0,
        device: 3,
        fault: DeviceFault::Transient,
    }]);
    let err = SchedRuntime::try_with_config(
        registry(),
        vec![XCKU060],
        policy(),
        RuntimeConfig::new().fault_plan(plan),
    )
    .unwrap_err();
    assert_eq!(
        err,
        SchedConfigError::FaultDeviceOutOfRange {
            device: 3,
            devices: 1
        }
    );
}

#[test]
fn zero_session_limit_is_rejected() {
    let err = SchedRuntime::try_with_config(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
        RuntimeConfig::new().max_live_sessions(0),
    )
    .unwrap_err();
    assert_eq!(err, SchedConfigError::ZeroSessionLimit);
    assert_eq!(err.to_string(), "session limit must be at least 1");
}

#[test]
fn transient_fault_aborts_the_batch_and_retries_serve_everything() {
    use crate::trace::TraceEvent;
    let plan = FaultPlan::new(vec![FaultEvent {
        t_us: 0.5,
        device: 0,
        fault: DeviceFault::Transient,
    }]);
    let rt = SchedRuntime::with_config(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
        RuntimeConfig::new()
            .fault_plan(plan)
            .tracing(TraceConfig::enabled(4096)),
    );
    let utts = synthetic_utterances(2, (20, 20), DIM, 13);
    let report = rt.run(vec![
        Request::new(0, utts[0].clone(), 0.0),
        Request::new(1, utts[1].clone(), 30.0),
    ]);
    assert_eq!(report.responses.len(), 2);
    for r in &report.responses {
        assert!(!r.shed, "request {}", r.id);
        assert!(!r.logits.is_empty());
    }
    assert_eq!(report.sched.batches_aborted, 1);
    assert_eq!(report.sched.device_transients, 1);
    assert_eq!(report.sched.retries_scheduled, 1);
    assert_eq!(report.sched.retries_exhausted, 0);
    assert_eq!(report.sched.device_crashes, 0);
    // The retried request re-enters admission, so it is admitted twice.
    let admits = report
        .trace
        .journal
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Admit { .. }));
    assert_eq!(admits.count(), 3);
    let retries = report
        .trace
        .journal
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::RetryScheduled { .. }))
        .count();
    assert_eq!(retries, 1);
    // The wasted pre-fault occupancy lands in the aborted lane.
    let aborted_us: f64 = report
        .trace
        .attribution
        .iter()
        .map(|(_, _, c)| c.aborted_us)
        .sum();
    assert!((aborted_us - 0.5).abs() < 1e-9, "{aborted_us}");
}

#[test]
fn crash_wipes_residency_and_recovery_reloads_weights() {
    use crate::trace::TraceEvent;
    let reg = registry();
    let cost = CostModel::build(&[XCKU060], &reg);
    let est = cost.estimate_frames_us(0, 0, 20);
    let load = DeviceResidency::load_us(reg.weight_bytes(0));
    assert!(est > 1.0, "test assumes a multi-µs service time");
    // Request 0 loads the weights and completes; the crash strikes
    // the middle of request 1's window, so its batch aborts and
    // retries after the 300 µs outage — against wiped BRAM.
    let t1 = load + est + 10.0;
    let crash_at = t1 + est * 0.5;
    let plan = FaultPlan::new(vec![FaultEvent {
        t_us: crash_at,
        device: 0,
        fault: DeviceFault::Crash { down_us: 300.0 },
    }]);
    let utts = synthetic_utterances(3, (20, 20), DIM, 17);
    let rt = SchedRuntime::with_config(
        reg,
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
        RuntimeConfig::new()
            .fault_plan(plan)
            .tracing(TraceConfig::enabled(4096)),
    );
    let report = rt.run(vec![
        Request::new(0, utts[0].clone(), 0.0),
        Request::new(1, utts[1].clone(), t1),
        // A trailing arrival pulls the virtual clock past the
        // recovery point so the DeviceUp event is journaled.
        Request::new(2, utts[2].clone(), crash_at + 400.0),
    ]);
    assert!(report.responses.iter().all(|r| !r.shed));
    assert_eq!(report.sched.device_crashes, 1);
    assert_eq!(report.sched.batches_aborted, 1);
    // Initial load + post-crash reload.
    assert_eq!(report.sched.model_loads, 2);
    let request1 = report.responses.iter().find(|r| r.id == 1).unwrap();
    assert!(
        request1.complete_us > crash_at + 300.0,
        "request 1 completes only after the outage: {}",
        request1.complete_us
    );
    let downs = report
        .trace
        .journal
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::DeviceDown { .. }))
        .count();
    let ups = report
        .trace
        .journal
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::DeviceUp { .. }))
        .count();
    assert_eq!((downs, ups), (1, 1));
}

#[test]
fn permanent_crash_fails_over_sessions_and_migrates_state() {
    use crate::trace::TraceEvent;
    let reg = registry();
    let models = reg.models();
    let utts = synthetic_utterances(1, (12, 12), DIM, 19);
    let requests: Vec<Request> =
        paced_session(&utts[0], 7, 0, 0.0, 300.0, 4, Some(10_000.0)).collect();
    let policy = || SchedPolicy::edf_cost_model(2, 50.0);
    // Discovery run: find the device the session pins to.
    let discovery =
        SchedRuntime::new(registry(), vec![XCKU060, XCKU060], policy()).run(requests.clone());
    let pinned = discovery.responses[0].device.expect("served");
    let survivor = 1 - pinned;
    // Crash the pinned device for good between chunk 1's dispatch
    // (flushes by t = 350) and chunk 2's arrival at t = 600.
    let plan = FaultPlan::new(vec![FaultEvent {
        t_us: 450.0,
        device: pinned,
        fault: DeviceFault::Crash {
            down_us: f64::INFINITY,
        },
    }]);
    let run = |exec: ExecutorKind, failover: bool| {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060, XCKU060],
            policy(),
            RuntimeConfig::new()
                .executor(exec)
                .fault_plan(plan.clone())
                .failover(failover)
                .tracing(TraceConfig::enabled(4096))
                .timeline(sampled()),
        )
        .run(requests.clone())
    };
    let inline = run(ExecutorKind::Inline, true);
    let serial = run(ExecutorKind::ThreadPool, true);
    // Migration is part of the virtual-time contract: bit-identical
    // across executors, journal included.
    assert_eq!(inline.responses, serial.responses);
    assert_eq!(inline.metrics, serial.metrics);
    assert_eq!(inline.sched, serial.sched);
    assert_eq!(inline.trace, serial.trace);
    assert!(inline.responses.iter().all(|r| !r.shed));
    assert_eq!(inline.sched.state_migrations, 1);
    let migration = inline
        .trace
        .journal
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::StateMigration {
                session,
                from_device,
                to_device,
                reload_us,
                ..
            } => Some((*session, *from_device, *to_device, *reload_us)),
            _ => None,
        })
        .expect("migration journaled");
    assert_eq!(migration.0, 7);
    assert_eq!(migration.1, pinned);
    assert_eq!(migration.2, survivor);
    assert!(migration.3 > 0.0, "re-pinning streams the state back");
    // Chunks dispatched after the crash run on the survivor, and
    // the stitched logits still match whole-utterance inference
    // bit-exactly — the recurrent state crossed devices intact.
    let mut on: Vec<&Response> = inline.responses.iter().collect();
    on.sort_by_key(|r| r.id);
    assert_eq!(on.last().unwrap().device, Some(survivor));
    let stitched: Vec<Vec<f32>> = on.iter().flat_map(|r| r.logits.iter().cloned()).collect();
    assert_eq!(stitched, models[0].infer(&utts[0]));

    // Without failover the session stays pinned to the dead device
    // and everything after the crash sheds as capacity loss.
    let stranded = run(ExecutorKind::Inline, false);
    assert_eq!(stranded.sched.state_migrations, 0);
    let mut by_id: Vec<&Response> = stranded.responses.iter().collect();
    by_id.sort_by_key(|r| r.id);
    assert!(!by_id[0].shed && !by_id[1].shed);
    for r in &by_id[2..] {
        assert!(r.shed, "chunk {} strands on the dead device", r.id);
        assert_eq!(r.shed_reason, Some(ShedReason::CapacityLoss));
    }
    // The policy admits everything, yet the metrics count these
    // capacity-loss sheds like any other.
    assert_eq!(stranded.metrics.shed, by_id.len() - 2);
    // Shed at dispatch (the batch is pinned to a device that never comes
    // back), counted as a deadline miss all the same.
    assert_final_sample_matches_responses(&inline);
    assert_final_sample_matches_responses(&stranded);
}

#[test]
fn retry_exhaustion_sheds_with_capacity_loss() {
    // Six transients, each timed inside the window of the batch's next
    // attempt; MAX_RETRY_ATTEMPTS = 5 means the sixth abort sheds.
    let reg = registry();
    let cost = CostModel::build(&[XCKU060], &reg);
    let est = cost.estimate_frames_us(0, 0, 20);
    assert!(est > 1.0, "test assumes a multi-µs service time");
    let mut fault_at = vec![0.5];
    for attempt in 1..=5 {
        let retry_at = fault_at[attempt - 1] + backoff_us(attempt as u32);
        fault_at.push(retry_at + 0.25);
    }
    let plan = FaultPlan::new(
        fault_at
            .into_iter()
            .map(|t_us| FaultEvent {
                t_us,
                device: 0,
                fault: DeviceFault::Transient,
            })
            .collect(),
    );
    let utts = synthetic_utterances(1, (20, 20), DIM, 23);
    let rt = SchedRuntime::with_config(
        reg,
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
        RuntimeConfig::new().fault_plan(plan).timeline(sampled()),
    );
    let report = rt.run(vec![
        Request::new(0, utts[0].clone(), 0.0).with_deadline(1e6)
    ]);
    assert_eq!(report.responses.len(), 1);
    let r = &report.responses[0];
    assert!(r.shed);
    assert_eq!(r.shed_reason, Some(ShedReason::CapacityLoss));
    assert_eq!(report.sched.batches_aborted, 6);
    assert_eq!(report.sched.device_transients, 6);
    assert_eq!(report.sched.retries_scheduled, 5);
    assert_eq!(report.sched.retries_exhausted, 1);
    // The dispatch-time shed is a deadline miss on the live counters too.
    assert_eq!(report.metrics.deadline_miss_rate, 1.0);
    assert_eq!(report.timeline.samples.last().unwrap().deadline_misses, 1);
    assert_final_sample_matches_responses(&report);
}

#[test]
fn shed_reasons_classify_admission_rejections() {
    let utts = synthetic_utterances(2, (12, 12), DIM, 77);
    let mut requests = chunked(0, 0, &utts[0], 4, 0.0, 500.0);
    requests.extend(chunked(1, 100, &utts[1], 4, 10.0, 500.0));
    let rt = SchedRuntime::with_config(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(2, 50.0),
        RuntimeConfig::new().max_live_sessions(1),
    );
    let report = rt.run(requests);
    let mut session1: Vec<&Response> = report
        .responses
        .iter()
        .filter(|r| r.workload.session() == Some(1))
        .collect();
    session1.sort_by_key(|r| r.id);
    // The first chunk hits the live cap; the rest are cancelled.
    assert_eq!(session1[0].shed_reason, Some(ShedReason::SessionLimit));
    for r in &session1[1..] {
        assert_eq!(r.shed_reason, Some(ShedReason::SessionCancelled));
    }
    // Served responses carry no reason.
    assert!(report
        .responses
        .iter()
        .filter(|r| !r.shed)
        .all(|r| r.shed_reason.is_none()));
}

#[test]
fn faulted_runs_are_bit_identical_across_executors() {
    // A seeded plan with every fault kind, deadline-carrying mixed
    // load, predictor shedding on: the full reaction surface must
    // stay executor-independent.
    let plan = FaultPlan::seeded(0xC0FFEE, 2, 20_000.0, 5);
    let run = |exec: ExecutorKind| {
        let requests: Vec<Request> = load(40, 200_000.0)
            .into_iter()
            .map(|r| {
                let arrival = r.arrival_us;
                r.with_deadline(arrival + 5_000.0)
            })
            .collect();
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 50.0).with_admission(AdmissionPolicy::ShedPredictedLate),
            RuntimeConfig::new()
                .executor(exec)
                .fault_plan(plan.clone())
                .tracing(TraceConfig::enabled(8192))
                .timeline(sampled()),
        )
        .run(requests)
    };
    let inline = run(ExecutorKind::Inline);
    let serial = run(ExecutorKind::ThreadPool);
    assert_eq!(inline.responses, serial.responses);
    assert_eq!(inline.metrics, serial.metrics);
    assert_eq!(inline.sched, serial.sched);
    assert_eq!(inline.trace, serial.trace);
    // Every request resolves exactly once: served + shed partitions
    // the id space.
    let mut ids: Vec<u64> = inline.responses.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 40);
    assert_final_sample_matches_responses(&inline);
}

/// One load through a lane that three threads serve and through a lane
/// no thread serves: the reports must agree bit for bit. This runs more
/// than one lane thread whatever the host's core count, with stateless
/// runs racing on every thread while session runs must keep their order
/// on one — across a crash that re-pins sessions, every observer on.
#[test]
fn three_lane_threads_match_the_serial_lane_bit_for_bit() {
    use crate::health::HealthConfig;
    let mut requests = load(64, 100_000.0);
    let utts = synthetic_utterances(6, (12, 24), DIM, 91);
    for (s, utt) in utts.iter().enumerate() {
        let first_id = requests.len() as u64;
        let start_us = 37.0 * s as f64;
        requests.extend(paced_session(
            utt,
            s as u64,
            first_id,
            start_us,
            150.0,
            4,
            Some(20_000.0),
        ));
    }
    let plan = FaultPlan::new(vec![FaultEvent {
        t_us: 400.0,
        device: 0,
        fault: DeviceFault::Crash { down_us: 600.0 },
    }]);
    let rt = SchedRuntime::with_config(
        registry(),
        vec![XCKU060, ADM_PCIE_7V3],
        SchedPolicy::edf_cost_model(4, 100.0),
        RuntimeConfig::new()
            .fault_plan(plan)
            .tracing(TraceConfig::enabled(1 << 14))
            .timeline(sampled())
            .health(HealthConfig::enabled()),
    );
    let run = |threads: usize| {
        lane_scope(threads, |lane| {
            SchedEngine::start(&rt, lane, requests.clone().into_iter(), None).run_to_drain()
        })
    };
    let (laned, serial) = (run(3), run(0));
    assert_eq!(laned.responses, serial.responses);
    assert_eq!(laned.metrics, serial.metrics);
    assert_eq!(laned.sched, serial.sched);
    assert_eq!(laned.trace, serial.trace);
    assert_eq!(laned.timeline, serial.timeline);
    assert_eq!(laned.health, serial.health);
    assert_eq!(laned.host_fft(), serial.host_fft());
    // The load exercised what it is meant to: a crash that re-pinned a
    // live session, and chunks that chained through it.
    assert_eq!(serial.sched.device_crashes, 1);
    assert!(serial.sched.state_migrations > 0, "{:?}", serial.sched);
    assert!(serial.responses.iter().all(|r| !r.shed));
}
