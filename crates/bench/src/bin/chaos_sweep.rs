//! Chaos sweep: the fault-injection acceptance harness.
//!
//! A mixed workload — streaming stateful sessions (model 0) plus
//! utterance traffic (model 1) with deadlines — runs over a three-device
//! pool while a deterministic fault plan fires every fault kind: the
//! device the probe session pinned crashes *permanently* mid-session, a
//! second device browns out (cycle throughput halves for a window), and
//! a third takes a transient. The same trace then runs with failover
//! disabled.
//!
//! This bin is a correctness harness — it **asserts** that
//!
//! * **zero requests are lost**: in every run (with and without
//!   failover, on both executors) the served and shed responses
//!   partition the submitted request ids exactly;
//! * **migration preserves the streaming contract**: with failover on,
//!   sessions stranded by the crash re-pin onto survivors
//!   (`state_migrations ≥ 1`) and every session's stitched per-chunk
//!   logits are bit-identical to whole-utterance inference;
//! * **failover pays**: the deadline-miss rate with failover is
//!   *strictly* lower than without (stranded chunks shed as
//!   `CapacityLoss`/`SessionCancelled`, scored as misses);
//! * **the live counters are honest**: the shed counter and the final
//!   timeline sample's shed / deadline-miss counters agree with the
//!   responses — dispatch-time capacity-loss sheds included;
//! * **faulted runs stay deterministic**: both runs are executor-blind
//!   ([`assert_executor_blind`]).
//!
//! Run with: `cargo run --release -p ernn-bench --bin chaos_sweep`
//! (flags: [`SweepArgs`]; `--trace-out` exports the failover run — crash,
//! retries, failovers and migrations on one timeline).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::{
    acoustic_gru, assert_answered_once, assert_counters_match_responses, assert_executor_blind,
    SweepArgs, DIM,
};
use ernn_fpga::{DeviceFault, FaultEvent, FaultPlan, XCKU060};
use ernn_serve::loadgen::{paced_session, synthetic_utterances};
use ernn_serve::sched::{
    AdmissionPolicy, CostModel, DeviceResidency, ModelRegistry, SchedPolicy, SchedReport,
    SchedRuntime,
};
use ernn_serve::{
    ExecutorKind, Request, Response, RuntimeConfig, ShedReason, TimelineConfig, TraceConfig,
    TraceEvent,
};
use rand::{Rng, SeedableRng};

const UTT_FRAMES: usize = 36;
const CHUNK_FRAMES: usize = 6;
const DEVICES: usize = 3;

fn registry() -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.register("gru-64-stream", acoustic_gru(5, 64));
    reg.register("gru-96-batch", acoustic_gru(6, 96));
    reg
}

/// The shared trace: chunked sessions plus utterance traffic, and the
/// session audio kept for the stitched-logits check.
struct Trace {
    requests: Vec<Request>,
    session_audio: Vec<Vec<Vec<f32>>>,
    chunks_per_session: usize,
}

fn build_trace(
    sessions: usize,
    utterances: usize,
    gap_us: f64,
    chunk_slo_us: f64,
    utt_slo_us: f64,
    seed: u64,
) -> Trace {
    let session_audio = synthetic_utterances(sessions, (UTT_FRAMES, UTT_FRAMES), DIM, seed);
    let chunks = UTT_FRAMES / CHUNK_FRAMES;
    let mut requests = Vec::new();
    for (s, utt) in session_audio.iter().enumerate() {
        requests.extend(paced_session(
            utt,
            s as u64,
            (s * chunks) as u64,
            s as f64 * 2.0 * gap_us,
            gap_us,
            CHUNK_FRAMES,
            Some(chunk_slo_us),
        ));
    }
    // Utterance traffic for model 1, spread over the session span so it
    // competes for (and fails over across) the same pool.
    let span = (sessions as f64 * 2.0 + chunks as f64) * gap_us;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xBAD);
    let audio = synthetic_utterances(utterances, (8, 20), DIM, seed ^ 0xCAFE);
    for (u, utt) in audio.iter().enumerate() {
        let arrival = rng.gen_range(0.05..0.95) * span;
        requests.push(
            Request::new(10_000 + u as u64, utt.clone(), arrival)
                .with_model(1)
                .with_deadline(arrival + utt_slo_us),
        );
    }
    Trace {
        requests,
        session_audio,
        chunks_per_session: chunks,
    }
}

fn run(requests: &[Request], plan: &FaultPlan, failover: bool, exec: ExecutorKind) -> SchedReport {
    SchedRuntime::with_config(
        registry(),
        vec![XCKU060; DEVICES],
        SchedPolicy::edf_cost_model(4, 50.0).with_admission(AdmissionPolicy::ShedPredictedLate),
        RuntimeConfig::new()
            .executor(exec)
            .fault_plan(plan.clone())
            .failover(failover)
            .tracing(TraceConfig::enabled(1 << 15))
            .timeline(TimelineConfig::enabled(61.8, 1 << 12)),
    )
    .run(requests.to_vec())
}

fn main() {
    let args = SweepArgs::from_env();
    let (sessions, utterances) = if args.quick { (3, 12) } else { (6, 30) };

    // Timebase and SLOs from the cost model: chunks arrive at real-time
    // pace with 20% device headroom, and deadlines budget weight + state
    // reloads plus a retry backoff so a *recovered* request can still
    // meet them — misses then measure genuine capacity loss.
    let reg = registry();
    let cost = CostModel::build(&[XCKU060; DEVICES], &reg);
    let est_chunk = cost.estimate_frames_us(0, 0, CHUNK_FRAMES as u64);
    let est_utt = cost.estimate_frames_us(0, 1, 20);
    let load_us = DeviceResidency::load_us(reg.weight_bytes(0).max(reg.weight_bytes(1)));
    // Floor the chunk pace well above the 50 µs batching wait so
    // sessions are pinned and mid-flight long before the crash fires.
    let gap_us = (1.2 * DEVICES as f64 * est_chunk).max(300.0);
    let chunk_slo_us = 2.0 * load_us + 20.0 * est_chunk + 2_000.0;
    let utt_slo_us = 2.0 * load_us + 3.0 * est_utt + 2_000.0;
    println!(
        "pool: {DEVICES}× XCKU060 — chunk {est_chunk:.1} µs, utterance {est_utt:.1} µs, \
         weight load {load_us:.1} µs"
    );
    println!(
        "trace: {sessions} sessions × {UTT_FRAMES} frames (chunks of {CHUNK_FRAMES}) + \
         {utterances} utterances; chunk SLO {chunk_slo_us:.1} µs, utterance SLO {utt_slo_us:.1} µs\n"
    );

    let trace = build_trace(sessions, utterances, gap_us, chunk_slo_us, utt_slo_us, 29);

    // Discovery run (no faults): find the device session 0 pins, so the
    // crash is guaranteed to strand live sessions.
    let discovery = run(
        &trace.requests,
        &FaultPlan::empty(),
        true,
        ExecutorKind::Inline,
    );
    let pinned = discovery
        .responses
        .iter()
        .find(|r| r.id == 0)
        .and_then(|r| r.device)
        .expect("session 0's first chunk must be served fault-free");
    // The crash lands just inside the dispatch window of session 0's
    // third chunk (arrival `2·gap`, flushed by the 50 µs wait): the
    // in-flight batch aborts as a crash hit, and its retry re-places on
    // a survivor — exercising the full failover path, not just the
    // between-batches migration.
    let crash_us = 2.0 * gap_us + 50.3;
    let plan = FaultPlan::new(vec![
        FaultEvent {
            t_us: crash_us,
            device: pinned,
            fault: DeviceFault::Crash {
                down_us: f64::INFINITY,
            },
        },
        FaultEvent {
            t_us: crash_us + gap_us,
            device: (pinned + 1) % DEVICES,
            fault: DeviceFault::Brownout {
                cycle_multiplier: 2.0,
                duration_us: 2.0 * gap_us,
            },
        },
        // Lands just inside the dispatch window of session 0's second
        // chunk (arrival `gap_us`, flushed by the 50 µs batching wait):
        // a pre-crash abort-and-retry on the pinned device.
        FaultEvent {
            t_us: gap_us + 50.2,
            device: pinned,
            fault: DeviceFault::Transient,
        },
    ]);
    println!(
        "fault plan: transient on device {pinned} at {:.1} µs, permanent crash on device \
         {pinned} at {crash_us:.0} µs, brownout ×2.0 on device {}\n",
        gap_us + 50.2,
        (pinned + 1) % DEVICES,
    );

    let failover = run(&trace.requests, &plan, true, ExecutorKind::Inline);
    let stranded = run(&trace.requests, &plan, false, ExecutorKind::Inline);

    // Determinism: the full fault-reaction surface is executor-blind,
    // journal included.
    for (label, report, failover_on) in [
        ("failover", &failover, true),
        ("no-failover", &stranded, false),
    ] {
        let serial = run(
            &trace.requests,
            &plan,
            failover_on,
            ExecutorKind::ThreadPool,
        );
        assert_executor_blind(label, report, &serial);
    }

    // The failover run's journal is the interesting one: the crash, the
    // aborted batches, their retries, the failover re-placement, and the
    // session-state migrations are all visible as events.
    args.export(
        &failover.metrics,
        &failover.trace,
        Some(&failover.sched),
        None,
        None,
        None,
    );

    // Zero requests lost, and live counters that agree with the
    // responses, in every configuration.
    for (label, report) in [
        ("discovery", &discovery),
        ("failover", &failover),
        ("no-failover", &stranded),
    ] {
        assert_answered_once(label, &trace.requests, &report.responses);
        assert_counters_match_responses(label, report);
    }

    // Migration preserved the streaming contract: sessions re-pinned
    // (≥1 migration journaled) and stitched logits match whole-utterance
    // inference bit-exactly for every fully-served session.
    assert!(
        failover.sched.state_migrations >= 1,
        "the crash must strand at least one live session into migration"
    );
    assert!(
        failover.sched.batches_aborted >= 2 && failover.sched.retries_scheduled >= 2,
        "the transient and the crash must each abort a dispatching batch \
         into a retry (aborted {}, retries {})",
        failover.sched.batches_aborted,
        failover.sched.retries_scheduled
    );
    assert!(
        failover.sched.failovers >= 1,
        "the crash-aborted batch's retry must re-place on a survivor"
    );
    assert!(
        failover
            .trace
            .journal
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::StateMigration { .. })),
        "migrations must be journaled"
    );
    let model0 = registry().models()[0].clone();
    let mut checked = 0usize;
    for (s, utt) in trace.session_audio.iter().enumerate() {
        let mut chunks: Vec<&Response> = failover
            .responses
            .iter()
            .filter(|r| r.workload.session() == Some(s as u64))
            .collect();
        chunks.sort_by_key(|r| r.id);
        if chunks.iter().any(|r| r.shed) {
            continue;
        }
        assert_eq!(chunks.len(), trace.chunks_per_session);
        let stitched: Vec<Vec<f32>> = chunks
            .iter()
            .flat_map(|r| r.logits.iter().cloned())
            .collect();
        assert_eq!(
            stitched,
            model0.infer(utt),
            "session {s}: stitched logits must match whole-utterance inference"
        );
        checked += 1;
    }
    assert!(checked > 0, "at least one session must be fully served");

    // Stranded sheds are classified: capacity loss or the session-wide
    // cancellation it triggers.
    for r in stranded.responses.iter().filter(|r| r.shed) {
        assert!(
            matches!(
                r.shed_reason,
                Some(ShedReason::CapacityLoss) | Some(ShedReason::SessionCancelled)
            ),
            "request {}: unexpected shed reason {:?}",
            r.id,
            r.shed_reason
        );
    }

    let rows = [("no-failover", &stranded), ("failover", &failover)];
    println!(
        "{:<12} {:>10} {:>7} {:>6} {:>7} {:>8} {:>9} {:>11} {:>10}",
        "mode",
        "miss rate",
        "served",
        "shed",
        "aborts",
        "retries",
        "failovers",
        "migrations",
        "p99 µs"
    );
    let mut json_rows: Vec<String> = Vec::new();
    for (label, report) in &rows {
        let miss = report.metrics.deadline_miss_rate;
        let served = report.responses.iter().filter(|r| !r.shed).count();
        println!(
            "{:<12} {:>9.1}% {:>7} {:>6} {:>7} {:>8} {:>9} {:>11} {:>10.1}",
            label,
            miss * 100.0,
            served,
            report.metrics.shed,
            report.sched.batches_aborted,
            report.sched.retries_scheduled,
            report.sched.failovers,
            report.sched.state_migrations,
            report.metrics.latency.p99_us,
        );
        json_rows.push(
            JsonObject::new()
                .str("mode", label)
                .num("miss_rate", miss)
                .int("served", served as i64)
                .int("shed", report.metrics.shed as i64)
                .int("device_crashes", report.sched.device_crashes as i64)
                .int("device_brownouts", report.sched.device_brownouts as i64)
                .int("device_transients", report.sched.device_transients as i64)
                .int("batches_aborted", report.sched.batches_aborted as i64)
                .int("retries_scheduled", report.sched.retries_scheduled as i64)
                .int("retries_exhausted", report.sched.retries_exhausted as i64)
                .int("failovers", report.sched.failovers as i64)
                .int("state_migrations", report.sched.state_migrations as i64)
                .latency("", &report.metrics.latency)
                .render(),
        );
    }

    // Failover pays, strictly.
    let miss_on = failover.metrics.deadline_miss_rate;
    let miss_off = stranded.metrics.deadline_miss_rate;
    assert!(
        miss_on < miss_off,
        "failover must strictly beat no-failover on deadline-miss rate: \
         {miss_on:.3} vs {miss_off:.3}"
    );
    println!(
        "\nfailover cut the deadline-miss rate {:.1}% -> {:.1}% with {} migrations and {} \
         failovers (assertions passed; executors bit-identical)",
        miss_off * 100.0,
        miss_on * 100.0,
        failover.sched.state_migrations,
        failover.sched.failovers,
    );

    args.write_bench(
        JsonObject::new()
            .bench_header("chaos_sweep")
            .int("sessions", sessions as i64)
            .int("utterances", utterances as i64)
            .int("devices", DEVICES as i64)
            .int("chunk_frames", CHUNK_FRAMES as i64)
            .num("crash_us", crash_us)
            .num("chunk_slo_us", chunk_slo_us)
            .num("utt_slo_us", utt_slo_us)
            .raw("rows", array(json_rows)),
    );
}
