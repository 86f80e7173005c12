//! Streaming vs utterance-level serving under tight SLOs.
//!
//! One acoustic model, one trace of "spoken" audio plus short tight-SLO
//! probe requests, served two ways:
//!
//! * **utterance** — each session's audio is submitted as one request
//!   the moment its last frame is spoken. A probe arriving mid-service
//!   waits out the whole 60-frame makespan, and the session's own answer
//!   cannot even start until the speech ends.
//! * **stream** — the same audio as chunked stateful sessions. Batches
//!   close at chunk boundaries, so EDF lets a tight-SLO probe preempt
//!   between chunks, and per-chunk deadlines are met while the speaker
//!   is still talking.
//!
//! The bin asserts the streaming configuration *strictly* reduces both
//! deadline-miss rates on the single-device trace — probe misses
//! (chunk-boundary preemption) and session-chunk misses vs the
//! utterance-level deadline — and that the streaming run is
//! executor-blind ([`assert_executor_blind`]).
//!
//! Run with: `cargo run --release -p ernn-bench --bin stream_sweep`
//! (flags: [`SweepArgs`]; `--trace-out` exports the streaming run).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::{acoustic_gru, assert_executor_blind, SweepArgs, DIM};
use ernn_fpga::XCKU060;
use ernn_serve::loadgen::{paced_session, synthetic_utterances};
use ernn_serve::sched::{
    CostModel, DeviceResidency, ModelRegistry, SchedPolicy, SchedReport, SchedRuntime,
};
use ernn_serve::{ExecutorKind, Request, Response, RuntimeConfig, TraceConfig, Workload};
use rand::{Rng, SeedableRng};

const UTT_FRAMES: usize = 60;
const CHUNK_FRAMES: usize = 6;

fn registry() -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.register("gru-64", acoustic_gru(3, 64));
    reg
}

/// The shared trace: session audio (streamed or whole) plus probes.
struct Trace {
    /// Chunked stateful sessions with per-chunk deadlines.
    stream: Vec<Request>,
    /// The same audio as whole utterances arriving at end of speech,
    /// carrying the final chunk's deadline.
    utterance: Vec<Request>,
    /// Probe ids (shared by both variants).
    probe_ids: Vec<u64>,
}

#[allow(clippy::too_many_arguments)]
fn build_trace(
    sessions: usize,
    probes: usize,
    frame_us: f64,
    session_stagger_us: f64,
    chunk_slo_us: f64,
    probe_slo_us: f64,
    seed: u64,
) -> Trace {
    let audio = synthetic_utterances(sessions, (UTT_FRAMES, UTT_FRAMES), DIM, seed);
    let chunk_gap_us = CHUNK_FRAMES as f64 * frame_us;
    let mut stream = Vec::new();
    let mut utterance = Vec::new();
    for (s, utt) in audio.iter().enumerate() {
        let start = s as f64 * session_stagger_us;
        let chunks = UTT_FRAMES / CHUNK_FRAMES;
        stream.extend(paced_session(
            utt,
            s as u64,
            stream.len() as u64,
            start,
            chunk_gap_us,
            CHUNK_FRAMES,
            Some(chunk_slo_us),
        ));
        // The whole utterance exists only once the last chunk is spoken,
        // and must answer by the same absolute deadline.
        let end_of_speech = start + (chunks - 1) as f64 * chunk_gap_us;
        utterance.push(
            Request::new(s as u64, utt.clone(), end_of_speech)
                .with_deadline(end_of_speech + chunk_slo_us),
        );
    }
    // Tight-SLO probes, Poisson-spread over the middle of the trace so
    // they land while sessions are in flight.
    let span = sessions as f64 * session_stagger_us;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let probe_audio = synthetic_utterances(probes, (3, 3), DIM, seed ^ 0xF00D);
    let mut probe_ids = Vec::new();
    for (p, utt) in probe_audio.iter().enumerate() {
        let arrival = rng.gen_range(0.1..0.9) * span;
        let id = 10_000 + p as u64;
        let r = Request::new(id, utt.clone(), arrival).with_deadline(arrival + probe_slo_us);
        stream.push(r.clone());
        utterance.push(r);
        probe_ids.push(id);
    }
    Trace {
        stream,
        utterance,
        probe_ids,
    }
}

/// Deadline-miss rate over the subset of responses `pick` selects.
fn miss_rate(responses: &[Response], pick: impl Fn(&Response) -> bool) -> f64 {
    let tracked: Vec<&Response> = responses
        .iter()
        .filter(|r| pick(r) && r.deadline_tracked)
        .collect();
    let missed = tracked.iter().filter(|r| !r.deadline_met).count();
    missed as f64 / tracked.len().max(1) as f64
}

fn run(requests: Vec<Request>, exec: ExecutorKind) -> SchedReport {
    SchedRuntime::with_config(
        registry(),
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0),
        RuntimeConfig::new()
            .executor(exec)
            .tracing(TraceConfig::enabled(1 << 15)),
    )
    .run(requests)
}

fn main() {
    let args = SweepArgs::from_env();
    let (sessions, probes) = if args.quick { (4, 20) } else { (8, 40) };

    // Timebase from the cost model: speech is delivered 20% slower than
    // the device can serve it, so streaming keeps up with headroom. The
    // SLOs budget one cold weight load plus a few chunk services — met
    // comfortably at chunk granularity, hopeless behind a 60-frame
    // makespan.
    let reg = registry();
    let cost = CostModel::build(&[XCKU060], &reg);
    let est_chunk = cost.estimate_frames_us(0, 0, CHUNK_FRAMES as u64);
    let est_probe = cost.estimate_frames_us(0, 0, 3);
    let est_utt = cost.estimate_frames_us(0, 0, UTT_FRAMES as u64);
    let load_us = DeviceResidency::load_us(reg.weight_bytes(0));
    let frame_us = 1.2 * est_utt / UTT_FRAMES as f64;
    let session_stagger_us = (UTT_FRAMES + 20) as f64 * frame_us;
    let chunk_slo_us = 4.0 * est_chunk + load_us;
    let probe_slo_us = est_probe + 3.0 * est_chunk;
    println!(
        "model: GRU-64 block 8 on XCKU060 — chunk {est_chunk:.1} µs, \
         utterance {est_utt:.1} µs, weight load {load_us:.1} µs"
    );
    println!(
        "trace: {sessions} sessions × {UTT_FRAMES} frames (chunks of {CHUNK_FRAMES}), \
         {probes} probes; chunk SLO {chunk_slo_us:.1} µs, probe SLO {probe_slo_us:.1} µs\n"
    );

    let trace = build_trace(
        sessions,
        probes,
        frame_us,
        session_stagger_us,
        chunk_slo_us,
        probe_slo_us,
        17,
    );
    let is_probe = |ids: &[u64]| {
        let ids = ids.to_vec();
        move |r: &Response| ids.contains(&r.id) && matches!(r.workload, Workload::Utterance)
    };

    let stream = run(trace.stream.clone(), ExecutorKind::Inline);
    assert_executor_blind(
        "stream",
        &stream,
        &run(trace.stream.clone(), ExecutorKind::ThreadPool),
    );
    // The streaming run's journal shows the chunk-boundary preemption
    // this sweep is about: probe dispatches interleave between session
    // chunks in the Perfetto timeline.
    args.export(
        &stream.metrics,
        &stream.trace,
        Some(&stream.sched),
        None,
        None,
        None,
    );
    let baseline = run(trace.utterance.clone(), ExecutorKind::Inline);

    let probe_pick = is_probe(&trace.probe_ids);
    let rows = [
        (
            "utterance",
            &baseline,
            miss_rate(&baseline.responses, |r| !probe_pick(r)),
            miss_rate(&baseline.responses, &probe_pick),
        ),
        (
            "stream",
            &stream,
            miss_rate(&stream.responses, |r| !probe_pick(r)),
            miss_rate(&stream.responses, &probe_pick),
        ),
    ];
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "mode", "audio miss", "probe miss", "p50 µs", "p99 µs", "state loads"
    );
    let mut json_rows: Vec<String> = Vec::new();
    for (label, report, audio_miss, probe_miss) in &rows {
        let m = &report.metrics;
        println!(
            "{:<12} {:>11.1}% {:>11.1}% {:>10.1} {:>10.1} {:>12}",
            label,
            audio_miss * 100.0,
            probe_miss * 100.0,
            m.latency.p50_us,
            m.latency.p99_us,
            report.sched.state_loads,
        );
        json_rows.push(
            JsonObject::new()
                .str("mode", label)
                .num("audio_miss_rate", *audio_miss)
                .num("probe_miss_rate", *probe_miss)
                .latency("", &m.latency)
                .int("sessions", m.sessions as i64)
                .int("chunks", m.chunks as i64)
                .int("state_loads", report.sched.state_loads as i64)
                .render(),
        );
    }

    let (_, _, base_audio, base_probe) = rows[0];
    let (_, _, stream_audio, stream_probe) = rows[1];
    assert!(
        stream_probe < base_probe,
        "chunk-boundary preemption must strictly cut probe misses: \
         stream {stream_probe:.3} vs utterance {base_probe:.3}"
    );
    assert!(
        stream_audio < base_audio,
        "per-chunk deadlines must strictly beat the utterance-level \
         deadline: stream {stream_audio:.3} vs utterance {base_audio:.3}"
    );
    println!(
        "\nstreaming cut probe misses {:.1}% -> {:.1}% and audio misses \
         {:.1}% -> {:.1}% (assertions passed; executors bit-identical)",
        base_probe * 100.0,
        stream_probe * 100.0,
        base_audio * 100.0,
        stream_audio * 100.0
    );

    args.write_bench(
        JsonObject::new()
            .bench_header("stream_sweep")
            .int("sessions", sessions as i64)
            .int("probes", probes as i64)
            .int("chunk_frames", CHUNK_FRAMES as i64)
            .num("chunk_slo_us", chunk_slo_us)
            .num("probe_slo_us", probe_slo_us)
            .raw("rows", array(json_rows)),
    );
}
