//! Cluster sweep: the cluster-tier serving acceptance harness.
//!
//! A multi-tenant load — streaming sessions on one model plus deadline-
//! carrying utterance traffic across three — runs against five cluster
//! shapes built from the same compiled models:
//!
//! * `fat-node` — one shard holding four devices behind a single
//!   scheduler with a free network: the scale-up baseline.
//! * `random` — a sharded cluster (one device per shard, heterogeneous
//!   platforms, replicated artifacts) with feedback-blind replica
//!   choice.
//! * `feedback` — the same cluster steered by shard load feedback
//!   (replica-readiness wait + EWMA queue delay).
//! * `feedback+kill` — load-feedback steering with one shard killed
//!   mid-run and failover re-steering its backlog.
//! * `kill,no-failover` — the same kill with failover disabled, so the
//!   dead shard's traffic sheds as `NoShardCapacity`.
//!
//! Every timing constant — the batch window, session pacing, and the
//! SLOs — is derived from the cost model so the sweep stays meaningful
//! if the paper datapath or the Table-IV platforms change: the offered
//! load is ~10 device-equivalents, overloading the 4-device fat node
//! 2.5× while the 16+-shard cluster runs well under capacity.
//!
//! This bin is a correctness harness — it **asserts** that
//!
//! * **scale-out beats scale-up**: the sharded cluster beats the fat
//!   node on p99.9 latency *and* tight-SLO deadline-miss rate;
//! * **load feedback pays**: feedback steering beats the random router
//!   on miss rate;
//! * **kills lose nothing**: with failover, every submitted request is
//!   answered exactly once — no losses, no duplicates — and every shed
//!   response anywhere carries an accurate `ShedReason`, with
//!   `NoShardCapacity` appearing exactly on router-level sheds;
//! * **the cluster is deterministic**: the feedback and killed runs are
//!   executor-blind ([`assert_cluster_executor_blind`]).
//!
//! Run with: `cargo run --release -p ernn-bench --bin cluster_sweep`
//! (flags: [`SweepArgs`]; `--trace-out` exports the killed run's router
//! journal — forwards, replications, the shard death and session
//! reroutes — with per-shard gauges in the `.prom` snapshot).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::{
    acoustic_gru, assert_answered_once, assert_cluster_executor_blind, SweepArgs, DIM,
};
use ernn_fpga::{Device, DeviceFault, FaultEvent, FaultPlan, ADM_PCIE_7V3, XCKU060};
use ernn_serve::loadgen::{paced_session, synthetic_utterances};
use ernn_serve::sched::{CostModel, DeviceResidency, ModelRegistry, SchedPolicy};
use ernn_serve::{
    ClusterConfig, ClusterReport, ClusterRuntime, ClusterSpec, ExecutorKind, Request,
    RuntimeConfig, ShedReason, Steering, TraceConfig, TransferModel,
};
use rand::{Rng, SeedableRng};

const CHUNK_FRAMES: usize = 6;
const SESSION_FRAMES: usize = 36;
const FAT_DEVICES: usize = 4;
/// Offered load as equivalent busy devices: well past the fat node's 4,
/// comfortably under the sharded cluster's 16+.
const TARGET_PARALLELISM: f64 = 10.0;
const SLO_MULT: f64 = 3.0;

fn tenant_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::new();
    spec.register("gru-64-stream", acoustic_gru(5, 64));
    spec.register("gru-96-batch", acoustic_gru(6, 96));
    spec.register("gru-64-tail", acoustic_gru(7, 64));
    spec
}

/// Heterogeneous scale-out platforms: one device per shard, alternating
/// the two Table-IV boards — exactly the asymmetry load-feedback
/// steering exploits and the random router is blind to.
fn shard_platforms(shards: usize) -> Vec<Vec<Device>> {
    (0..shards)
        .map(|s| vec![if s % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 }])
        .collect()
}

fn fat_platform() -> Vec<Device> {
    (0..FAT_DEVICES)
        .map(|d| if d % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 })
        .collect()
}

struct Load {
    requests: Vec<Request>,
    span_us: f64,
    /// Arrival of the last session's first chunk — the kill victim is
    /// whichever shard that session gets pinned to.
    last_session_start_us: f64,
    /// Inter-chunk gap within a session.
    gap_us: f64,
    /// Cost-model-derived batch formation window for the scheduler.
    max_wait_us: f64,
}

/// Builds the shared trace: streaming sessions on model 0 paced in real
/// time, plus utterance traffic round-robined over all tenants with
/// uniform arrivals over a span sized from the cost model so offered
/// load is ~[`TARGET_PARALLELISM`] device-equivalents. SLOs are a few
/// worst-device service times plus the batch window, the one-time
/// weight-load stall, and two network hops — tight enough that real
/// queueing turns into misses, loose enough that an idle shard always
/// makes them.
fn build_load(utterances: usize, sessions: usize, spec: &ClusterSpec, seed: u64) -> Load {
    // Cost estimates come from a registry sharing the spec's models (no
    // recompiles) over the fat pool's device set, which has both board
    // kinds at indices 0 and 1.
    let mut reg = ModelRegistry::new();
    for m in 0..spec.len() {
        reg.register_shared(spec.name(m).to_string(), spec.model(m).clone());
    }
    let cost = CostModel::build(&fat_platform(), &reg);
    let load_us = DeviceResidency::load_us(
        (0..spec.len())
            .map(|m| reg.weight_bytes(m))
            .fold(0, u64::max),
    );
    let est_worst = |model: usize, frames: u64| -> f64 {
        cost.estimate_frames_us(0, model, frames)
            .max(cost.estimate_frames_us(1, model, frames))
    };
    let transfer = TransferModel::intra_rack();
    let hop = |frames: usize| transfer.transfer_us((frames * DIM * 4) as u64);

    let audio = synthetic_utterances(utterances, (8, 20), DIM, seed);
    let total_work: f64 = audio
        .iter()
        .enumerate()
        .map(|(i, utt)| cost.estimate_frames_us(0, i % spec.len(), utt.len() as u64))
        .sum();
    let span_us = total_work / TARGET_PARALLELISM;
    let unit_us = total_work / utterances as f64;
    let max_wait_us = (2.0 * unit_us).max(1.0);
    let slack_us = max_wait_us + load_us + unit_us;

    let mut requests = Vec::new();
    // Sessions: model 0, six chunks each, paced so a session spans about
    // a third of the run, starts spread across the first half — several
    // are mid-flight when the kill lands.
    let chunks = SESSION_FRAMES / CHUNK_FRAMES;
    let gap_us = span_us / (3.0 * chunks as f64);
    let chunk_slo_us =
        SLO_MULT * est_worst(0, CHUNK_FRAMES as u64) + 2.0 * hop(CHUNK_FRAMES) + slack_us;
    let session_audio = synthetic_utterances(
        sessions,
        (SESSION_FRAMES, SESSION_FRAMES),
        DIM,
        seed ^ 0xFEED,
    );
    for (s, utt) in session_audio.iter().enumerate() {
        requests.extend(paced_session(
            utt,
            s as u64,
            (s * chunks) as u64,
            (s as f64 + 0.5) * span_us / (2.0 * sessions as f64),
            gap_us,
            CHUNK_FRAMES,
            Some(chunk_slo_us),
        ));
    }
    // Utterances: uniform arrivals with per-model SLOs.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
    for (u, utt) in audio.iter().enumerate() {
        let model = u % spec.len();
        let arrival = rng.gen_range(0.02..0.98) * span_us;
        let slo = SLO_MULT * est_worst(model, utt.len() as u64) + 2.0 * hop(utt.len()) + slack_us;
        requests.push(
            Request::new(10_000 + u as u64, utt.clone(), arrival)
                .with_model(model)
                .with_deadline(arrival + slo),
        );
    }
    println!(
        "load: {} requests over {span_us:.0} µs (unit {unit_us:.2} µs, weight load \
         {load_us:.1} µs, batch window {max_wait_us:.1} µs, chunk SLO {chunk_slo_us:.1} µs, \
         artifact hop {:.1} µs)",
        requests.len(),
        transfer.transfer_us(
            (0..spec.len())
                .map(|m| spec.artifact_bytes(m))
                .fold(0, u64::max)
        ),
    );
    let last_session_start_us = (sessions as f64 - 0.5) * span_us / (2.0 * sessions as f64);
    Load {
        requests,
        span_us,
        last_session_start_us,
        gap_us,
        max_wait_us,
    }
}

/// Zero requests lost: the responses partition the submitted ids, and
/// every shed response carries an accurate reason — `NoShardCapacity`
/// exactly on (and only on) router-level sheds.
fn assert_accounting(label: &str, requests: &[Request], report: &ClusterReport) {
    assert_answered_once(label, requests, &report.responses);
    let mut router_sheds = 0u64;
    for r in &report.responses {
        if r.shed {
            let reason = r
                .shed_reason
                .unwrap_or_else(|| panic!("{label}: request {} shed without a reason", r.id));
            // No admission control and no shard-internal faults in this
            // sweep: the only legitimate shed cause is the router
            // finding no live replica.
            assert_eq!(
                reason,
                ShedReason::NoShardCapacity,
                "{label}: request {} shed for an impossible reason",
                r.id
            );
            router_sheds += 1;
        } else {
            assert_eq!(r.shed_reason, None, "{label}: served with a shed reason");
        }
    }
    assert_eq!(
        router_sheds, report.stats.shed_no_capacity,
        "{label}: NoShardCapacity responses must match the router's count"
    );
}

struct Shape {
    name: &'static str,
    platforms: Vec<Vec<Device>>,
    config: ClusterConfig,
}

fn main() {
    let args = SweepArgs::from_env();
    let (shards, utterances, sessions) = if args.quick {
        (16, 2000, 8)
    } else {
        (32, 4000, 12)
    };
    // Replicas per model scale with the cluster so aggregate capacity
    // does too: hash placement overlaps across models, so half the
    // shards per model keeps most of the ring covered while the
    // replication ramp (replica k servable only after k transfer hops)
    // stays a modest fraction of the run.
    let replication = (shards / 2).max(2);

    let spec = tenant_spec();
    let load = build_load(utterances, sessions, &spec, 29);
    let total = load.requests.len();
    let policy = SchedPolicy::edf_cost_model(4, load.max_wait_us);

    let sharded = |steering: Steering, faults: FaultPlan, failover: bool| {
        ClusterConfig::new()
            .replication(replication)
            .steering(steering)
            .shard_faults(faults)
            .failover(failover)
            .tracing(TraceConfig::enabled(1 << 15))
    };
    let run = |shape: &Shape, exec: ExecutorKind| {
        ClusterRuntime::new(
            spec.clone(),
            shape.platforms.clone(),
            policy,
            RuntimeConfig::new().executor(exec),
            shape.config.clone(),
        )
        .run(load.requests.clone())
    };

    let calm_shapes = [
        Shape {
            name: "fat-node",
            platforms: vec![fat_platform()],
            config: ClusterConfig::new()
                .replication(1)
                .transfer(TransferModel::zero())
                .tracing(TraceConfig::enabled(1 << 15)),
        },
        Shape {
            name: "random",
            platforms: shard_platforms(shards),
            config: sharded(Steering::Random, FaultPlan::empty(), true),
        },
        Shape {
            name: "feedback",
            platforms: shard_platforms(shards),
            config: sharded(Steering::LoadFeedback, FaultPlan::empty(), true),
        },
    ];
    let calm_reports: Vec<ClusterReport> = calm_shapes
        .iter()
        .map(|s| run(s, ExecutorKind::Inline))
        .collect();

    // The kill victim: whichever shard the *last* streaming session got
    // pinned to in the calm feedback run, killed between its third and
    // fourth chunks. Routing is deterministic and the kill run is
    // identical to the calm run up to the kill instant, so the session
    // is provably pinned there with chunks still to come — the kill
    // must reroute (or, without failover, shed) live traffic.
    let chunks = SESSION_FRAMES / CHUNK_FRAMES;
    let probe_id = ((sessions - 1) * chunks) as u64;
    let victim = calm_reports[2]
        .responses
        .iter()
        .find(|r| r.id == probe_id)
        .expect("last session's first chunk missing")
        .device
        .expect("last session's first chunk was shed in the calm run");
    let kill_us = load.last_session_start_us + 2.5 * load.gap_us;
    println!(
        "cluster: {shards} shards (1 device each, alternating platforms, replication \
         {replication}) vs fat node ({FAT_DEVICES} devices); kill: shard {victim} (hosts \
         session {}) at {kill_us:.0} µs\n",
        sessions - 1
    );

    let kill_plan = FaultPlan::new(vec![FaultEvent {
        t_us: kill_us,
        device: victim,
        fault: DeviceFault::Crash {
            down_us: f64::INFINITY,
        },
    }]);
    let kill_shapes = [
        Shape {
            name: "feedback+kill",
            platforms: shard_platforms(shards),
            config: sharded(Steering::LoadFeedback, kill_plan.clone(), true),
        },
        Shape {
            name: "kill,no-failover",
            platforms: shard_platforms(shards),
            config: sharded(Steering::LoadFeedback, kill_plan, false),
        },
    ];
    let kill_reports: Vec<ClusterReport> = kill_shapes
        .iter()
        .map(|s| run(s, ExecutorKind::Inline))
        .collect();

    let shapes: Vec<&Shape> = calm_shapes.iter().chain(&kill_shapes).collect();
    let reports: Vec<&ClusterReport> = calm_reports.iter().chain(&kill_reports).collect();
    let [fat, random, feedback, killed, stranded] = &reports[..] else {
        unreachable!("five shapes");
    };

    // Determinism: the cluster's entire virtual-time surface is
    // executor-blind — merged responses, metrics, router stats, the
    // router journal and its rendering, and every shard's own report.
    for (shape, report) in [(&calm_shapes[2], feedback), (&kill_shapes[0], killed)] {
        assert_cluster_executor_blind(shape.name, report, &run(shape, ExecutorKind::ThreadPool));
    }

    for (shape, report) in shapes.iter().zip(&reports) {
        assert_accounting(shape.name, &load.requests, report);
    }

    println!(
        "{:<17} {:>7} {:>7} {:>6} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "shape", "shards", "served", "shed", "miss rate", "p99 µs", "p99.9 µs", "rerouted", "repl"
    );
    let mut json_rows: Vec<String> = Vec::new();
    for (shape, report) in shapes.iter().zip(&reports) {
        let miss = report.metrics.deadline_miss_rate;
        let served = report.responses.iter().filter(|r| !r.shed).count();
        println!(
            "{:<17} {:>7} {:>7} {:>6} {:>9.1}% {:>10.1} {:>10.1} {:>9} {:>9}",
            shape.name,
            report.shards.len(),
            served,
            report.metrics.shed,
            miss * 100.0,
            report.metrics.latency.p99_us,
            report.metrics.latency.p999_us,
            report.stats.rerouted,
            report.stats.replications,
        );
        json_rows.push(
            JsonObject::new()
                .str("shape", shape.name)
                .int("shards", report.shards.len() as i64)
                .num("miss_rate", miss)
                .int("served", served as i64)
                .int("shed", report.metrics.shed as i64)
                .int("routed", report.stats.routed as i64)
                .int("reclaimed", report.stats.reclaimed as i64)
                .int("rerouted", report.stats.rerouted as i64)
                .int("sessions_rerouted", report.stats.sessions_rerouted as i64)
                .int("shed_no_capacity", report.stats.shed_no_capacity as i64)
                .int("replications", report.stats.replications as i64)
                .num("forward_us_total", report.stats.forward_us_total)
                .num("replication_us_total", report.stats.replication_us_total)
                .latency("", &report.metrics.latency)
                .render(),
        );
    }

    // (a) Scale-out beats scale-up on the tail and the SLO.
    assert!(
        feedback.metrics.latency.p999_us < fat.metrics.latency.p999_us,
        "sharded cluster must beat the fat node on p99.9: {:.1} vs {:.1} µs",
        feedback.metrics.latency.p999_us,
        fat.metrics.latency.p999_us
    );
    let (miss_feedback, miss_fat, miss_random) = (
        feedback.metrics.deadline_miss_rate,
        fat.metrics.deadline_miss_rate,
        random.metrics.deadline_miss_rate,
    );
    assert!(
        miss_feedback < miss_fat,
        "sharded cluster must beat the fat node on miss rate: {miss_feedback:.4} vs {miss_fat:.4}"
    );
    // (b) Load feedback beats the feedback-blind router.
    assert!(
        miss_feedback < miss_random,
        "feedback steering must beat random on miss rate: {miss_feedback:.4} vs {miss_random:.4}"
    );
    // (c) The kill loses nothing with failover: exact partition already
    // asserted; additionally nothing shed and the backlog re-steered.
    assert_eq!(
        killed.metrics.shed, 0,
        "with replication {replication} and failover, one kill must shed nothing"
    );
    assert_eq!(killed.stats.shard_kills, 1);
    assert_eq!(
        killed.stats.rerouted, killed.stats.reclaimed,
        "every reclaimed request must be re-steered"
    );
    // Without failover the dead shard's traffic sheds — accurately.
    assert!(
        stranded.stats.shed_no_capacity > 0,
        "the no-failover kill must shed the dead shard's traffic"
    );
    assert!(
        killed.metrics.deadline_miss_rate < stranded.metrics.deadline_miss_rate,
        "failover must beat no-failover on miss rate"
    );

    args.export(
        &killed.metrics,
        &killed.trace,
        None,
        None,
        None,
        Some(&killed.shard_gauges()),
    );

    println!(
        "\nscale-out p99.9 {:.1} µs vs fat-node {:.1} µs; miss rate feedback {:.2}% < random \
         {:.2}% < fat {:.2}%; kill rerouted {}/{} with {} session reroutes (assertions passed; \
         executors bit-identical)",
        feedback.metrics.latency.p999_us,
        fat.metrics.latency.p999_us,
        miss_feedback * 100.0,
        miss_random * 100.0,
        miss_fat * 100.0,
        killed.stats.rerouted,
        killed.stats.reclaimed,
        killed.stats.sessions_rerouted,
    );

    args.write_bench(
        JsonObject::new()
            .bench_header("cluster_sweep")
            .int("shards", shards as i64)
            .int("replication", replication as i64)
            .int("fat_devices", FAT_DEVICES as i64)
            .int("models", spec.len() as i64)
            .int("utterances", utterances as i64)
            .int("sessions", sessions as i64)
            .int("requests", total as i64)
            .num("span_us", load.span_us)
            .num("kill_us", kill_us)
            .int("kill_shard", victim as i64)
            .raw("rows", array(json_rows)),
    );
}
