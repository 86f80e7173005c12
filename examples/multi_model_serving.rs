//! Multi-model serving demo: two acoustic models of different sizes —
//! an interactive tenant with a tight SLO and a batch tenant with a
//! loose one — sharing a heterogeneous two-platform pool (XCKU060 +
//! Virtex-7 690t) under the SLO-aware scheduler.
//!
//! Shows the three scheduler levers side by side on the same offered
//! load:
//!
//! 1. the naive baseline (FIFO queue, earliest-free placement),
//! 2. EDF ordering + cost-model placement (deadline-aware, residency-
//!    and platform-speed-aware), and
//! 3. the same plus admission control (predicted-late requests get an
//!    immediate deadline-miss response instead of poisoning the queue).
//!
//! Both tenants are built through the `ernn::pipeline` lifecycle and
//! deployed as serialized `ModelArtifact` bytes — the registry loads
//! them with `register_artifact`, i.e. without retraining, recompressing
//! or refreshing weight spectra beyond the decode itself.
//!
//! Each run has the full observability surface on: the flight recorder,
//! the sampled metrics timeline, and the health monitor. The per-config
//! summary breaks down where each (device, model) cell's virtual time
//! went — queue wait, weight-load stalls, compute, padding waste — and
//! prints the health verdict (the overloaded FIFO baseline burns its
//! deadline budget; the deadline-aware configs stay clean). Pass
//! `--trace-out PATH` to dump the last config's journal as Chrome trace
//! JSON for `ui.perfetto.dev` (see `docs/observability.md`).
//!
//! Pass `--shards N` to additionally serve the same tenants through the
//! cluster tier (`ernn::serve::cluster`): N single-device shards behind
//! the load-feedback affinity router, artifact replication charged on
//! the wire, and a per-shard health verdict for every shard — the same
//! monitors as the single-node runs, one scheduler per shard (see
//! `docs/cluster.md`).
//!
//! Run with: `cargo run --release --example multi_model_serving`
//! (optionally `-- --shards 4`)

use ernn::fpga::{ADM_PCIE_7V3, XCKU060};
use ernn::model::{CellType, ModelSpec};
use ernn::pipeline::Pipeline;
use ernn::serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn::serve::sched::{AdmissionPolicy, ModelRegistry, SchedPolicy, SchedRuntime};
use ernn::serve::{
    chrome_trace_json, ClusterConfig, ClusterRuntime, HealthConfig, ModelArtifact, Request,
    RuntimeConfig, Steering, TimelineConfig, TraceConfig,
};
use rand::SeedableRng;

const DIM: usize = 52;

/// Builds a tenant model through the lifecycle pipeline (the paper
/// preset: block 8, 12-bit datapath, XCKU060) and serializes it — the
/// production shape, where models are built once and deployed as bytes.
fn build_artifact(seed: u64, hidden: usize) -> Vec<u8> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Pipeline::paper(ModelSpec::new(CellType::Gru, DIM, 40).layer_dims(&[hidden]))
        .expect("valid spec")
        .source("examples/multi_model_serving")
        .init(&mut rng)
        .project()
        .expect("paper block policy")
        .quantize()
        .expect("paper datapath")
        .compile()
        .expect("paper platform")
        .save_bytes()
}

/// Loads the serialized tenants into a registry — no retraining, no
/// recompression, zero extra weight-spectrum refreshes.
fn registry(tenants: &[(&str, &[u8])]) -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    for (name, bytes) in tenants {
        let artifact = ModelArtifact::load_bytes(bytes).expect("artifact decodes");
        reg.register_artifact(*name, &artifact);
    }
    reg
}

/// 3:1 interactive:batch traffic with per-class SLOs.
fn mixed_load(n: usize) -> Vec<Request> {
    let short = synthetic_utterances(8, (5, 15), DIM, 21);
    let long = synthetic_utterances(8, (30, 60), DIM, 22);
    open_loop_poisson(&short, n, 450_000.0, 23)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let t = r.arrival_us;
            if i % 4 == 3 {
                Request::new(r.id, long[(i / 4) % long.len()].clone(), t)
                    .with_model(1)
                    .with_deadline(t + 20_000.0)
            } else {
                r.with_model(0).with_deadline(t + 80.0)
            }
        })
        .collect()
}

fn main() {
    let interactive = build_artifact(3, 64);
    let batch = build_artifact(4, 256);
    let tenants: Vec<(&str, &[u8])> = vec![
        ("interactive-gru64", &interactive),
        ("batch-gru256", &batch),
    ];
    let reg = registry(&tenants);
    println!(
        "registry: {} ({} KiB artifact, {} KiB on-chip) + {} ({} KiB artifact, {} KiB on-chip)",
        reg.name(0),
        interactive.len() / 1024,
        reg.weight_bytes(0) / 1024,
        reg.name(1),
        batch.len() / 1024,
        reg.weight_bytes(1) / 1024,
    );
    // Weight budget per device: one image at a time — residency matters.
    let budget = reg.weight_bytes(1) + reg.weight_bytes(0) / 2;
    drop(reg);
    let platforms = vec![XCKU060, ADM_PCIE_7V3];

    let configs: Vec<(&str, SchedPolicy)> = vec![
        (
            "fifo + earliest-free",
            SchedPolicy::fifo_earliest_free(8, 200.0).with_bram_budget_bytes(budget),
        ),
        (
            "edf + cost-model",
            SchedPolicy::edf_cost_model(8, 200.0).with_bram_budget_bytes(budget),
        ),
        (
            "edf + cost-model + shed",
            SchedPolicy::edf_cost_model(8, 200.0)
                .with_bram_budget_bytes(budget)
                .with_admission(AdmissionPolicy::ShedPredictedLate),
        ),
    ];

    let args: Vec<String> = std::env::args().collect();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let shards = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|n| n.parse::<usize>().expect("--shards takes a count"));

    let last = configs.len() - 1;
    for (c, (label, policy)) in configs.into_iter().enumerate() {
        let runtime = SchedRuntime::with_config(
            registry(&tenants),
            platforms.clone(),
            policy,
            RuntimeConfig::new()
                .tracing(TraceConfig::enabled(1 << 14))
                .timeline(TimelineConfig::enabled(100.0, 1 << 13))
                .health(HealthConfig::enabled()),
        );
        let report = runtime.run(mixed_load(400));
        println!("\n=== {label} ===");
        println!("{}", report.metrics);
        println!(
            "scheduler: {} loads, {} evictions, {:.1} µs streaming weights, {} shed",
            report.sched.model_loads,
            report.sched.model_evictions,
            report.sched.load_us_total,
            report.sched.shed
        );
        let h = &report.health;
        println!(
            "health: {} over {} timeline samples, EWMA queue delay {:.1} µs",
            if h.healthy() {
                "HEALTHY".to_string()
            } else {
                format!("{} alert(s)", h.events.len())
            },
            report.timeline.samples.len(),
            h.ewma_queue_us,
        );
        for event in h.events.iter().take(3) {
            println!(
                "  {:?} at {:.0} µs: {:.2} crossed {:.2}",
                event.rule, event.t_us, event.value, event.threshold
            );
        }
        println!("stage attribution (virtual µs):");
        println!(
            "  {:<22} {:>5} {:>7} {:>9} {:>8} {:>9} {:>9}",
            "device / model", "reqs", "batches", "queue", "load", "compute", "padding"
        );
        for (device, model, cell) in report.trace.attribution.iter() {
            println!(
                "  {:<22} {:>5} {:>7} {:>9.1} {:>8.1} {:>9.1} {:>9.1}",
                format!("dev{device} · model {model}"),
                cell.requests,
                cell.batches,
                cell.queue_us,
                cell.load_us,
                cell.compute_us,
                cell.padding_us
            );
        }
        if c == last {
            if let Some(path) = &trace_out {
                let json = chrome_trace_json(&report.trace);
                std::fs::write(path, json).expect("write trace");
                println!(
                    "\nwrote {path} ({} events) — drop into ui.perfetto.dev",
                    report.trace.journal.events.len()
                );
            }
        }
    }

    if let Some(shards) = shards {
        serve_cluster(&tenants, shards, budget);
    }
}

/// Serves the same tenants and load through the cluster tier: `shards`
/// single-device shards (alternating platforms, so steering also has a
/// speed gradient to exploit) behind the load-feedback affinity
/// router, with the metrics timeline and health monitor on every
/// shard's scheduler.
fn serve_cluster(tenants: &[(&str, &[u8])], shards: usize, budget: u64) {
    let platforms: Vec<_> = (0..shards)
        .map(|s| vec![if s % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 }])
        .collect();
    // Half the ring per model: enough replicas that placement covers
    // the cluster, and any shard can lose a neighbor.
    let replication = (shards / 2).max(2).min(shards);
    let runtime = ClusterRuntime::new(
        registry(tenants),
        platforms,
        SchedPolicy::edf_cost_model(8, 200.0)
            .with_bram_budget_bytes(budget)
            .with_admission(AdmissionPolicy::ShedPredictedLate),
        RuntimeConfig::new()
            .timeline(TimelineConfig::enabled(100.0, 1 << 13))
            .health(HealthConfig::enabled()),
        ClusterConfig::new()
            .replication(replication)
            .steering(Steering::LoadFeedback),
    );
    let report = runtime.run(mixed_load(400));
    println!(
        "\n=== cluster: {shards} shards × 1 device, replication {replication}, load-feedback ==="
    );
    println!("{}", report.metrics);
    println!(
        "router: {} routed ({:.1} µs on the wire), {} artifact replications ({:.1} µs), {} shed",
        report.stats.routed,
        report.stats.forward_us_total,
        report.stats.replications,
        report.stats.replication_us_total,
        report.stats.shed_no_capacity,
    );
    println!("per-shard health:");
    for shard in &report.shards {
        let placed: Vec<&str> = shard
            .placed
            .iter()
            .map(|&m| runtime.registry().name(m))
            .collect();
        let verdict = match &shard.report {
            Some(sr) if sr.health.healthy() => "HEALTHY".to_string(),
            Some(sr) => format!("{} alert(s)", sr.health.events.len()),
            None => "idle (no models placed)".to_string(),
        };
        println!(
            "  shard {:>2} [{}]: {} — {} request(s), EWMA queue delay {:.1} µs, {} live session(s), serving [{}]",
            shard.shard,
            if shard.alive { "up" } else { "down" },
            verdict,
            shard.answered,
            shard.gauges.ewma_queue_us,
            shard.gauges.live_sessions,
            placed.join(", "),
        );
    }
}
