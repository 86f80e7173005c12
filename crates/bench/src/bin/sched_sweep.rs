//! Head-to-head scheduler sweep: EDF + cost-model placement vs the naive
//! FIFO + earliest-free baseline on a mixed two-model, two-platform
//! workload at fixed offered load.
//!
//! The workload is the canonical multi-tenant shape: an *interactive*
//! tenant (small acoustic model, short utterances, tight SLO) sharing the
//! pool with a *batch* tenant (larger model, long utterances, loose SLO).
//! A BRAM budget that holds only one weight image per device makes
//! placement residency-aware: thrashing models across devices costs real
//! stall time.
//!
//! This sweep is also a correctness harness — it **asserts** that
//!
//! * EDF + cost-model misses strictly fewer deadlines than FIFO +
//!   earliest-free at the same load,
//! * every config's run is executor-blind
//!   ([`assert_executor_blind`]: everything but wall-clock time),
//! * every request's critical-path decomposition (queue + load + state +
//!   compute from [`analyze`]) sums exactly to that request's observed
//!   response latency, and
//! * the overloaded tight-SLO configs fire the multi-window SLO
//!   burn-rate alert while the shedding config's health stays clean of
//!   device-stuck/thrash/retry pathologies.
//!
//! Run with: `cargo run --release -p ernn-bench --bin sched_sweep`
//! (flags: [`SweepArgs`]; `--trace-out` exports the shed config's run,
//! timeline and health report included).

use ernn_bench::json::{array, JsonObject};
use ernn_bench::sweep::{
    acoustic_gru, assert_counters_match_responses, assert_executor_blind, SweepArgs,
    DIM as INPUT_DIM,
};
use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances};
use ernn_serve::sched::{AdmissionPolicy, ModelRegistry, PaddingModel, SchedPolicy, SchedRuntime};
use ernn_serve::{
    analyze, ExecutorKind, HealthConfig, HealthRuleKind, Request, RuntimeConfig, TimelineConfig,
    TraceConfig,
};

/// Interactive tenant: model 0, short utterances, tight SLO.
const INTERACTIVE_SLO_US: f64 = 60.0;
/// Batch tenant: model 1, long utterances, loose SLO.
const BATCH_SLO_US: f64 = 20_000.0;

fn registry() -> ModelRegistry {
    let mut reg = ModelRegistry::new();
    reg.register("gru-64-interactive", acoustic_gru(3, 64));
    reg.register("gru-256-batch", acoustic_gru(4, 256));
    reg
}

/// The fixed mixed load: 3 interactive requests to every batch request,
/// deadlines per tenant class (class-heterogeneous SLOs are what make
/// deadline-aware ordering matter — uniform SLOs degenerate EDF to FIFO).
fn load(num_requests: usize) -> Vec<Request> {
    let interactive = synthetic_utterances(8, (5, 15), INPUT_DIM, 21);
    let batch = synthetic_utterances(8, (30, 60), INPUT_DIM, 22);
    let arrivals = open_loop_poisson(&interactive, num_requests, 500_000.0, 23);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let arrival = r.arrival_us;
            if i % 4 == 3 {
                // i/4 so consecutive batch requests cycle the whole pool
                // (i itself only hits indices ≡ 3 mod 4).
                let payload = batch[(i / 4) % batch.len()].clone();
                Request::new(r.id, payload, arrival)
                    .with_model(1)
                    .with_deadline(arrival + BATCH_SLO_US)
            } else {
                r.with_model(0).with_deadline(arrival + INTERACTIVE_SLO_US)
            }
        })
        .collect()
}

struct Config {
    label: &'static str,
    policy: SchedPolicy,
}

/// Flight-recorder capacity: comfortably above the event count of the
/// full 600-request run, so the exported journal is complete
/// (`dropped_events: 0`).
const TRACE_CAPACITY: usize = 1 << 16;
/// Timeline sampling interval (µs): fine enough that even the quick
/// run's ~2 ms of virtual time yields a few dozen samples for the
/// health rules' windows.
const TIMELINE_INTERVAL_US: f64 = 50.0;
/// Timeline ring capacity: holds every sample of the full run
/// (`dropped: 0` is asserted).
const TIMELINE_CAPACITY: usize = 1 << 14;

fn main() {
    let args = SweepArgs::from_env();
    let num_requests = if args.quick { 200 } else { 600 };

    let reg = registry();
    // A weight budget that holds exactly one model per device: placement
    // must respect residency or pay the reload stall.
    let tight_budget = reg.weight_bytes(1) + reg.weight_bytes(0) / 2;
    println!(
        "models: {} ({} KiB), {} ({} KiB); per-device weight budget {} KiB",
        reg.name(0),
        reg.weight_bytes(0) / 1024,
        reg.name(1),
        reg.weight_bytes(1) / 1024,
        tight_budget / 1024
    );
    drop(reg);

    let platforms = vec![XCKU060, ADM_PCIE_7V3];
    let base = |policy: SchedPolicy| policy.with_bram_budget_bytes(tight_budget);
    let configs = [
        Config {
            label: "fifo+earliest_free",
            policy: base(SchedPolicy::fifo_earliest_free(8, 200.0)),
        },
        Config {
            label: "edf+cost_model",
            policy: base(SchedPolicy::edf_cost_model(8, 200.0)),
        },
        Config {
            label: "edf+cost+padding",
            policy: base(
                SchedPolicy::edf_cost_model(8, 200.0).with_padding(PaddingModel::new(0.4)),
            ),
        },
        Config {
            label: "edf+cost+shed",
            policy: base(
                SchedPolicy::edf_cost_model(8, 200.0)
                    .with_admission(AdmissionPolicy::ShedPredictedLate),
            ),
        },
    ];

    println!(
        "\n{:<20} {:>8} {:>6} {:>9} {:>9} {:>9} {:>8} {:>7}",
        "config", "served", "shed", "miss %", "p99 µs", "p99.9 µs", "loads", "evict"
    );
    let mut rows: Vec<String> = Vec::new();
    let mut miss_by_label: Vec<(&str, f64)> = Vec::new();
    for config in &configs {
        let run = |kind| {
            SchedRuntime::with_config(
                registry(),
                platforms.clone(),
                config.policy,
                RuntimeConfig::new()
                    .executor(kind)
                    .tracing(TraceConfig::enabled(TRACE_CAPACITY))
                    .timeline(TimelineConfig::enabled(
                        TIMELINE_INTERVAL_US,
                        TIMELINE_CAPACITY,
                    ))
                    .health(HealthConfig::enabled()),
            )
            .run(load(num_requests))
        };
        let report = run(ExecutorKind::Inline);

        // Correctness harness: the serial lane must reproduce every
        // virtual-time result bit for bit.
        assert_executor_blind(config.label, &report, &run(ExecutorKind::ThreadPool));
        assert_counters_match_responses(config.label, &report);
        assert_eq!(
            report.trace.journal.dropped, 0,
            "{}: trace overflow",
            config.label
        );
        assert_eq!(
            report.timeline.dropped, 0,
            "{}: timeline ring overflow",
            config.label
        );

        // Critical-path analysis: every served request's queue + load +
        // state + compute decomposition must sum exactly to the latency
        // its Response reports.
        let analysis = analyze(&report.trace.journal);
        assert_eq!(
            analysis.spans.len(),
            report.metrics.completed,
            "{}: analysis lost spans",
            config.label
        );
        for span in &analysis.spans {
            assert_eq!(
                span.total_us(),
                span.latency_us(),
                "{}: request {} decomposition does not sum",
                config.label,
                span.id
            );
            let response = report
                .responses
                .iter()
                .find(|r| r.id == span.id && !r.shed)
                .expect("span has a served response");
            assert_eq!(
                span.latency_us(),
                response.latency_us(),
                "{}: request {} span disagrees with its response",
                config.label,
                span.id
            );
        }

        // Health: the FIFO baseline overdrives the interactive SLO by
        // design (~19% miss rate against a 1% budget), so its run must
        // fire the multi-window burn-rate alert — and at full load its
        // residency-oblivious placement also trips the thrash detector.
        // The deadline-aware configs are the healthy contrast: low
        // enough burn to stay quiet on every pathology rule.
        let h = &report.health;
        if config.label == "fifo+earliest_free" {
            assert!(
                h.count(HealthRuleKind::SloBurnRate) >= 1,
                "{}: overloaded run did not fire the SLO burn-rate alert",
                config.label
            );
        } else {
            for rule in [
                HealthRuleKind::DeviceStuck,
                HealthRuleKind::ResidencyThrash,
                HealthRuleKind::RetryStorm,
            ] {
                assert_eq!(
                    h.count(rule),
                    0,
                    "{}: unexpected {rule:?} health event",
                    config.label
                );
            }
        }

        if config.label == "edf+cost+shed" {
            args.export(
                &report.metrics,
                &report.trace,
                Some(&report.sched),
                Some(&report.timeline),
                Some(&report.health),
                None,
            );
        }

        let m = &report.metrics;
        println!(
            "{:<20} {:>8} {:>6} {:>8.1}% {:>9.1} {:>9.1} {:>8} {:>7}",
            config.label,
            m.completed,
            m.shed,
            m.deadline_miss_rate * 100.0,
            m.latency.p99_us,
            m.latency.p999_us,
            report.sched.model_loads,
            report.sched.model_evictions
        );
        miss_by_label.push((config.label, m.deadline_miss_rate));

        let per_model = array(m.per_model.iter().map(|(id, pm)| {
            JsonObject::new()
                .int("model", *id as i64)
                .int("completed", pm.completed as i64)
                .int("shed", pm.shed as i64)
                .num("miss_rate", pm.deadline_miss_rate)
                .latency("", &pm.latency)
                .render()
        }));
        // The predictor's audit trail: every shed decision with the
        // prediction that justified it, so calibration is inspectable
        // per run straight from the artifact.
        let log = &report.sched.admission_log;
        let admitted = log.iter().filter(|r| r.admitted).count();
        let admission_shed = array(log.iter().filter(|r| !r.admitted).map(|r| {
            JsonObject::new()
                .int("id", r.id as i64)
                .int("model", r.model as i64)
                .num("predicted_us", r.predicted_us)
                .num("deadline_us", r.deadline_us.unwrap_or(f64::INFINITY))
                .render()
        }));
        // Per-(device, model) stage-time attribution from the trace:
        // where each cell's µs went (queueing, weight loads, compute,
        // batch padding).
        let attribution = array(report.trace.attribution.iter().map(|(device, model, c)| {
            JsonObject::new()
                .int("device", device as i64)
                .int("model", model as i64)
                .int("requests", c.requests as i64)
                .int("batches", c.batches as i64)
                .num("queue_us", c.queue_us)
                .num("load_us", c.load_us)
                .num("compute_us", c.compute_us)
                .num("padding_us", c.padding_us)
                .render()
        }));
        rows.push(
            JsonObject::new()
                .str("config", config.label)
                .int("completed", m.completed as i64)
                .int("shed", m.shed as i64)
                .num("miss_rate", m.deadline_miss_rate)
                .num("throughput_rps", m.throughput_rps)
                .latency("", &m.latency)
                .latency("queue_", &m.queue)
                .int("model_loads", report.sched.model_loads as i64)
                .int("model_evictions", report.sched.model_evictions as i64)
                .num("load_us_total", report.sched.load_us_total)
                .int("admission_decisions", log.len() as i64)
                .int("admission_admitted", admitted as i64)
                .raw("admission_shed", admission_shed)
                .raw("attribution", attribution)
                .int("trace_events", report.trace.journal.events.len() as i64)
                .int("timeline_samples", report.timeline.samples.len() as i64)
                .num("ewma_queue_us", report.timeline.ewma_queue_us)
                .int("health_events", report.health.events.len() as i64)
                .num("critical_path_queue_us", analysis.totals.queue_us)
                .num("critical_path_load_us", analysis.totals.load_us)
                .num("critical_path_state_us", analysis.totals.state_us)
                .num("critical_path_compute_us", analysis.totals.compute_us)
                .raw("per_model", per_model)
                .render(),
        );
    }

    let miss = |label: &str| {
        miss_by_label
            .iter()
            .find(|(l, _)| *l == label)
            .expect("config ran")
            .1
    };
    let fifo = miss("fifo+earliest_free");
    let edf = miss("edf+cost_model");
    println!(
        "\nEDF + cost-model miss rate {:.1}% vs FIFO + earliest-free {:.1}%",
        edf * 100.0,
        fifo * 100.0
    );
    assert!(
        edf < fifo,
        "EDF + cost-model must miss fewer deadlines than FIFO + earliest-free \
         ({edf:.4} vs {fifo:.4})"
    );
    println!("(assertions passed: EDF beats FIFO; executors bit-identical)");

    args.write_bench(
        JsonObject::new()
            .bench_header("sched_sweep")
            .int("requests", num_requests as i64)
            .num("interactive_slo_us", INTERACTIVE_SLO_US)
            .num("batch_slo_us", BATCH_SLO_US)
            .int("weight_budget_bytes", tight_budget as i64)
            .raw("rows", array(rows)),
    );
}
