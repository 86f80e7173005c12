//! Golden bytes for the two trace exporters.
//!
//! One hand-built [`RunTrace`] holding exactly one event of each
//! [`TraceEvent`] variant (edge values included: a permanent crash's
//! infinite `down_us`, a run-wide `Health` event, a `Shed` whose
//! prediction is infinite) plus a two-cell attribution table, rendered by
//! [`chrome_trace_json`] and — with all four optional sections present —
//! [`prometheus_snapshot`], compared byte for byte with the strings
//! committed under `tests/golden/`. The other exporter tests are
//! structural; this one pins the bytes a refactor of `trace/` must keep.

use ernn_serve::sched::SchedStats;
use ernn_serve::{
    chrome_trace_json, prometheus_snapshot, FlightRecorder, HealthEvent, HealthReport,
    HealthRuleKind, Response, RunTrace, ServeMetrics, ShardGauges, ShedReason, StageAttribution,
    StageBreakdown, Timeline, TimelineSample, TraceConfig, TraceEvent, Workload,
};
use std::collections::HashSet;

/// One event of every variant, in declaration order.
#[rustfmt::skip]
fn every_event() -> Vec<TraceEvent> {
    use TraceEvent::*;
    let inf = f64::INFINITY;
    vec![
        Admit { t_us: 0.5, id: 7, model: 1, predicted_us: 12.5 },
        Shed { t_us: 1.0, id: 8, model: 0, predicted_us: inf, deadline_us: 40.25 },
        Enqueue { t_us: 0.5, id: 7, model: 1, depth: 3 },
        Dequeue { t_us: 4.0, id: 7, model: 1, queued_us: 3.5 },
        BatchFormed { t_us: 4.0, model: 1, size: 2, max_frames: 9, total_frames: 14 },
        ResidencyLoad { t_us: 4.0, device: 0, model: 1, load_us: 2.125, stall_cycles: 425, evicted: 1 },
        SessionStateLoad { t_us: 6.125, device: 0, session: 3, load_us: 0.75, stall_cycles: 150, evicted: 0 },
        Dispatch { t_us: 4.0, device: 0, model: 1, size: 2, start_us: 4.0, busy_us: 8.375 },
        Complete { t_us: 12.375, id: 7, device: 0, model: 1, arrival_us: 0.5, dispatch_us: 4.0, deadline_met: true },
        DeviceDown { t_us: 14.0, device: 0, down_us: inf },
        DeviceUp { t_us: 20.0, device: 2 },
        RetryScheduled { t_us: 14.0, id: 9, device: 0, attempt: 1, retry_at_us: 14.5 },
        Failover { t_us: 15.0, id: 9, from_device: 0, to_device: 2 },
        StateMigration { t_us: 15.0, session: 3, from_device: 0, to_device: 2, reload_us: 0.75 },
        Health { t_us: 16.0, rule: HealthRuleKind::SloBurnRate, device: None, value: 7.5, threshold: 5.0 },
        Forward { t_us: 0.25, id: 7, model: 1, shard: 4, transfer_us: 0.125 },
        Replicate { t_us: 30.0, model: 1, from_shard: 4, to_shard: 5, bytes: 65_536, transfer_us: 30.0 },
        ShardDown { t_us: 31.0, shard: 4, reclaimed: 2 },
        SessionReroute { t_us: 31.0, session: 3, from_shard: 4, to_shard: 5 },
    ]
}

fn trace() -> RunTrace {
    let events = every_event();
    let kinds: HashSet<_> = events.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 19, "one event per variant: {kinds:?}");
    // Capacity one short of the event count: the ring drops the first
    // event offered, so the nonzero `dropped` rendering is pinned too.
    let mut recorder = FlightRecorder::new(TraceConfig::enabled(events.len()));
    recorder.record(TraceEvent::DeviceUp {
        t_us: 0.0,
        device: 9,
    });
    for e in events {
        recorder.record(e);
    }
    let mut attribution = StageAttribution::new();
    attribution.charge(
        0,
        1,
        StageBreakdown {
            requests: 2,
            batches: 1,
            queue_us: 7.0,
            load_us: 2.125,
            state_us: 0.75,
            compute_us: 5.5,
            padding_us: 0.3125,
            aborted_us: 0.0,
        },
    );
    attribution.charge(
        2,
        0,
        StageBreakdown {
            aborted_us: 1.5,
            ..StageBreakdown::default()
        },
    );
    RunTrace {
        journal: recorder.into_journal(),
        attribution,
    }
}

fn metrics() -> ServeMetrics {
    let mut served = Response::served(7, 1, Workload::Utterance, 0.5, 4.0, 12.375, 0, 2, Some(9.0));
    served.logits = vec![vec![0.0; 2]; 9];
    let reason = ShedReason::DeadlineInfeasible;
    let shed = Response::shed_with(8, 0, Workload::Utterance, 1.0, Some(40.25), reason);
    ServeMetrics::compute(&[served, shed], vec![8.375, 0.0, 1.5])
}

fn snapshot() -> String {
    let sched = SchedStats {
        admitted: 10,
        model_loads: 3,
        model_evictions: 1,
        load_us_total: 123.5,
        state_loads: 5,
        state_evictions: 6,
        state_load_us_total: 3.75,
        device_crashes: 1,
        device_brownouts: 2,
        device_transients: 3,
        batches_aborted: 4,
        retries_scheduled: 5,
        retries_exhausted: 1,
        failovers: 2,
        state_migrations: 1,
    };
    let timeline = Timeline {
        interval_us: 100.0,
        num_devices: 2,
        dropped: 1,
        ewma_queue_us: 250.25,
        samples: vec![
            TimelineSample {
                t_us: 100.0,
                ..TimelineSample::default()
            },
            TimelineSample {
                t_us: 200.0,
                queue_depth: 3,
                oldest_wait_us: 40.5,
                live_sessions: 2,
                weights_bytes: 2048,
                state_bytes: 128,
                ..TimelineSample::default()
            },
        ],
        device_util: vec![0.5, 0.5, 0.75, 0.25],
    };
    let health = HealthReport {
        events: vec![HealthEvent {
            t_us: 200.0,
            rule: HealthRuleKind::RetryStorm,
            device: None,
            value: 9.0,
            threshold: 8.0,
        }],
        dropped: 2,
        ewma_queue_us: 250.25,
        samples_evaluated: 2,
    };
    let shards = [
        ShardGauges {
            shard: 4,
            ewma_queue_us: 1.5,
            resident_bytes: 4096,
            live_sessions: 0,
        },
        ShardGauges {
            shard: 5,
            ewma_queue_us: f64::INFINITY,
            resident_bytes: 0,
            live_sessions: 1,
        },
    ];
    prometheus_snapshot(
        &metrics(),
        &trace(),
        Some(&sched),
        Some(&timeline),
        Some(&health),
        Some(&shards),
    )
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    assert_eq!(
        chrome_trace_json(&trace()),
        include_str!("golden/every_event.trace.json").trim_end_matches('\n')
    );
}

#[test]
fn full_prometheus_snapshot_bytes_are_pinned() {
    assert_eq!(snapshot(), include_str!("golden/every_section.prom"));
}
