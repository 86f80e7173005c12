//! Unit tests for the `trace` submodules (recorder, histogram,
//! attribution and the two exporters' structure).

use super::*;
use crate::health::{HealthEvent, HealthReport, HealthRuleKind};
use crate::metrics::ServeMetrics;

fn ev(t: f64) -> TraceEvent {
    TraceEvent::Enqueue {
        t_us: t,
        id: t as u64,
        model: 0,
        depth: 1,
    }
}

#[test]
fn disabled_recorder_records_nothing() {
    let mut r = FlightRecorder::disabled();
    assert!(!r.is_enabled());
    for i in 0..100 {
        r.record(ev(i as f64));
    }
    assert!(r.is_empty());
    assert_eq!(r.offered(), 0);
    assert_eq!(r.dropped(), 0);
    assert!(r.into_journal().events.is_empty());
}

#[test]
fn ring_buffer_keeps_the_most_recent_events() {
    let mut r = FlightRecorder::new(TraceConfig::enabled(4));
    for i in 0..10 {
        r.record(ev(i as f64));
    }
    assert_eq!(r.len(), 4);
    assert_eq!(r.offered(), 10);
    assert_eq!(r.dropped(), 6);
    let times: Vec<f64> = r.events().iter().map(|e| e.t_us()).collect();
    assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
    let journal = r.into_journal();
    assert_eq!(journal.dropped, 6);
    assert_eq!(journal.capacity, 4);
}

#[test]
#[should_panic(expected = "nonzero capacity")]
fn enabled_config_rejects_zero_capacity() {
    let _ = TraceConfig::enabled(0);
}

#[test]
fn histogram_tracks_exact_count_mean_max() {
    let mut h = LatencyHistogram::new();
    for v in [2.0, 4.0, 10.0, 100.0] {
        h.record(v);
    }
    assert_eq!(h.count(), 4);
    assert!((h.mean_us() - 29.0).abs() < 1e-12);
    assert_eq!(h.max_us(), 100.0);
}

#[test]
fn histogram_quantiles_never_underestimate() {
    let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 3.7).collect();
    let mut h = LatencyHistogram::new();
    let mut sorted = samples.clone();
    sorted.sort_by(f64::total_cmp);
    for &v in &samples {
        h.record(v);
    }
    for q in [0.5, 0.95, 0.99, 0.999, 1.0] {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = h.quantile(q);
        assert!(est >= exact - 1e-9, "q={q}: {est} < exact {exact}");
        assert!(
            est <= exact * (1.0 + LatencyHistogram::RELATIVE_ERROR_BOUND) + 1e-9,
            "q={q}: {est} overshoots exact {exact}"
        );
    }
}

#[test]
fn histogram_swallows_hostile_samples() {
    let mut h = LatencyHistogram::new();
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, 0.5, 2.0] {
        h.record(v);
    }
    assert_eq!(h.count(), 6);
    // Only the finite samples reach the exact stats.
    assert_eq!(h.max_us(), 2.0);
    assert!(h.sum_us().is_finite());
    // Quantiles stay finite and ordered.
    assert!(h.quantile(0.5) <= h.quantile(1.0));
    assert!(h.quantile(1.0).is_finite());
}

#[test]
fn histogram_merge_matches_combined_recording() {
    let (mut a, mut b, mut c) = (
        LatencyHistogram::new(),
        LatencyHistogram::new(),
        LatencyHistogram::new(),
    );
    for i in 0..50 {
        let v = (i * 17 % 900) as f64 + 0.5;
        if i % 2 == 0 {
            a.record(v);
        } else {
            b.record(v);
        }
        c.record(v);
    }
    a.merge(&b);
    assert_eq!(a, c);
}

#[test]
fn cumulative_buckets_are_monotone_and_total() {
    let mut h = LatencyHistogram::new();
    for i in 0..200 {
        h.record((i % 37) as f64 + 0.25);
    }
    let buckets = h.cumulative_buckets();
    assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
    assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(buckets.last().unwrap().1, 200);
    assert!(buckets.last().unwrap().0.is_infinite());
}

#[test]
fn attribution_accumulates_per_cell() {
    let mut a = StageAttribution::new();
    let delta = StageBreakdown {
        requests: 2,
        batches: 1,
        queue_us: 3.0,
        load_us: 1.0,
        state_us: 0.5,
        compute_us: 5.0,
        padding_us: 0.5,
        aborted_us: 0.25,
    };
    a.charge(0, 1, delta);
    a.charge(0, 1, delta);
    a.charge(1, 0, delta);
    assert_eq!(a.len(), 2);
    let cell = a.get(0, 1);
    assert_eq!(cell.requests, 4);
    assert_eq!(cell.batches, 2);
    assert!((cell.queue_us - 6.0).abs() < 1e-12);
    // busy_us counts productive occupancy only: aborted time is
    // tracked separately.
    assert!((cell.busy_us() - 13.0).abs() < 1e-12);
    assert!((cell.aborted_us - 0.5).abs() < 1e-12);
    assert_eq!(a.get(3, 3), StageBreakdown::default());
    let cells: Vec<(usize, usize)> = a.iter().map(|(d, m, _)| (d, m)).collect();
    assert_eq!(cells, vec![(0, 1), (1, 0)]);
}

#[test]
fn chrome_export_is_structurally_sound() {
    let mut r = FlightRecorder::new(TraceConfig::enabled(64));
    r.record(TraceEvent::Admit {
        t_us: 0.0,
        id: 7,
        model: 1,
        predicted_us: 12.5,
    });
    r.record(TraceEvent::Dequeue {
        t_us: 4.0,
        id: 7,
        model: 1,
        queued_us: 4.0,
    });
    r.record(TraceEvent::ResidencyLoad {
        t_us: 4.0,
        device: 0,
        model: 1,
        load_us: 2.0,
        stall_cycles: 400,
        evicted: 1,
    });
    r.record(TraceEvent::Dispatch {
        t_us: 4.0,
        device: 0,
        model: 1,
        size: 1,
        start_us: 4.0,
        busy_us: 8.0,
    });
    r.record(TraceEvent::Complete {
        t_us: 12.0,
        id: 7,
        device: 0,
        model: 1,
        arrival_us: 0.0,
        dispatch_us: 4.0,
        deadline_met: true,
    });
    r.record(TraceEvent::DeviceDown {
        t_us: 14.0,
        device: 0,
        down_us: f64::INFINITY,
    });
    r.record(TraceEvent::DeviceUp {
        t_us: 20.0,
        device: 2,
    });
    r.record(TraceEvent::RetryScheduled {
        t_us: 14.0,
        id: 8,
        device: 0,
        attempt: 1,
        retry_at_us: 14.5,
    });
    r.record(TraceEvent::Failover {
        t_us: 15.0,
        id: 8,
        from_device: 0,
        to_device: 2,
    });
    r.record(TraceEvent::StateMigration {
        t_us: 15.0,
        session: 3,
        from_device: 0,
        to_device: 2,
        reload_us: 0.75,
    });
    r.record(TraceEvent::Health {
        t_us: 16.0,
        rule: HealthRuleKind::SloBurnRate,
        device: None,
        value: 7.5,
        threshold: 5.0,
    });
    r.record(TraceEvent::Health {
        t_us: 17.0,
        rule: HealthRuleKind::DeviceStuck,
        device: Some(2),
        value: 8.0,
        threshold: 8.0,
    });
    let mut trace = RunTrace {
        journal: r.into_journal(),
        attribution: StageAttribution::new(),
    };
    trace.attribution.charge(0, 1, StageBreakdown::default());
    let doc = chrome_trace_json(&trace);
    assert!(doc.starts_with("{\"traceEvents\":["));
    assert!(doc.ends_with('}'));
    // Braces and brackets balance (no string in the doc contains
    // them, so plain counting is sound).
    let depth = doc.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced JSON nesting");
    for needle in [
        "\"admit\"",
        "\"queued\"",
        "\"load model 1\"",
        "\"batch model 1 ×1\"",
        "\"request 7\"",
        "\"process_name\"",
        "\"dropped_events\":0",
        "\"down\"",
        "\"up\"",
        "\"retry 8\"",
        "\"failover 8\"",
        "\"migrate session 3\"",
        "\"health slo_burn_rate\"",
        "\"health device_stuck\"",
        // The permanent crash's infinite down_us renders as 0, not
        // as bare `inf` (invalid JSON).
        "\"down_us\":0",
    ] {
        assert!(doc.contains(needle), "missing {needle} in {doc}");
    }
}

#[test]
fn prometheus_export_has_counters_histograms_and_stages() {
    use crate::request::{Response, Workload};
    let responses = vec![Response::served(
        0,
        0,
        Workload::Utterance,
        0.0,
        1.0,
        5.0,
        0,
        1,
        None,
    )];
    let metrics = ServeMetrics::compute(&responses, vec![4.0]);
    let mut trace = RunTrace::default();
    trace.attribution.charge(
        0,
        0,
        StageBreakdown {
            requests: 1,
            batches: 1,
            queue_us: 1.0,
            load_us: 0.0,
            state_us: 0.0,
            compute_us: 4.0,
            padding_us: 0.0,
            aborted_us: 0.0,
        },
    );
    let text = prometheus_snapshot(&metrics, &trace, None, None, None, None);
    assert!(text.contains("ernn_requests_completed_total 1"));
    assert!(text.contains("ernn_latency_us_bucket{le=\"+Inf\"} 1"));
    assert!(text.contains("ernn_latency_us_count 1"));
    assert!(text.contains("ernn_stage_us{device=\"0\",model=\"0\",stage=\"compute\"} 4"));
    assert!(text.contains("ernn_stage_requests_total{device=\"0\",model=\"0\"} 1"));
    // The plain snapshot carries no scheduler/timeline/health series.
    assert!(!text.contains("ernn_sched_"));
    assert!(!text.contains("ernn_timeline_"));
    assert!(!text.contains("ernn_health_"));
    // Every exposition line is either a comment or `name{labels} value`.
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.split(' ').count() == 2,
            "malformed line: {line}"
        );
    }
}

#[test]
fn full_prometheus_export_merges_sched_timeline_and_health() {
    use crate::request::{Response, Workload};
    use crate::sched::SchedStats;
    use crate::timeline::{Timeline, TimelineSample};

    let responses = vec![Response::served(
        0,
        0,
        Workload::Utterance,
        0.0,
        1.0,
        5.0,
        0,
        1,
        None,
    )];
    let metrics = ServeMetrics::compute(&responses, vec![4.0]);
    let trace = RunTrace::default();
    let sched = SchedStats {
        admitted: 10,
        model_loads: 3,
        state_loads: 1,
        retries_scheduled: 4,
        failovers: 1,
        state_migrations: 1,
        load_us_total: 123.5,
        ..SchedStats::default()
    };
    let timeline = Timeline {
        interval_us: 100.0,
        num_devices: 2,
        dropped: 1,
        ewma_queue_us: 250.25,
        samples: vec![TimelineSample {
            t_us: 100.0,
            queue_depth: 3,
            oldest_wait_us: 40.0,
            live_sessions: 2,
            weights_bytes: 2048,
            state_bytes: 128,
            ..TimelineSample::default()
        }],
        device_util: vec![0.75, 0.25],
    };
    let health = HealthReport {
        events: vec![HealthEvent {
            t_us: 100.0,
            rule: HealthRuleKind::RetryStorm,
            device: None,
            value: 9.0,
            threshold: 8.0,
        }],
        dropped: 0,
        ewma_queue_us: 250.25,
        samples_evaluated: 1,
    };
    let text = prometheus_snapshot(
        &metrics,
        &trace,
        Some(&sched),
        Some(&timeline),
        Some(&health),
        None,
    );
    for needle in [
        "ernn_sched_admitted_total 10",
        "ernn_requests_shed_total 0",
        "ernn_sched_model_loads_total 3",
        "ernn_sched_retries_scheduled_total 4",
        "ernn_sched_failovers_total 1",
        "ernn_sched_state_migrations_total 1",
        "ernn_sched_load_us_total 123.5",
        "ernn_timeline_samples_total 2",
        "ernn_ewma_queue_delay_us 250.25",
        "ernn_queue_depth 3",
        "ernn_residency_bytes{class=\"weights\"} 2048",
        "ernn_residency_bytes{class=\"state\"} 128",
        "ernn_device_utilization{device=\"0\"} 0.75",
        "ernn_device_utilization{device=\"1\"} 0.25",
        "ernn_health_events_total 1",
        "ernn_health_rule_fired_total{rule=\"retry_storm\"} 1",
        "ernn_health_rule_fired_total{rule=\"slo_burn_rate\"} 0",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
    // Line discipline holds for the merged series too.
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.split(' ').count() == 2,
            "malformed line: {line}"
        );
    }
}
