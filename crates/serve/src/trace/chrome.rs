//! Chrome trace-event JSON rendering of a [`RunTrace`] (Perfetto /
//! `chrome://tracing`).

use super::{num, RunTrace, TraceEvent};
use std::fmt::Write as _;

/// Renders a [`RunTrace`] as a Chrome trace-event JSON document, loadable
/// in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
///
/// Layout: process 0 is the scheduler (one track per model: queue spans
/// and request spans), process 1 is the device pool (one track per
/// device: batch and weight-load spans). Timestamps are virtual
/// microseconds, so the rendering is byte-identical across executors
/// whenever the journals are.
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    let mut models: Vec<usize> = Vec::new();
    let mut devices: Vec<usize> = Vec::new();
    let mut shards: Vec<usize> = Vec::new();
    let note = |list: &mut Vec<usize>, v: usize| {
        if !list.contains(&v) {
            list.push(v);
        }
    };
    for e in &trace.journal.events {
        match *e {
            TraceEvent::Admit { model, .. }
            | TraceEvent::Shed { model, .. }
            | TraceEvent::Enqueue { model, .. }
            | TraceEvent::Dequeue { model, .. }
            | TraceEvent::BatchFormed { model, .. } => note(&mut models, model),
            TraceEvent::ResidencyLoad { device, model, .. }
            | TraceEvent::Dispatch { device, model, .. }
            | TraceEvent::Complete { device, model, .. } => {
                note(&mut models, model);
                note(&mut devices, device);
            }
            TraceEvent::SessionStateLoad { device, .. }
            | TraceEvent::DeviceDown { device, .. }
            | TraceEvent::DeviceUp { device, .. }
            | TraceEvent::RetryScheduled { device, .. } => note(&mut devices, device),
            TraceEvent::Failover {
                from_device,
                to_device,
                ..
            }
            | TraceEvent::StateMigration {
                from_device,
                to_device,
                ..
            } => {
                note(&mut devices, from_device);
                note(&mut devices, to_device);
            }
            TraceEvent::Health { device, .. } => {
                if let Some(d) = device {
                    note(&mut devices, d);
                }
            }
            TraceEvent::Forward { shard, .. } | TraceEvent::ShardDown { shard, .. } => {
                note(&mut shards, shard)
            }
            TraceEvent::Replicate {
                from_shard,
                to_shard,
                ..
            }
            | TraceEvent::SessionReroute {
                from_shard,
                to_shard,
                ..
            } => {
                note(&mut shards, from_shard);
                note(&mut shards, to_shard);
            }
        }
    }
    models.sort_unstable();
    devices.sort_unstable();
    shards.sort_unstable();

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&ev);
    };

    // Metadata: name the two processes and their tracks.
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"scheduler\"}}"
            .to_string(),
    );
    push(
        &mut out,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"devices\"}}"
            .to_string(),
    );
    for &m in &models {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{m},\
                 \"args\":{{\"name\":\"model {m}\"}}}}"
            ),
        );
    }
    for &d in &devices {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{d},\
                 \"args\":{{\"name\":\"device {d}\"}}}}"
            ),
        );
    }
    // Process 2 appears only in cluster-router journals: one track per
    // shard for forwards, replication, kills and session reroutes.
    if !shards.is_empty() {
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"cluster\"}}"
                .to_string(),
        );
        for &s in &shards {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{s},\
                     \"args\":{{\"name\":\"shard {s}\"}}}}"
                ),
            );
        }
    }

    for e in &trace.journal.events {
        let ev = match *e {
            TraceEvent::Admit {
                t_us,
                id,
                model,
                predicted_us,
            } => format!(
                "{{\"name\":\"admit\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id},\"predicted_us\":{}}}}}",
                num(t_us),
                num(predicted_us)
            ),
            TraceEvent::Shed {
                t_us,
                id,
                model,
                predicted_us,
                deadline_us,
            } => format!(
                "{{\"name\":\"shed\",\"cat\":\"admission\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id},\"predicted_us\":{},\"deadline_us\":{}}}}}",
                num(t_us),
                num(predicted_us),
                num(deadline_us)
            ),
            TraceEvent::Enqueue {
                t_us,
                id,
                model,
                depth,
            } => format!(
                "{{\"name\":\"enqueue\",\"cat\":\"queue\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id},\"depth\":{depth}}}}}",
                num(t_us)
            ),
            TraceEvent::Dequeue {
                t_us,
                id,
                model,
                queued_us,
            } => format!(
                // The queue wait rendered as a span ending at dequeue.
                "{{\"name\":\"queued\",\"cat\":\"queue\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"id\":{id}}}}}",
                num(t_us - queued_us),
                num(queued_us)
            ),
            TraceEvent::BatchFormed {
                t_us,
                model,
                size,
                max_frames,
                total_frames,
            } => format!(
                "{{\"name\":\"batch_formed\",\"cat\":\"batch\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"size\":{size},\"max_frames\":{max_frames},\
                 \"padded_frames\":{}}}}}",
                num(t_us),
                size as u64 * max_frames - total_frames
            ),
            TraceEvent::ResidencyLoad {
                t_us,
                device,
                model,
                load_us,
                stall_cycles,
                evicted,
            } => format!(
                "{{\"name\":\"load model {model}\",\"cat\":\"residency\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"stall_cycles\":{stall_cycles},\"evicted\":{evicted}}}}}",
                num(t_us),
                num(load_us)
            ),
            TraceEvent::SessionStateLoad {
                t_us,
                device,
                session,
                load_us,
                stall_cycles,
                evicted,
            } => format!(
                "{{\"name\":\"state session {session}\",\"cat\":\"residency\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"stall_cycles\":{stall_cycles},\"evicted\":{evicted}}}}}",
                num(t_us),
                num(load_us)
            ),
            TraceEvent::Dispatch {
                t_us: _,
                device,
                model,
                size,
                start_us,
                busy_us,
            } => format!(
                "{{\"name\":\"batch model {model} ×{size}\",\"cat\":\"device\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"model\":{model},\"size\":{size}}}}}",
                num(start_us),
                num(busy_us)
            ),
            TraceEvent::Complete {
                t_us,
                id,
                device,
                model,
                arrival_us,
                dispatch_us: _,
                deadline_met,
            } => format!(
                "{{\"name\":\"request {id}\",\"cat\":\"request\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{model},\
                 \"args\":{{\"device\":{device},\"deadline_met\":{deadline_met}}}}}",
                num(arrival_us),
                num(t_us - arrival_us)
            ),
            TraceEvent::DeviceDown {
                t_us,
                device,
                down_us,
            } => format!(
                // A permanent crash (infinite down_us) renders with
                // dur 0 via num(); the instant marker still shows it.
                "{{\"name\":\"down\",\"cat\":\"fault\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"down_us\":{}}}}}",
                num(t_us),
                num(down_us),
                num(down_us)
            ),
            TraceEvent::DeviceUp { t_us, device } => format!(
                "{{\"name\":\"up\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":1,\"tid\":{device},\"args\":{{}}}}",
                num(t_us)
            ),
            TraceEvent::RetryScheduled {
                t_us,
                id,
                device,
                attempt,
                retry_at_us,
            } => format!(
                "{{\"name\":\"retry {id}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":1,\"tid\":{device},\
                 \"args\":{{\"id\":{id},\"attempt\":{attempt},\"retry_at_us\":{}}}}}",
                num(t_us),
                num(retry_at_us)
            ),
            TraceEvent::Failover {
                t_us,
                id,
                from_device,
                to_device,
            } => format!(
                "{{\"name\":\"failover {id}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":1,\"tid\":{to_device},\
                 \"args\":{{\"id\":{id},\"from_device\":{from_device}}}}}",
                num(t_us)
            ),
            TraceEvent::StateMigration {
                t_us,
                session,
                from_device,
                to_device,
                reload_us,
            } => format!(
                "{{\"name\":\"migrate session {session}\",\"cat\":\"fault\",\"ph\":\"i\",\
                 \"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{to_device},\
                 \"args\":{{\"session\":{session},\"from_device\":{from_device},\
                 \"reload_us\":{}}}}}",
                num(t_us),
                num(reload_us)
            ),
            TraceEvent::Health {
                t_us,
                rule,
                device,
                value,
                threshold,
            } => {
                // Per-device rules land on the device track; run-wide
                // rules land on the scheduler process.
                let (pid, tid) = match device {
                    Some(d) => (1, d),
                    None => (0, 0),
                };
                format!(
                    "{{\"name\":\"health {}\",\"cat\":\"health\",\"ph\":\"i\",\"s\":\"g\",\
                     \"ts\":{},\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"value\":{},\"threshold\":{}}}}}",
                    rule.label(),
                    num(t_us),
                    num(value),
                    num(threshold)
                )
            }
            TraceEvent::Forward {
                t_us,
                id,
                model,
                shard,
                transfer_us,
            } => format!(
                "{{\"name\":\"forward {id}\",\"cat\":\"cluster\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":2,\"tid\":{shard},\
                 \"args\":{{\"id\":{id},\"model\":{model},\"transfer_us\":{}}}}}",
                num(t_us),
                num(transfer_us)
            ),
            TraceEvent::Replicate {
                t_us,
                model,
                from_shard,
                to_shard,
                bytes,
                transfer_us,
            } => format!(
                // The wire time rendered as a span ending when the
                // replica becomes servable.
                "{{\"name\":\"replicate model {model}\",\"cat\":\"cluster\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{to_shard},\
                 \"args\":{{\"model\":{model},\"from_shard\":{from_shard},\"bytes\":{bytes}}}}}",
                num(t_us - transfer_us),
                num(transfer_us)
            ),
            TraceEvent::ShardDown {
                t_us,
                shard,
                reclaimed,
            } => format!(
                "{{\"name\":\"shard down\",\"cat\":\"cluster\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{},\"pid\":2,\"tid\":{shard},\
                 \"args\":{{\"reclaimed\":{reclaimed}}}}}",
                num(t_us)
            ),
            TraceEvent::SessionReroute {
                t_us,
                session,
                from_shard,
                to_shard,
            } => format!(
                "{{\"name\":\"reroute session {session}\",\"cat\":\"cluster\",\"ph\":\"i\",\
                 \"s\":\"t\",\"ts\":{},\"pid\":2,\"tid\":{to_shard},\
                 \"args\":{{\"session\":{session},\"from_shard\":{from_shard}}}}}",
                num(t_us)
            ),
        };
        push(&mut out, ev);
    }
    let _ = write!(
        out,
        "],\"otherData\":{{\"dropped_events\":{},\"capacity\":{}}}}}",
        trace.journal.dropped, trace.journal.capacity
    );
    out
}
