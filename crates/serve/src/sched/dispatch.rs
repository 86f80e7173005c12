//! Batch dispatch: placement, the prospective occupancy window, commit,
//! and the fault reactions that can pre-empt it (abort and retry, crash
//! and recovery application). Everything here is a method of the one
//! [`SchedEngine`]; a request this path cannot serve leaves through
//! [`SchedEngine::shed`] like any other.

use super::cost::CostModel;
use super::engine::{Arrival, RetryInfo, SchedEngine};
use super::registry::ModelId;
use super::residency::{DeviceResidency, ImageKey};
use super::runtime::Placement;
use crate::config::{backoff_us, MAX_RETRY_ATTEMPTS};
use crate::executor::{Executor, InferenceJob, SessionSlot};
use crate::request::{Request, Response, ShedReason, Workload};
use crate::trace::TraceEvent;
use ernn_fpga::{DeviceFault, FaultEffect, FaultHit, StageCycles};

impl SchedEngine<'_, '_> {
    /// Applies every fault effect the virtual clock has reached.
    /// Idempotent — each fault applies exactly once.
    pub(super) fn apply_faults_up_to(&mut self) {
        while let Some(effect) = self.faults.pop_due(self.now_us) {
            self.apply_fault(effect);
        }
    }

    /// One fault effect lands. A crash wipes its device's images,
    /// journals the outage, makes the device unavailable until recovery
    /// and (under failover) unbinds every streaming session pinned to it
    /// so their next chunks re-place and migrate; a recovery brings the
    /// device back; brownout onsets and transients are counted.
    fn apply_fault(&mut self, effect: FaultEffect) {
        let event = match effect {
            FaultEffect::Strike(event) => event,
            FaultEffect::Recovery { device, t_us } => {
                self.obs.record(TraceEvent::DeviceUp { t_us, device });
                return;
            }
        };
        let (device, start_us) = (event.device, event.t_us);
        match event.fault {
            DeviceFault::Crash { down_us } => {
                let end_us = start_us + down_us;
                self.stats.device_crashes += 1;
                self.residency[device].wipe();
                self.obs.record(TraceEvent::DeviceDown {
                    t_us: start_us,
                    device,
                    // The width the recovery instant implies, rounding included.
                    down_us: end_us - start_us,
                });
                self.free_at_us[device] = self.free_at_us[device].max(end_us);
                if self.rt.config().failover {
                    for entry in self.sessions.values_mut() {
                        if entry.device == Some(device) && !entry.cancelled {
                            entry.last_device = Some(device);
                            entry.device = None;
                        }
                    }
                }
            }
            DeviceFault::Brownout { .. } => self.stats.device_brownouts += 1,
            DeviceFault::Transient => self.stats.device_transients += 1,
        }
    }

    /// The device a formed batch of `total_frames` frames of `model`
    /// lands on under the placement policy. A crashed device's free
    /// time sits at its recovery point, so placement steers around
    /// outages on its own.
    fn place(&self, model: ModelId, total_frames: u64) -> Option<usize> {
        let eligible = (0..self.free_at_us.len()).filter(|&d| self.rt.eligible(d, model));
        match self.rt.policy.placement {
            Placement::EarliestFree => {
                eligible.min_by(|&a, &b| self.free_at_us[a].total_cmp(&self.free_at_us[b]))
            }
            Placement::CostModel => eligible.min_by(|&a, &b| {
                self.predicted_finish_us(a, model, total_frames)
                    .total_cmp(&self.predicted_finish_us(b, model, total_frames))
            }),
        }
    }

    /// Forms and places the next batch (the queue must be non-empty).
    ///
    /// Fault handling happens here, **before commit**: the batch's
    /// prospective occupancy window is computed exactly as the
    /// residency layer will charge it and the device clock will commit
    /// it, the fault schedule is scanned over that window, and a crash
    /// or transient hit aborts the batch — the device is charged the
    /// wasted time as a stall and every member retries through the
    /// arrival queue (or sheds once its retry budget is spent). Nothing
    /// is ever committed across an abort. A batch whose chosen device
    /// can never come back (a permanently crashed pinned device) sheds
    /// whole as [`ShedReason::CapacityLoss`].
    pub(super) fn dispatch(&mut self) {
        self.apply_faults_up_to();
        let Some(head) = self.queue.head() else {
            debug_assert!(false, "dispatch on an empty queue");
            return;
        };
        let model = head.model;
        let taken = {
            // Disjoint field borrows: formation mutates the queue while
            // the affinity closure reads the session table.
            let sessions = &self.sessions;
            let affinity = |s: u64| sessions.get(&s).and_then(|e| e.device);
            let policy = &self.rt.policy;
            self.queue
                .take_batch(model, policy.max_batch, &policy.padding, &affinity)
        };
        let batch = taken.batch;
        debug_assert!(!batch.is_empty(), "head model yields a non-empty batch");
        self.frame_counts.clear();
        self.frame_counts
            .extend(batch.iter().map(|r| r.num_frames() as u64));
        let total_frames: u64 = self.frame_counts.iter().sum();
        let bytes = self.rt.registry().weight_bytes(model);

        // Session affinity beats placement policy: a batch carrying a
        // bound session must run where that session's state lives.
        let device = taken.pinned.or_else(|| self.place(model, total_frames));
        // No device at all is unreachable given construction eligibility
        // checks; an infinite start means the batch is pinned (or
        // placed) onto a device that never comes back. Either way the
        // members were already admitted, so they respond as
        // capacity-loss sheds.
        let start = device.map(|d| (d, self.now_us.max(self.free_at_us[d])));
        let Some((device, start_us)) = start.filter(|&(_, start_us)| start_us.is_finite()) else {
            for request in batch {
                self.shed(
                    request,
                    self.now_us,
                    f64::INFINITY,
                    ShedReason::CapacityLoss,
                );
            }
            return;
        };

        // Pin the working set: nothing this batch needs may be evicted
        // by the batch's own loads — which also makes the prospective
        // setup below exact against the ensures that follow.
        self.residency[device].pin(ImageKey::Weights(model));
        for r in &batch {
            if let Some(session) = r.session() {
                self.residency[device].pin(ImageKey::State(session));
            }
        }

        // Prospective occupancy window [start, end): mirrors the
        // residency charges below, and is the window the device clock
        // commits, so a fault inside it can abort before anything is
        // committed.
        let state_bytes = self.rt.registry().model(model).state_bytes();
        let w_load_us = if self.residency[device].is_resident(model) {
            0.0
        } else {
            DeviceResidency::load_us(bytes)
        };
        let mut prospective_state_us = 0.0;
        self.seen_sessions.clear();
        for r in &batch {
            let Some(session) = r.session() else { continue };
            if self.seen_sessions.contains(&session) {
                continue; // a later chunk of the same session hits
            }
            self.seen_sessions.push(session);
            let materialized = self.sessions.get(&session).is_some_and(|e| e.materialized);
            if materialized && !self.residency[device].is_state_resident(session) {
                prospective_state_us += DeviceResidency::load_us(state_bytes);
            }
        }
        let setup_us = w_load_us + prospective_state_us;
        // A brownout active at occupancy start stretches the whole
        // batch (the multiplier is sampled once — a batch is the unit
        // of degradation).
        let mult = self.faults.cycle_multiplier(device, start_us);
        let stages = self.cost.stages(device, model, mult);
        let batch_us = CostModel::stream_us(stages, total_frames);
        let end_us = start_us + setup_us + batch_us;

        // Scan [now, end) — a fault striking before the batch even
        // starts (while the device runs earlier committed work) dooms
        // it just the same.
        if let Some(hit) = self.faults.abort_between(device, self.now_us, end_us) {
            self.residency[device].unpin_all();
            self.abort_batch(batch, device, model, start_us, hit);
            return;
        }

        let load = self.residency[device].ensure(model, bytes);
        if load.loaded {
            self.stats.model_loads += 1;
            self.stats.load_us_total += load.load_us;
        }
        self.stats.model_evictions += load.evicted_weights();
        self.stats.state_evictions += load.evicted_states();

        // Bind first chunks to this device and make every member
        // session's state image resident. First materialization is free
        // (the zero state is fabricated on-device); re-materializing an
        // evicted state streams it back and stalls the device like a
        // weight load. Stalls queue after the weight load. A session
        // unbound by a crash re-pins here, and the reload charge above
        // doubles as the migration's streaming cost. Its host-side
        // recurrent state stays where it is: the executor keeps one
        // session table whatever the device.
        let mut state_us = 0.0;
        self.state_loads.clear();
        for r in &batch {
            let Some(session) = r.session() else { continue };
            let entry = self
                .sessions
                .get_mut(&session)
                .expect("admitted chunk has a session entry");
            let mut migrated_from: Option<usize> = None;
            if entry.device.is_none() {
                entry.device = Some(device);
                if let Some(old) = entry.last_device.take() {
                    if old != device {
                        migrated_from = Some(old);
                    }
                }
            }
            let reload = entry.materialized;
            entry.materialized = true;
            let ev = self.residency[device].ensure_state(session, state_bytes, reload);
            if ev.loaded {
                self.stats.state_loads += 1;
                self.stats.state_load_us_total += ev.load_us;
                self.state_loads
                    .push((session, ev.load_us, ev.evicted.len()));
                state_us += ev.load_us;
            }
            self.stats.model_evictions += ev.evicted_weights();
            self.stats.state_evictions += ev.evicted_states();
            if let Some(old) = migrated_from {
                self.stats.state_migrations += 1;
                self.obs.record(TraceEvent::StateMigration {
                    t_us: self.now_us,
                    session,
                    from_device: old,
                    to_device: device,
                    reload_us: ev.load_us,
                });
            }
        }
        self.residency[device].unpin_all();
        debug_assert_eq!(
            (load.load_us + state_us).to_bits(),
            setup_us.to_bits(),
            "the residency charges diverged from the prospective setup"
        );

        self.commit_clock(device, start_us, setup_us, stages, batch_us);
        self.obs.batch_dispatched(
            self.now_us,
            model,
            &batch,
            &self.frame_counts,
            device,
            start_us,
            end_us,
            load.load_us,
            state_us,
            stages.ii(),
        );
        if load.loaded {
            self.obs
                .residency_load(start_us, device, model, load.load_us, load.evicted.len());
        }
        let mut stall_at = start_us + load.load_us;
        for &(session, load_us, evicted) in &self.state_loads {
            self.obs
                .session_state_load(stall_at, device, session, load_us, evicted);
            stall_at += load_us;
        }

        let batch_size = batch.len();
        let mut jobs = self.executor.job_buffer();
        for (member, request) in batch.into_iter().enumerate() {
            let complete_us = self.complete_us[member];
            let Request {
                id,
                model,
                frames,
                arrival_us,
                deadline_us,
                workload,
            } = request;
            // A retried request committing on a different device than
            // the one whose fault aborted it completed a failover.
            if let Some(info) = self.retries.remove(&id) {
                if info.last_device != device {
                    self.stats.failovers += 1;
                    self.obs.record(TraceEvent::Failover {
                        t_us: self.now_us,
                        id,
                        from_device: info.last_device,
                        to_device: device,
                    });
                }
            }
            let session = match workload {
                Workload::Chunk { session, last, .. } => {
                    if last {
                        // The session ends here: free its state image and
                        // its live slot (validation guarantees no chunk
                        // follows one marked `last`).
                        self.residency[device].release_state(session);
                        let entry = self
                            .sessions
                            .get_mut(&session)
                            .expect("dispatched chunk has a session entry");
                        if entry.counted {
                            self.live_sessions -= 1;
                            entry.counted = false;
                        }
                    }
                    Some(SessionSlot { id: session, last })
                }
                _ => None,
            };
            jobs.push(InferenceJob {
                slot: self.responses.len(),
                device,
                model,
                frames,
                session,
            });
            self.responses.push(Response::served(
                id,
                model,
                workload,
                arrival_us,
                start_us,
                complete_us,
                device,
                batch_size,
                deadline_us,
            ));
            let response = self.responses.last().expect("just pushed");
            self.obs.completed(response);
            self.timeline.observe_queue_delay(response.queue_us());
            self.completed += 1;
            if response.deadline_tracked && !response.deadline_met {
                self.deadline_misses += 1;
            }
            self.feedback_arrival(complete_us);
        }
        self.executor.submit_batch(jobs);
    }

    /// Commits a batch to `device`'s clock: from `start_us` the device
    /// stalls `setup_us` for weight and state loads, then streams the
    /// members' frames (`self.frame_counts`) back to back through
    /// `stages` for `batch_us` — the window the fault scan checked.
    /// Member `j` completes when its last frame, the cumulative count
    /// through `j`, leaves the pipeline; those times go to
    /// `self.complete_us`.
    pub(super) fn commit_clock(
        &mut self,
        device: usize,
        start_us: f64,
        setup_us: f64,
        stages: StageCycles,
        batch_us: f64,
    ) {
        let compute_start_us = start_us + setup_us;
        self.free_at_us[device] = compute_start_us + batch_us;
        self.busy_us[device] += setup_us + batch_us;
        self.complete_us.clear();
        let mut streamed = 0;
        for &frames in &self.frame_counts {
            streamed += frames;
            let complete_us = compute_start_us + CostModel::stream_us(stages, streamed);
            self.complete_us.push(complete_us);
        }
    }

    /// A fault struck the batch's prospective occupancy window: charge
    /// the device for the time it really burned, apply the fault's
    /// effects, and send every member back through the arrival queue
    /// after its backoff — or shed it once its retry budget is spent.
    fn abort_batch(
        &mut self,
        batch: Vec<Request>,
        device: usize,
        model: ModelId,
        start_us: f64,
        hit: FaultHit,
    ) {
        self.stats.batches_aborted += 1;
        let f = hit.t_us;
        if f > start_us {
            // The device held the batch from its start to the fault —
            // real occupancy, zero useful work.
            self.busy_us[device] += f - start_us;
            self.free_at_us[device] = self.free_at_us[device].max(f);
            self.obs.batch_aborted(device, model, f - start_us);
        }
        // Apply the fault right now rather than waiting for the clock
        // cursor: the abort IS the crash landing, or the transient's one
        // victim.
        let effect = self.faults.strike(hit);
        self.apply_fault(effect);
        for request in batch {
            let info = self.retries.entry(request.id).or_insert(RetryInfo {
                attempts: 0,
                last_device: device,
            });
            info.attempts += 1;
            info.last_device = device;
            let attempt = info.attempts;
            if attempt > MAX_RETRY_ATTEMPTS {
                self.stats.retries_exhausted += 1;
                self.shed(request, f, f64::INFINITY, ShedReason::CapacityLoss);
            } else {
                let retry_at_us = f + backoff_us(attempt);
                self.stats.retries_scheduled += 1;
                self.obs.record(TraceEvent::RetryScheduled {
                    t_us: f,
                    id: request.id,
                    device,
                    attempt,
                    retry_at_us,
                });
                let seq = self.admit_seq;
                self.admit_seq += 1;
                self.arrivals.push(Arrival {
                    t_us: retry_at_us,
                    seq,
                    request,
                });
            }
        }
    }
}
