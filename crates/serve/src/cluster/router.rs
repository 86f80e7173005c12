//! The front-end router: one virtual clock driving every shard.
//!
//! [`ClusterRuntime::run`] merges the request stream with the
//! shard-kill schedule into a single time-ordered event list. At each
//! event it first brings every live shard engine to the event time —
//! so steering always reads the load a real router would observe — and
//! then decides: forward (charging the frames' wire time and waiting
//! out replica readiness), re-pin, or shed with
//! [`ShedReason::NoShardCapacity`]. Kills at time *t* are processed
//! before arrivals at *t*, so a request arriving the instant its shard
//! dies reroutes instead of vanishing.
//!
//! Determinism: events are totally ordered by `(time, kind, id)`,
//! steering is a pure function of placement, replica readiness and the
//! shards' virtual-time gauges, and the shards run the unmodified
//! scheduler loop — so the merged responses, metrics, stats and both
//! journals are bit-identical across host executors.
//!
//! The clock is event-driven: the router keeps each shard's next event
//! time ([`SchedEngine::next_event_us`]) in one contiguous `next_due`
//! vector and, at an event at time *t*, steps only the shards with
//! `next_due ≤ t`. That is exact, not approximate — `run_until(t)` on an
//! engine whose next event lies after *t* mutates nothing — and the
//! wake-every-shard loop it replaced survives as the `#[cfg(test)]`
//! oracle the differential test below compares against.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use super::placement::{splitmix64, PlacementMap};
use super::shard::ShardSim;
use super::{ClusterReport, ClusterRuntime, ClusterStats, ShardReport, Steering};
use crate::executor::{lane_scope, Lane};
use crate::metrics::ServeMetrics;
use crate::request::{validate_load, Request, Response, ShedReason, Workload};
use crate::sched::SchedEngine;
use crate::trace::{Observer, ShardGauges, TraceEvent};
use ernn_fpga::transfer::TransferModel;

/// What the router remembers about every request of the run: the
/// cluster-global metadata that shard-local responses must get back
/// before they are returned to the caller. The run's route table holds
/// one per request, sorted by id, so a request's position in it is also
/// its position in the merged, id-ordered response list.
struct RouteMeta {
    id: u64,
    model: usize,
    workload: Workload,
    arrival_us: f64,
}

/// A streaming session's pin. Rerouting mints a fresh shard-local
/// session id (`local`) with chunk indices restarting at 0, so each
/// shard sees a self-consistent session regardless of cluster history.
struct SessionRoute {
    shard: usize,
    local: u64,
    next_index: u32,
    /// Monotonicity guard: per-chunk wire time varies with payload
    /// size, so a later chunk's `arrival + hop` could land before an
    /// earlier chunk's — the shard-local arrival is clamped to never
    /// run backwards within an incarnation.
    last_arrival_us: f64,
}

/// The rank of request `id` in the id-sorted route table: the index of
/// its [`RouteMeta`] and of its slot in the merged response list.
fn rank_of(routes: &[RouteMeta], id: u64) -> usize {
    routes
        .binary_search_by_key(&id, |m| m.id)
        .expect("every request a shard holds came through the route table")
}

fn frame_bytes(frames: &[Vec<f32>]) -> u64 {
    frames.iter().map(|f| f.len() as u64).sum::<u64>() * 4
}

fn chunk_index(r: &Request) -> u32 {
    match r.workload {
        Workload::Chunk { index, .. } => index,
        Workload::Utterance => 0,
    }
}

/// The router's mutable world while a run is in flight.
struct Router<'rt, 'p> {
    placement: &'p PlacementMap,
    transfer: TransferModel,
    steering: Steering,
    failover: bool,
    sims: Vec<ShardSim<'rt>>,
    /// Per shard: `(effective arrival, estimated service µs)` of
    /// requests forwarded but still on the wire. A shard engine cannot
    /// see a request until its hop completes, so without this term
    /// every arrival inside one wire-time window would herd onto the
    /// same least-loaded shard. Pruned against the clock in
    /// [`Router::advance`].
    inflight: Vec<Vec<(f64, f64)>>,
    /// Per shard: the virtual time of its engine's next event (`∞` for
    /// an idle, engine-less or dead shard). Invariant: `next_due[s] ≤
    /// engine.next_event_us()` for every live shard — refreshed after
    /// each `run_until`, lowered on each `offer` — so a shard with
    /// `next_due > t` has nothing to do at `t` and is not touched.
    next_due: Vec<f64>,
    /// `model × shards + shard →` virtual time the replica becomes
    /// servable (`∞` where the shard holds no replica).
    ready: Vec<f64>,
    sessions: HashMap<u64, SessionRoute>,
    /// Every request of the run, sorted by id.
    routes: Vec<RouteMeta>,
    next_local_session: u64,
    obs: Observer,
    stats: ClusterStats,
    sheds: Vec<Response>,
    /// Test oracle switch: step every live shard at every event, as the
    /// router did before it kept `next_due`.
    #[cfg(test)]
    wake_all: bool,
}

impl Router<'_, '_> {
    /// Brings the cluster to virtual time `t`: steps every live shard
    /// whose next event is due, and drops its in-flight records for
    /// forwards that have landed (the engine now counts them in its own
    /// backlog). A shard that is not due is not touched: every in-flight
    /// forward is an arrival in its engine's heap, so `next_due ≤` each
    /// record's landing time and there is nothing to drop either.
    fn advance(&mut self, t: f64) {
        #[cfg(test)]
        if self.wake_all {
            return self.advance_wake_all(t);
        }
        for s in 0..self.sims.len() {
            if self.next_due[s] > t || !self.sims[s].alive {
                continue;
            }
            if let Some(engine) = self.sims[s].engine.as_mut() {
                engine.run_until(t);
                self.next_due[s] = engine.next_event_us();
            }
            self.inflight[s].retain(|&(effective, _)| effective > t);
        }
    }

    /// The pre-`next_due` clock, verbatim: advances every live shard to
    /// `t` and prunes every shard's in-flight records.
    #[cfg(test)]
    fn advance_wake_all(&mut self, t: f64) {
        for sim in self.sims.iter_mut().filter(|s| s.alive) {
            if let Some(engine) = sim.engine.as_mut() {
                engine.run_until(t);
            }
        }
        for pending in &mut self.inflight {
            pending.retain(|&(effective, _)| effective > t);
        }
    }

    /// When `model`'s replica on shard `s` becomes servable.
    fn ready_us(&self, model: usize, s: usize) -> f64 {
        self.ready[model * self.sims.len() + s]
    }

    /// Picks a live replica shard for `model` at time `t`, or `None`
    /// when every holder is down (or excluded).
    fn steer(&self, model: usize, t: f64, salt: u64, exclude: Option<usize>) -> Option<usize> {
        let mut candidates = self
            .placement
            .replicas(model)
            .iter()
            .copied()
            .filter(|&s| self.sims[s].alive && Some(s) != exclude);
        match self.steering {
            Steering::Random => {
                let live = candidates.clone().count() as u64;
                if live == 0 {
                    return None;
                }
                let pick = splitmix64(splitmix64(salt)) % live;
                candidates.nth(pick as usize)
            }
            // Least expected wait: replica-readiness stall plus the
            // shard's instantaneous device backlog — rate-aware (a slow
            // board's dispatched work pushes its `free_at` further out)
            // and current, unlike the EWMA. Queue depth spreads
            // same-instant bursts still sitting in the batch window;
            // the EWMA queue delay breaks remaining ties toward shards
            // that have recently been fast.
            Steering::LoadFeedback => candidates
                .map(|s| {
                    let engine = self.sims[s]
                        .engine
                        .as_ref()
                        .expect("placement gave this shard a replica, so it has an engine");
                    let wait = (self.ready_us(model, s) - t).max(0.0);
                    let wire: f64 = self.inflight[s].iter().map(|&(_, est)| est).sum();
                    (
                        wait + engine.backlog_us() + wire,
                        engine.queue_depth(),
                        engine.ewma_queue_us(),
                        s,
                    )
                })
                .min_by(|a, b| {
                    a.0.total_cmp(&b.0)
                        .then(a.1.cmp(&b.1))
                        .then(a.2.total_cmp(&b.2))
                        .then(a.3.cmp(&b.3))
                })
                .map(|(_, _, _, s)| s),
        }
    }

    /// Sheds `r` at the router: no live shard holds its model.
    fn shed(&mut self, t: f64, r: Request) {
        self.obs.shed(t, &r, f64::INFINITY);
        self.stats.shed_no_capacity += 1;
        self.sheds.push(Response::shed_with(
            r.id,
            r.model,
            r.workload,
            r.arrival_us,
            r.deadline_us,
            ShedReason::NoShardCapacity,
        ));
    }

    /// Forwards `r` (global form) to shard `s` at decision time `t`:
    /// charges the hop, waits out replica readiness, renumbers chunks
    /// into the session's shard-local incarnation, and offers the
    /// shard-local request to the engine.
    fn forward(&mut self, s: usize, t: f64, r: Request) {
        let bytes = frame_bytes(&r.frames);
        let hop = self.transfer.transfer_us(bytes);
        self.obs.record(TraceEvent::Forward {
            t_us: t,
            id: r.id,
            model: r.model,
            shard: s,
            transfer_us: hop,
        });
        self.stats.forwarded_bytes += bytes;
        self.stats.forward_us_total += hop;
        let local_model = self.sims[s].local_model(r.model);
        let mut effective = (t + hop).max(self.ready_us(r.model, s));
        let local = match r.workload {
            Workload::Chunk { session, last, .. } => {
                let route = self
                    .sessions
                    .get_mut(&session)
                    .expect("a chunk is forwarded only after its session is pinned");
                effective = effective.max(route.last_arrival_us);
                route.last_arrival_us = effective;
                let index = route.next_index;
                route.next_index += 1;
                Request::chunk(r.id, route.local, index, last, r.frames, effective)
            }
            Workload::Utterance => Request::new(r.id, r.frames, effective),
        };
        let mut local = local.with_model(local_model);
        if let Some(d) = r.deadline_us {
            local = local.with_deadline(d);
        }
        let engine = self.sims[s]
            .engine
            .as_mut()
            .expect("steering picks replica holders, and every holder has an engine");
        let est = engine.estimate_frames_us(local_model, local.num_frames() as u64);
        self.inflight[s].push((effective, est));
        engine.offer(local);
        self.next_due[s] = self.next_due[s].min(effective);
    }

    /// The one placement path, for fresh arrivals and for the backlog
    /// reclaimed from a killed shard alike: steer → pin or re-pin →
    /// forward, else shed. An utterance, or a chunk whose session is not
    /// pinned yet, steers among live replicas other than `exclude`; a
    /// chunk of a pinned session follows its pin — affinity wins over
    /// load — unless the pinned shard is dead, in which case (failover
    /// permitting) it steers among the survivors. A session pins where
    /// its chunk lands; a re-pin is a fresh shard-local incarnation
    /// (recurrent state restarts from zero — cross-shard state migration
    /// is an explicit follow-on). `counter` names the [`ClusterStats`]
    /// field a successful placement bumps (`routed` or `rerouted`).
    fn place(
        &mut self,
        r: Request,
        t: f64,
        exclude: Option<usize>,
        counter: fn(&mut ClusterStats) -> &mut u64,
    ) {
        let session = r.session();
        let pin = session
            .and_then(|s| self.sessions.get(&s))
            .map(|route| route.shard);
        let target = match pin {
            Some(shard) if self.sims[shard].alive => Some(shard),
            Some(dead) if self.failover => self.steer(r.model, t, r.id, Some(dead)),
            Some(_) => None,
            None => self.steer(r.model, t, r.id, exclude),
        };
        let Some(to) = target else {
            return self.shed(t, r);
        };
        if let Some(session) = session.filter(|_| pin != Some(to)) {
            self.sessions.insert(
                session,
                SessionRoute {
                    shard: to,
                    local: self.next_local_session,
                    next_index: 0,
                    last_arrival_us: 0.0,
                },
            );
            self.next_local_session += 1;
            if let Some(from) = pin {
                self.obs.record(TraceEvent::SessionReroute {
                    t_us: t,
                    session,
                    from_shard: from,
                    to_shard: to,
                });
                self.stats.sessions_rerouted += 1;
            }
        }
        *counter(&mut self.stats) += 1;
        self.forward(to, t, r);
    }

    /// Processes one shard kill: reclaims the shard's undelivered
    /// backlog and re-places (or, with failover off, sheds) every
    /// reclaimed request. Batches already dispatched complete — their
    /// responses were committed at dispatch on the virtual clock — so a
    /// kill never loses a request.
    fn kill(&mut self, t: f64, s: usize) {
        self.advance(t);
        if !self.sims[s].alive {
            return;
        }
        let mut pending = match self.sims[s].engine.as_mut() {
            Some(engine) => engine.take_pending(),
            None => Vec::new(),
        };
        self.sims[s].alive = false;
        self.next_due[s] = f64::INFINITY;
        self.inflight[s].clear();
        self.stats.shard_kills += 1;
        self.stats.reclaimed += pending.len() as u64;
        self.obs.record(TraceEvent::ShardDown {
            t_us: t,
            shard: s,
            reclaimed: pending.len(),
        });
        // Re-offer in (arrival, chunk index, id) order so a session's
        // chunks re-number in their original order.
        pending.sort_by(|a, b| {
            a.arrival_us
                .total_cmp(&b.arrival_us)
                .then_with(|| chunk_index(a).cmp(&chunk_index(b)))
                .then_with(|| a.id.cmp(&b.id))
        });
        for p in pending {
            // Rebuild the cluster-global form from the route record.
            let meta = &self.routes[rank_of(&self.routes, p.id)];
            let mut global = match meta.workload {
                Workload::Chunk {
                    session,
                    index,
                    last,
                } => Request::chunk(p.id, session, index, last, p.frames, meta.arrival_us),
                Workload::Utterance => Request::new(p.id, p.frames, meta.arrival_us),
            };
            global = global.with_model(meta.model);
            if let Some(d) = p.deadline_us {
                global = global.with_deadline(d);
            }
            if self.failover {
                self.place(global, t, Some(s), |stats| &mut stats.rerouted);
            } else {
                self.shed(t, global);
            }
        }
    }
}

impl ClusterRuntime {
    /// Runs the cluster over `requests` on one virtual clock and
    /// returns the merged, cluster-global [`ClusterReport`].
    ///
    /// Every request is answered exactly once — served by some shard,
    /// or shed with an accurate [`ShedReason`] — including across shard
    /// kills with failover. All virtual-time outputs are bit-identical
    /// across [`ExecutorKind`](crate::ExecutorKind)s.
    ///
    /// # Panics
    ///
    /// Before the first event, exactly where and with the message
    /// [`SchedRuntime::run`](crate::sched::SchedRuntime::run) panics on
    /// the same load against the same registry: if any request names an
    /// unregistered model, has no frames, disagrees with its model's
    /// input dimension, or carries a non-finite arrival time or a NaN
    /// deadline, on invalid sessions, and on duplicate request ids. This
    /// holds for a request no live shard could ever serve, too.
    pub fn run(&self, requests: Vec<Request>) -> ClusterReport {
        let host_start = Instant::now();
        validate_load(&self.registry, &requests);
        // Every shard runs under the one shard configuration, so any
        // shard's executor kind sizes the one lane they all feed.
        let threads = self
            .shard_runtimes
            .iter()
            .flatten()
            .next()
            .map_or(0, |rt| rt.config().executor.lane_threads());
        lane_scope(threads, |lane| self.route(requests, lane, host_start))
    }

    /// [`Self::run`] after validation, with every shard's executor
    /// feeding `lane`.
    fn route(
        &self,
        requests: Vec<Request>,
        lane: &Arc<Lane>,
        host_start: Instant,
    ) -> ClusterReport {
        let total = requests.len();

        // The route table: every request's cluster-global metadata in
        // id order, so a shard-local response finds its record — and its
        // slot in the merged response list — by binary search.
        let mut routes: Vec<RouteMeta> = requests
            .iter()
            .map(|r| RouteMeta {
                id: r.id,
                model: r.model,
                workload: r.workload,
                arrival_us: r.arrival_us,
            })
            .collect();
        routes.sort_unstable_by_key(|m| m.id);

        // A fresh engine over each shard's scheduler (placement-empty
        // shards hold none).
        let mut sims = Vec::with_capacity(self.shards());
        let mut device_base = 0usize;
        for (s, rt) in self.shard_runtimes.iter().enumerate() {
            let device_count = self.shard_platforms[s].len();
            sims.push(ShardSim {
                shard: s,
                engine: rt.as_ref().map(|rt| SchedEngine::new(rt, lane)),
                placed: self.placement.models_on(s),
                alive: true,
                device_base,
                device_count,
            });
            device_base += device_count;
        }

        let mut obs = Observer::new(self.cluster.trace);
        let mut stats = ClusterStats::default();

        // Artifact replication: the primary is servable at t=0 (it was
        // provisioned with the cluster); replica k comes up one chained
        // artifact transfer after replica k−1.
        let shard_count = sims.len();
        let mut ready = vec![f64::INFINITY; self.registry.len() * shard_count];
        let mut repl: Vec<(f64, usize, usize, usize, u64, f64)> = Vec::new();
        for m in 0..self.registry.len() {
            let bytes = self.registry.artifact_bytes(m);
            let hop = self.cluster.transfer.transfer_us(bytes);
            let replicas = self.placement.replicas(m);
            for (k, &s) in replicas.iter().enumerate() {
                let at = k as f64 * hop;
                ready[m * shard_count + s] = at;
                if k > 0 {
                    repl.push((at, m, replicas[k - 1], s, bytes, hop));
                    stats.replications += 1;
                    stats.replication_us_total += hop;
                }
            }
        }
        repl.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.3.cmp(&b.3)));
        for (at, m, from, to, bytes, hop) in repl {
            obs.record(TraceEvent::Replicate {
                t_us: at,
                model: m,
                from_shard: from,
                to_shard: to,
                bytes,
                transfer_us: hop,
            });
        }

        let mut router = Router {
            placement: &self.placement,
            transfer: self.cluster.transfer,
            steering: self.cluster.steering,
            failover: self.cluster.failover,
            sims,
            inflight: vec![Vec::new(); shard_count],
            next_due: vec![f64::INFINITY; shard_count],
            ready,
            sessions: HashMap::new(),
            routes,
            next_local_session: 0,
            obs,
            stats,
            sheds: Vec::new(),
            #[cfg(test)]
            wake_all: self.wake_all,
        };

        // One time-ordered event stream: kills at time t fire before
        // arrivals at t, so a request never races its shard's death.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival_us
                .total_cmp(&requests[b].arrival_us)
                .then_with(|| requests[a].id.cmp(&requests[b].id))
        });
        let mut kills: Vec<(f64, usize)> = self
            .cluster
            .shard_faults
            .events()
            .iter()
            .map(|e| (e.t_us, e.device))
            .collect();
        kills.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut slots: Vec<Option<Request>> = requests.into_iter().map(Some).collect();
        let mut kills = kills.into_iter().peekable();
        for idx in order {
            let r = slots[idx]
                .take()
                .expect("`order` is a permutation, so each slot is taken once");
            let t = r.arrival_us;
            while let Some((kt, ks)) = kills.next_if(|k| k.0 <= t) {
                router.kill(kt, ks);
            }
            router.advance(t);
            router.place(r, t, None, |stats| &mut stats.routed);
        }
        for (kt, ks) in kills {
            router.kill(kt, ks);
        }

        // Drain survivors to completion, snapshot gauges while the
        // engines still exist, then finish everything (dead shards too
        // — their dispatched batches' responses are already committed).
        // The first shard to finish closes the lane, so the rest find
        // their logits computed.
        router.advance(f64::INFINITY);
        let gauges: Vec<ShardGauges> = router.sims.iter().map(|s| s.gauges()).collect();
        let mut busy: Vec<f64> = Vec::new();
        for sim in &router.sims {
            busy.extend(sim.busy_us());
        }

        // Merge by rank: each response lands in its request's slot of the
        // id-ordered list, so "answered exactly once" is one slot filled
        // exactly once.
        let mut merged: Vec<Option<Response>> = Vec::new();
        merged.resize_with(total, || None);
        let mut place = |rank: usize, r: Response| {
            assert!(
                merged[rank].is_none(),
                "request {} answered more than once",
                r.id
            );
            merged[rank] = Some(r);
        };
        let Router {
            sims,
            routes,
            obs,
            stats,
            sheds,
            ..
        } = router;
        for shed in sheds {
            place(rank_of(&routes, shed.id), shed);
        }
        let mut shards = Vec::with_capacity(sims.len());
        for sim in sims {
            let ShardSim {
                shard,
                engine,
                placed,
                alive,
                device_base,
                ..
            } = sim;
            let mut report = engine.map(SchedEngine::finish);
            let mut answered = 0;
            if let Some(rep) = &mut report {
                answered = rep.responses.len();
                for mut r in std::mem::take(&mut rep.responses) {
                    let rank = rank_of(&routes, r.id);
                    let meta = &routes[rank];
                    r.model = meta.model;
                    r.workload = meta.workload;
                    r.arrival_us = meta.arrival_us;
                    r.device = r.device.map(|d| d + device_base);
                    place(rank, r);
                }
            }
            shards.push(ShardReport {
                shard,
                placed,
                alive,
                gauges: gauges[shard],
                answered,
                report,
            });
        }
        let answered = merged.iter().flatten().count();
        assert_eq!(
            answered, total,
            "cluster answered {answered} of {total} requests"
        );
        let responses: Vec<Response> = merged.into_iter().flatten().collect();

        let metrics = ServeMetrics::compute(&responses, busy);
        ClusterReport {
            responses,
            metrics,
            stats,
            shards,
            trace: obs.into_trace(),
            host_us: host_start.elapsed().as_secs_f64() * 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::loadgen::synthetic_utterances;
    use crate::sched::{ModelRegistry, SchedPolicy};
    use crate::{
        chrome_trace_json, CompiledModel, DeviceFault, FaultEvent, FaultPlan, HealthConfig,
        RuntimeConfig, TimelineConfig, TraceConfig,
    };
    use ernn_fpga::exec::DatapathConfig;
    use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
    use proptest::prelude::*;
    use rand::SeedableRng;

    const DIM: usize = 8;

    fn registry() -> ModelRegistry {
        let mut registry = ModelRegistry::new();
        for (name, seed, hidden) in [("gru-8", 61, 8), ("gru-16", 62, 16), ("gru-8b", 63, 8)] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let dense = ModelSpec::new(CellType::Gru, DIM, 5)
                .layer_dims(&[hidden])
                .build(&mut rng);
            let net = compress_network(&dense, BlockPolicy::uniform(4));
            registry.register(
                name,
                CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060),
            );
        }
        registry
    }

    /// A `cluster_tiny`-shaped load from `seed`: `sessions` streaming
    /// sessions of four short chunks on model 0 plus `utterances`
    /// whole utterances over the three tenants, arrivals spread over
    /// ≈ 1.5 ms so bursts, idle gaps and max-wait flushes all occur.
    /// Ids are dense but arrival order is not id order.
    fn load(seed: u64, sessions: usize, utterances: usize) -> Vec<Request> {
        let mut state = seed;
        let mut rand = move || {
            state = splitmix64(state);
            state
        };
        let audio = synthetic_utterances(sessions + utterances, (1, 4), DIM, seed ^ 0xA5);
        let mut requests = Vec::new();
        for (s, utt) in audio.iter().enumerate().take(sessions) {
            let t0 = (rand() % 900) as f64;
            let gap = 20.0 + (rand() % 150) as f64;
            for index in 0..4u32 {
                let t = t0 + index as f64 * gap;
                let id = requests.len() as u64;
                requests.push(
                    Request::chunk(id, s as u64, index, index == 3, utt.clone(), t)
                        .with_deadline(t + 20_000.0),
                );
            }
        }
        for utt in &audio[sessions..] {
            // Coarse grid: simultaneous arrivals are common.
            let t = (rand() % 300) as f64 * 5.0;
            let id = requests.len() as u64;
            requests.push(
                Request::new(id, utt.clone(), t)
                    .with_model((rand() % 3) as usize)
                    .with_deadline(t + 10_000.0 + (rand() % 4) as f64 * 500.0),
            );
        }
        requests
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The event-driven clock against the wake-every-shard oracle,
        /// with every observer on: skipping shards that are not due must
        /// not change one bit of any report.
        #[test]
        fn waking_only_due_shards_matches_waking_all(
            shards in 1usize..7,
            replication in 1usize..5,
            random in any::<bool>(),
            failover in any::<bool>(),
            // A free wire lands forwards at the routing instant itself,
            // so same-instant arrivals probe the `next_due == t` edge.
            free_wire in any::<bool>(),
            seed in any::<u64>(),
            kill_times in proptest::collection::vec(0.0f64..1_600.0, 0..3),
            kill_salt in any::<u64>(),
            max_batch in 1usize..5,
            max_wait_us in 0.0f64..120.0,
        ) {
            let requests = load(seed, 5, 60);
            let total = requests.len();
            let plan = FaultPlan::new(
                kill_times
                    .iter()
                    .enumerate()
                    .map(|(k, &t_us)| FaultEvent {
                        t_us,
                        device: (kill_salt >> (8 * k)) as usize % shards,
                        fault: DeviceFault::Crash { down_us: f64::INFINITY },
                    })
                    .collect(),
            );
            let registry = registry();
            let build = |wake_all: bool| {
                let mut rt = ClusterRuntime::new(
                    registry.clone(),
                    (0..shards)
                        .map(|s| vec![if s % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 }])
                        .collect(),
                    SchedPolicy::edf_cost_model(max_batch, max_wait_us),
                    RuntimeConfig::new()
                        .tracing(TraceConfig::enabled(4096))
                        .timeline(TimelineConfig::enabled(40.0, 4096))
                        .health(HealthConfig::enabled()),
                    ClusterConfig::new()
                        .replication(replication)
                        .steering(if random { Steering::Random } else { Steering::LoadFeedback })
                        .failover(failover)
                        .transfer(if free_wire {
                            TransferModel::zero()
                        } else {
                            TransferModel::intra_rack()
                        })
                        .shard_faults(plan.clone())
                        .tracing(TraceConfig::enabled(8192)),
                );
                rt.wake_all = wake_all;
                rt
            };
            let fast = build(false).run(requests.clone());
            let oracle = build(true).run(requests);

            prop_assert_eq!(fast.responses.len(), total);
            prop_assert_eq!(&fast.responses, &oracle.responses);
            prop_assert_eq!(&fast.metrics, &oracle.metrics);
            prop_assert_eq!(fast.stats, oracle.stats);
            prop_assert_eq!(chrome_trace_json(&fast.trace), chrome_trace_json(&oracle.trace));
            prop_assert_eq!(&fast.trace, &oracle.trace);
            prop_assert_eq!(fast.shards.len(), oracle.shards.len());
            prop_assert_eq!(
                fast.shards.iter().map(|s| s.answered).sum::<usize>()
                    + fast.stats.shed_no_capacity as usize,
                total
            );
            for (a, b) in fast.shards.iter().zip(&oracle.shards) {
                prop_assert_eq!((a.shard, a.alive, &a.placed), (b.shard, b.alive, &b.placed));
                prop_assert_eq!(a.gauges, b.gauges);
                prop_assert_eq!(a.answered, b.answered);
                match (&a.report, &b.report) {
                    (Some(ra), Some(rb)) => {
                        // The merge moved every shard response into the
                        // cluster list compared above.
                        prop_assert!(ra.responses.is_empty() && rb.responses.is_empty());
                        prop_assert_eq!(ra.metrics.completed + ra.metrics.shed, a.answered);
                        prop_assert_eq!(&ra.metrics, &rb.metrics);
                        prop_assert_eq!(&ra.sched, &rb.sched);
                        prop_assert_eq!(&ra.trace, &rb.trace);
                        prop_assert_eq!(&ra.timeline, &rb.timeline);
                        prop_assert_eq!(&ra.health, &rb.health);
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "shard {} holds an engine on one side only", a.shard),
                }
            }
        }
    }

    /// A four-shard cluster with a shard kill through a lane that three
    /// threads serve and through a lane no thread serves: every shard
    /// feeds the one lane, so the shards' runs race for its threads, and
    /// the reports must agree bit for bit, every observer on.
    #[test]
    fn three_lane_threads_match_the_serial_lane_across_a_shard_kill() {
        let requests = load(7, 8, 80);
        let rt = ClusterRuntime::new(
            registry(),
            vec![vec![XCKU060]; 4],
            SchedPolicy::edf_cost_model(4, 60.0),
            RuntimeConfig::new()
                .tracing(TraceConfig::enabled(4096))
                .timeline(TimelineConfig::enabled(40.0, 4096))
                .health(HealthConfig::enabled()),
            ClusterConfig::new()
                .replication(2)
                .shard_faults(FaultPlan::new(vec![FaultEvent {
                    t_us: 500.0,
                    device: 1,
                    fault: DeviceFault::Crash {
                        down_us: f64::INFINITY,
                    },
                }]))
                .tracing(TraceConfig::enabled(8192)),
        );
        let run = |threads: usize| {
            lane_scope(threads, |lane| {
                rt.route(requests.clone(), lane, Instant::now())
            })
        };
        let (laned, serial) = (run(3), run(0));
        assert_eq!(laned.responses, serial.responses);
        assert_eq!(laned.metrics, serial.metrics);
        assert_eq!(laned.stats, serial.stats);
        assert_eq!(laned.trace, serial.trace);
        assert_eq!(laned.shards.len(), serial.shards.len());
        for (a, b) in laned.shards.iter().zip(&serial.shards) {
            assert_eq!(
                (a.alive, &a.placed, a.gauges),
                (b.alive, &b.placed, b.gauges)
            );
            assert_eq!(a.answered, b.answered);
            let (ra, rb) = (a.report.as_ref(), b.report.as_ref());
            assert_eq!(ra.map(|r| &r.metrics), rb.map(|r| &r.metrics));
            assert_eq!(ra.map(|r| &r.sched), rb.map(|r| &r.sched));
            assert_eq!(ra.map(|r| &r.trace), rb.map(|r| &r.trace));
            assert_eq!(ra.map(|r| &r.timeline), rb.map(|r| &r.timeline));
            assert_eq!(ra.map(|r| &r.health), rb.map(|r| &r.health));
            assert_eq!(ra.map(|r| r.host_fft()), rb.map(|r| r.host_fft()));
        }
        // The kill struck a shard that was serving.
        assert_eq!(serial.stats.shard_kills, 1);
        assert!(serial.stats.rerouted + serial.stats.sessions_rerouted > 0);
    }
}
