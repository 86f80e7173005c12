//! Cluster-tier properties:
//!
//! * **Degenerate cluster ≡ bare scheduler** — one shard, replication
//!   1, a zero-cost network: the cluster's merged responses and metrics
//!   are exactly the single scheduler's, so the router provably adds no
//!   timing of its own.
//! * **Shard-kill failover loses nothing** — killing the shard a
//!   streaming session is pinned to mid-run reclaims its backlog,
//!   re-pins its sessions onto survivors, and still answers every
//!   request exactly once with an accurate [`ShedReason`].
//! * **Bit-identity across executors** — responses, metrics, router
//!   stats, per-shard gauges and the rendered router journal are equal
//!   under `Inline` and `ThreadPool` execution, kill included.
//! * **Exact per-shard FFT ledgers** — the shards' `host_fft()` add up
//!   to the calling thread's count over the run.
//! * **Bad input fails at the door** — a non-finite arrival time is
//!   rejected naming the request (it used to surface as "cluster
//!   answered N−1 of N"), every malformed load the scheduler rejects
//!   the cluster rejects with the same message, before any routing
//!   (even for a model no live shard holds), and every constructor
//!   panic has a typed [`ClusterConfigError`] behind
//!   [`ClusterRuntime::try_new`].
//! * **Routing is deterministic (property)** — over random shard
//!   counts, replication degrees, steering policies and kill
//!   times, two identical runs produce byte-identical journals and
//!   equal responses, and a shard kill never loses a request.

use ernn_fft::stats::{self, FftStats};
use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::{paced_session, synthetic_utterances};
use ernn_serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{
    chrome_trace_json, ClusterConfig, ClusterConfigError, ClusterRuntime, CompiledModel,
    DeviceFault, ExecutorKind, FaultEvent, FaultPlan, Request, RuntimeConfig, ShedReason, Steering,
    TraceConfig, TransferModel,
};
use proptest::prelude::*;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const DIM: usize = 8;

fn compiled(seed: u64, hidden: usize) -> CompiledModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dense = ModelSpec::new(CellType::Gru, DIM, 5)
        .layer_dims(&[hidden])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));
    CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060)
}

fn registry() -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.register("gru-16", compiled(41, 16));
    registry.register("gru-32", compiled(42, 32));
    registry
}

fn policy() -> SchedPolicy {
    SchedPolicy::edf_cost_model(4, 200.0)
}

/// Splits `utt` into up to `pieces` chunks of one session arriving
/// every `gap_us` from `t0`, assigning ids from `next_id`.
fn session_chunks(
    next_id: &mut u64,
    session: u64,
    model: usize,
    utt: &[Vec<f32>],
    pieces: usize,
    t0: f64,
    gap_us: f64,
) -> Vec<Request> {
    let per = utt.len().div_ceil(pieces).max(1);
    let first_id = *next_id;
    *next_id += utt.len().div_ceil(per) as u64;
    paced_session(utt, session, first_id, t0, gap_us, per, Some(30_000.0))
        .map(|r| r.with_model(model))
        .collect()
}

/// A mixed load: `n_utts` utterances round-robined over `models`
/// models plus `n_sessions` streaming sessions on model 0. Ids are
/// dense from 0; session chunk ids come first.
fn mixed_load(n_utts: usize, n_sessions: usize, models: usize) -> Vec<Request> {
    let utts = synthetic_utterances(n_utts + n_sessions, (4, 8), DIM, 99);
    let mut next_id = 0u64;
    let mut reqs = Vec::new();
    for (s, utt) in utts.iter().enumerate().take(n_sessions) {
        reqs.extend(session_chunks(
            &mut next_id,
            s as u64,
            0,
            utt,
            4,
            10.0 + s as f64 * 35.0,
            250.0,
        ));
    }
    for (i, utt) in utts[n_sessions..].iter().enumerate() {
        let t = 40.0 + i as f64 * 130.0;
        let id = next_id;
        next_id += 1;
        reqs.push(
            Request::new(id, utt.clone(), t)
                .with_model(i % models)
                .with_deadline(t + 20_000.0),
        );
    }
    reqs
}

#[test]
fn single_shard_cluster_matches_bare_scheduler() {
    let requests = mixed_load(10, 2, 2);

    let direct =
        SchedRuntime::with_config(registry(), vec![XCKU060], policy(), RuntimeConfig::new())
            .run(requests.clone());

    let cluster = ClusterRuntime::new(
        registry(),
        vec![vec![XCKU060]],
        policy(),
        RuntimeConfig::new(),
        ClusterConfig::new()
            .replication(1)
            .transfer(TransferModel::zero()),
    );
    let report = cluster.run(requests);

    let mut direct_sorted = direct.responses.clone();
    direct_sorted.sort_by_key(|r| r.id);
    assert_eq!(report.responses, direct_sorted);
    assert_eq!(report.metrics, direct.metrics);
    assert_eq!(report.stats.shed_no_capacity, 0);
    assert_eq!(report.stats.replications, 0);
}

/// Four single-device shards: the shard index *is* the device index,
/// so a response's device tells us which shard served it.
fn four_shard_cluster(shard_faults: FaultPlan, executor: ExecutorKind) -> ClusterRuntime {
    ClusterRuntime::new(
        registry(),
        vec![
            vec![XCKU060],
            vec![ADM_PCIE_7V3],
            vec![XCKU060],
            vec![ADM_PCIE_7V3],
        ],
        policy(),
        RuntimeConfig::new().executor(executor),
        ClusterConfig::new()
            .replication(2)
            .shard_faults(shard_faults)
            .tracing(TraceConfig::enabled(4096)),
    )
}

fn kill_at(t_us: f64, shard: usize) -> FaultPlan {
    FaultPlan::new(vec![FaultEvent {
        t_us,
        device: shard,
        fault: DeviceFault::Crash {
            down_us: f64::INFINITY,
        },
    }])
}

#[test]
fn shard_kill_failover_loses_nothing() {
    let requests = mixed_load(12, 3, 2);
    let total = requests.len();

    // Find the shard session 0 is pinned to (its chunks' ids are 0..4
    // by construction of `mixed_load`).
    let calm = four_shard_cluster(FaultPlan::empty(), ExecutorKind::Inline).run(requests.clone());
    let pinned = calm.responses[0]
        .device
        .expect("session 0's first chunk was not served");

    // Kill it mid-session: chunk arrivals run to ~760 µs, so chunks
    // remain to reroute after the kill.
    let report =
        four_shard_cluster(kill_at(600.0, pinned), ExecutorKind::Inline).run(requests.clone());

    assert_eq!(report.responses.len(), total, "a request went missing");
    for (i, r) in report.responses.iter().enumerate() {
        assert_eq!(r.id, i as u64, "ids must be dense and answered once");
        if r.shed {
            assert!(r.shed_reason.is_some(), "shed response without a reason");
        } else {
            assert_eq!(r.shed_reason, None);
        }
    }
    assert_eq!(report.stats.shard_kills, 1);
    assert!(!report.shards[pinned].alive);
    // Replication 2 and one dead shard: every model still has a live
    // replica, so nothing sheds for lack of shard capacity...
    assert_eq!(report.stats.shed_no_capacity, 0);
    // ...every reclaimed request found a new home...
    assert_eq!(report.stats.rerouted, report.stats.reclaimed);
    // ...and the pinned session kept streaming on a survivor.
    assert!(report.stats.sessions_rerouted >= 1);
    let session0_served = report.responses[..4].iter().filter(|r| !r.shed).count();
    assert_eq!(session0_served, 4, "session 0 must survive the kill whole");
}

#[test]
fn cluster_is_bit_identical_across_executors() {
    let requests = mixed_load(12, 3, 2);
    let a = four_shard_cluster(kill_at(600.0, 0), ExecutorKind::Inline).run(requests.clone());
    let b = four_shard_cluster(kill_at(600.0, 0), ExecutorKind::ThreadPool).run(requests);

    assert_eq!(a.responses, b.responses);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.stats, b.stats);
    assert_eq!(chrome_trace_json(&a.trace), chrome_trace_json(&b.trace));
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(sa.alive, sb.alive);
        assert_eq!(sa.placed, sb.placed);
        assert_eq!(sa.gauges, sb.gauges);
        assert_eq!(sa.answered, sb.answered);
        match (&sa.report, &sb.report) {
            (Some(ra), Some(rb)) => {
                // The merge moved the shard's responses into the cluster
                // list compared above; the count stays behind.
                assert!(ra.responses.is_empty() && rb.responses.is_empty());
                assert_eq!(ra.metrics.completed + ra.metrics.shed, sa.answered);
                assert_eq!(ra.metrics, rb.metrics);
                assert_eq!(ra.sched, rb.sched);
            }
            (None, None) => {}
            _ => panic!("shard {} placement differs across executors", sa.shard),
        }
    }
}

/// Each shard's FFT ledger counts its own runs only, wherever they ran:
/// the shards' ledgers add up to what the calling thread counted over
/// the run (the lane's threads charge theirs to it), and every shard
/// that answered a request ran transforms. `fft_cache.rs` checks the
/// same total against `n ×` one request measured on the serial lane.
#[test]
fn shard_fft_ledgers_add_up_to_the_callers_count() {
    let cluster = four_shard_cluster(FaultPlan::empty(), ExecutorKind::Inline);
    let caller = stats::thread_snapshot();
    let report = cluster.run(mixed_load(40, 6, 2));
    let counted = stats::thread_snapshot().since(&caller);
    let mut total = FftStats::default();
    for shard in &report.shards {
        let fft = shard
            .report
            .as_ref()
            .map(|r| r.host_fft())
            .unwrap_or_default();
        if shard.answered > 0 {
            assert!(fft.forward_transforms > 0, "shard {}: {fft:?}", shard.shard);
        }
        total = total.plus(&fft);
    }
    assert!(counted.forward_transforms > 0);
    assert_eq!(total, counted, "the shards' ledgers overlap or miss work");
}

#[test]
#[should_panic(expected = "request 1: arrival_us must be finite")]
fn nan_arrival_is_rejected_naming_the_request() {
    let frames = || vec![vec![0.0; DIM]];
    let _ = four_shard_cluster(FaultPlan::empty(), ExecutorKind::Inline).run(vec![
        Request::new(0, frames(), 0.0),
        Request::new(1, frames(), f64::NAN),
        Request::new(2, frames(), -5.0),
    ]);
}

/// A request no live shard holds is still checked: with replication 1
/// the only holder of model 0 dies at t = 0, so routing would shed the
/// zero-frame request as `NoShardCapacity` — the load is rejected before
/// that, as the scheduler rejects it.
#[test]
#[should_panic(expected = "request 1 has no frames")]
fn a_zero_frame_request_is_rejected_even_when_no_live_shard_holds_its_model() {
    let cluster = |shard_faults: FaultPlan| {
        ClusterRuntime::new(
            registry(),
            vec![vec![XCKU060], vec![ADM_PCIE_7V3]],
            policy(),
            RuntimeConfig::new(),
            ClusterConfig::new()
                .replication(1)
                .shard_faults(shard_faults),
        )
    };
    let holder = cluster(FaultPlan::empty()).placement().replicas(0)[0];
    let _ = cluster(kill_at(0.0, holder)).run(vec![
        Request::new(0, vec![vec![0.0; DIM]], 0.0),
        Request::new(1, Vec::new(), 0.0),
    ]);
}

/// The panic message of `run`, or `None` when it returns.
fn panic_message(run: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(run)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    })
}

#[test]
fn malformed_loads_fail_alike_in_the_scheduler_and_the_cluster() {
    let frames = || vec![vec![0.0; DIM]];
    let ok = || Request::new(0, frames(), 0.0);
    let table: Vec<(&str, Vec<Request>)> = vec![
        (
            "request 1 targets unregistered model 2",
            vec![ok(), Request::new(1, frames(), 5.0).with_model(2)],
        ),
        (
            "request 1 has no frames",
            vec![ok(), Request::new(1, Vec::new(), 5.0)],
        ),
        (
            "request 1 frame dimension must be 8 for model gru-32",
            vec![
                ok(),
                Request::new(1, vec![vec![0.0; DIM + 1]], 5.0).with_model(1),
            ],
        ),
        (
            "request 1: arrival_us must be finite, got NaN",
            vec![ok(), Request::new(1, frames(), f64::NAN)],
        ),
        (
            "duplicate request id 0",
            vec![ok(), Request::new(0, frames(), 5.0)],
        ),
        (
            "session 7: expected chunk index 1 next, got 2",
            vec![
                ok(),
                Request::chunk(1, 7, 0, false, frames(), 5.0),
                Request::chunk(2, 7, 2, true, frames(), 9.0),
            ],
        ),
    ];
    let scheduler =
        SchedRuntime::with_config(registry(), vec![XCKU060], policy(), RuntimeConfig::new());
    let cluster = ClusterRuntime::new(
        registry(),
        vec![vec![XCKU060]],
        policy(),
        RuntimeConfig::new(),
        ClusterConfig::new().replication(1),
    );
    for (expected, load) in table {
        let by_scheduler = panic_message(|| drop(scheduler.run(load.clone())))
            .unwrap_or_else(|| panic!("the scheduler accepted the load for {expected:?}"));
        let by_cluster = panic_message(|| drop(cluster.run(load)));
        assert!(by_scheduler.contains(expected), "{by_scheduler}");
        assert_eq!(by_cluster, Some(by_scheduler));
    }
}

#[test]
fn try_new_reports_typed_errors() {
    let try_new = |registry: ModelRegistry, platforms: Vec<Vec<_>>, cluster: ClusterConfig| {
        ClusterRuntime::try_new(registry, platforms, policy(), RuntimeConfig::new(), cluster)
            .map(|_| ())
    };
    let one = || vec![vec![XCKU060]];

    let err = try_new(ModelRegistry::new(), one(), ClusterConfig::new()).unwrap_err();
    assert_eq!(err, ClusterConfigError::EmptySpec);
    assert_eq!(err.to_string(), "cluster spec has no models");

    let err = try_new(registry(), Vec::new(), ClusterConfig::new()).unwrap_err();
    assert_eq!(err, ClusterConfigError::NoShards);

    let err = try_new(
        registry(),
        vec![vec![XCKU060], Vec::new()],
        ClusterConfig::new(),
    )
    .unwrap_err();
    assert_eq!(err, ClusterConfigError::ShardWithoutDevices { shard: 1 });
    assert_eq!(err.to_string(), "shard 1 has no devices");

    let err = try_new(registry(), one(), ClusterConfig::new().replication(0)).unwrap_err();
    assert_eq!(err, ClusterConfigError::ZeroReplication);
    assert_eq!(err.to_string(), "replication must be at least 1");

    let err = try_new(
        registry(),
        one(),
        ClusterConfig::new().shard_faults(kill_at(5.0, 3)),
    )
    .unwrap_err();
    assert_eq!(
        err,
        ClusterConfigError::FaultShardOutOfRange {
            shard: 3,
            shards: 1
        }
    );

    let transient = FaultPlan::new(vec![FaultEvent {
        t_us: 5.0,
        device: 0,
        fault: DeviceFault::Transient,
    }]);
    let err = try_new(
        registry(),
        one(),
        ClusterConfig::new().shard_faults(transient),
    )
    .unwrap_err();
    assert_eq!(
        err,
        ClusterConfigError::NonCrashShardFault {
            shard: 0,
            fault: DeviceFault::Transient
        }
    );
    assert!(err.to_string().contains("must be crashes"));

    assert!(try_new(registry(), one(), ClusterConfig::new()).is_ok());
}

#[test]
#[should_panic(expected = "shard 0 has no devices")]
fn new_panics_with_the_typed_message() {
    let _ = ClusterRuntime::new(
        registry(),
        vec![Vec::new()],
        policy(),
        RuntimeConfig::new(),
        ClusterConfig::new(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Routing is a pure function of (placement inputs, load):
    /// identical runs are byte-identical, and a shard kill with
    /// failover never loses a request — every id is answered exactly
    /// once, shed only with the cluster-scope reason.
    #[test]
    fn routing_is_deterministic_and_kills_lose_nothing(
        shards in 1usize..5,
        replication in 1usize..3,
        random in any::<bool>(),
        kill_t in 0.0f64..2_000.0,
    ) {
        let requests = mixed_load(8, 2, 2);
        let total = requests.len();
        let platforms: Vec<Vec<_>> = (0..shards)
            .map(|s| vec![if s % 2 == 0 { XCKU060 } else { ADM_PCIE_7V3 }])
            .collect();
        let steering = if random { Steering::Random } else { Steering::LoadFeedback };
        let build = || ClusterRuntime::new(
            registry(),
            platforms.clone(),
            policy(),
            RuntimeConfig::new(),
            ClusterConfig::new()
                .replication(replication)
                .steering(steering)
                .shard_faults(kill_at(kill_t, 0))
                .tracing(TraceConfig::enabled(4096)),
        );
        let a = build().run(requests.clone());
        let b = build().run(requests);

        prop_assert_eq!(&a.responses, &b.responses);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(chrome_trace_json(&a.trace), chrome_trace_json(&b.trace));

        prop_assert_eq!(a.responses.len(), total);
        for (i, r) in a.responses.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64);
        }
        // With one dead shard, the only cluster-scope shed reason is
        // NoShardCapacity, and it appears iff the router shed it.
        let router_sheds = a
            .responses
            .iter()
            .filter(|r| r.shed_reason == Some(ShedReason::NoShardCapacity))
            .count() as u64;
        prop_assert_eq!(router_sheds, a.stats.shed_no_capacity);
    }
}
