//! Property tests for the fault-injection and recovery layer:
//!
//! * **Mid-session failover preserves the streaming contract** — over
//!   random chunk sizes, utterance lengths, and crash times, permanently
//!   crashing the device a streaming session is pinned to loses nothing:
//!   every chunk is eventually served, the stitched per-chunk logits
//!   remain bit-identical to whole-utterance inference, and the entire
//!   run (responses, metrics, scheduler stats, trace journal) is
//!   bit-identical across `Inline` and `ThreadPool` executors.
//! * **Residency LRU invariants under mixed image traffic** — over
//!   random interleavings of weight loads, state materializations,
//!   releases, pins, and crash wipes, `DeviceResidency` never exceeds
//!   its byte budget, its `used_bytes` accounting exactly matches the
//!   surviving image set implied by the emitted `LoadEvent`s, and a
//!   pinned (batch-used) image is never evicted while its pin is held.

use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::XCKU060;
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::{paced_session, synthetic_utterances};
use ernn_serve::sched::{DeviceResidency, ImageKey, ModelRegistry, SchedPolicy, SchedRuntime};
use ernn_serve::{
    CompiledModel, DeviceFault, ExecutorKind, FaultEvent, FaultPlan, Request, RuntimeConfig,
};
use proptest::prelude::*;
use rand::SeedableRng;

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
    let mut reg = ModelRegistry::new();
    reg.register("gru-16", compiled(41, 16));
    reg.register("gru-32", compiled(42, 32));
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The tentpole acceptance property: crash the pinned device at an
    /// arbitrary point in a session's lifetime and nothing is lost.
    #[test]
    fn mid_session_failover_is_lossless_and_bit_identical(
        utt_len in 10usize..18,
        chunk_frames in 3usize..6,
        crash_frac in 0.0f64..1.0,
        utt_seed in 0u64..500,
    ) {
        let gap_us = 300.0;
        let utts = synthetic_utterances(1, (utt_len, utt_len), DIM, utt_seed);
        let requests: Vec<Request> =
            paced_session(&utts[0], 9, 0, 0.0, gap_us, chunk_frames, None).collect();
        let n_chunks = requests.len();
        let policy = || SchedPolicy::edf_cost_model(2, 50.0);
        // Discovery run: find the device the session pins to, then
        // crash it for good somewhere inside the session's lifetime.
        let discovery =
            SchedRuntime::new(registry(), vec![XCKU060, XCKU060], policy()).run(requests.clone());
        let pinned = discovery.responses[0].device.expect("served");
        let horizon = gap_us * n_chunks as f64;
        let plan = FaultPlan::new(vec![FaultEvent {
            t_us: 1.0 + crash_frac * horizon,
            device: pinned,
            fault: DeviceFault::Crash { down_us: f64::INFINITY },
        }]);
        let run = |exec: ExecutorKind| {
            SchedRuntime::with_config(
                registry(),
                vec![XCKU060, XCKU060],
                policy(),
                RuntimeConfig::new().executor(exec).fault_plan(plan.clone()),
            )
            .run(requests.clone())
        };
        let inline = run(ExecutorKind::Inline);
        let pooled = run(ExecutorKind::ThreadPool);
        prop_assert_eq!(&inline.responses, &pooled.responses);
        prop_assert_eq!(&inline.metrics, &pooled.metrics);
        prop_assert_eq!(&inline.sched, &pooled.sched);
        // Zero requests lost: every chunk answered exactly once, served.
        prop_assert_eq!(inline.responses.len(), n_chunks);
        let mut ids: Vec<u64> = inline.responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n_chunks as u64).collect::<Vec<_>>());
        for r in &inline.responses {
            prop_assert!(!r.shed, "chunk {} shed: {:?}", r.id, r.shed_reason);
        }
        // A crash landing past the run's last event is never applied
        // (the lazy cursor only advances with the virtual clock) — a
        // valid degenerate case; otherwise exactly one crash fires.
        prop_assert!(inline.sched.device_crashes <= 1);
        // The recurrent state crossed the failover intact: stitched
        // logits match whole-utterance inference bit-exactly.
        let mut on: Vec<_> = inline.responses.iter().collect();
        on.sort_by_key(|r| r.id);
        let stitched: Vec<Vec<f32>> =
            on.iter().flat_map(|r| r.logits.iter().cloned()).collect();
        prop_assert_eq!(stitched, registry().models()[0].infer(&utts[0]));
    }
}

/// One residency operation in a random interleaving.
#[derive(Debug, Clone)]
enum ResidencyOp {
    /// Load model `id`'s weight image.
    Weights(u8),
    /// Materialize (or re-materialize, charged) session `id`'s state.
    State(u8),
    /// End session `id`.
    Release(u8),
    /// Pin model `id`'s weight image for the forming batch.
    PinWeights(u8),
    /// Pin session `id`'s state image for the forming batch.
    PinState(u8),
    /// Commit/abandon the forming batch (clear pins).
    Unpin,
    /// The device crashed: drop everything.
    Wipe,
}

/// Deterministic per-key image size in 40..=300 bytes, so a key always
/// re-loads at the bytes it was first loaded at (as the runtime does)
/// and any two pinned images plus one load fit the 1000-byte budget.
fn op_bytes(key: ImageKey) -> u64 {
    let id = match key {
        ImageKey::Weights(m) => m as u64,
        ImageKey::State(s) => 16 + s,
    };
    40 + (id * 97) % 261
}

/// Decodes one raw draw into an op, weighted toward loads (8/12) with
/// occasional releases, pins, unpins, and wipes.
fn decode_op(v: u64) -> ResidencyOp {
    let id = ((v >> 8) % 6) as u8;
    match v % 12 {
        0..=3 => ResidencyOp::Weights(id),
        4..=7 => ResidencyOp::State(id),
        8 => ResidencyOp::Release(id),
        9 if v & (1 << 20) != 0 => ResidencyOp::PinWeights(id),
        9 => ResidencyOp::PinState(id),
        10 => ResidencyOp::Unpin,
        _ => ResidencyOp::Wipe,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Satellite acceptance: the LRU's byte accounting and pin guarantee
    /// hold under arbitrary mixed weight/state traffic.
    #[test]
    fn residency_lru_invariants_hold_under_mixed_traffic(
        raw_ops in collection::vec(any::<u64>(), 1..80),
    ) {
        let ops: Vec<ResidencyOp> = raw_ops.iter().map(|&v| decode_op(v)).collect();
        const BUDGET: u64 = 1000;
        let mut r = DeviceResidency::new(BUDGET);
        // Shadow model: the images we believe are resident (unordered),
        // every session that has ever materialized its state (a later
        // miss is a *charged* reload, as the runtime tracks it), and the
        // pins we currently hold — kept at most two wide so the pinned
        // working set can never overflow the budget (the runtime
        // guarantees the same by construction).
        let mut shadow: Vec<(ImageKey, u64)> = Vec::new();
        let mut ever_materialized: Vec<u64> = Vec::new();
        let mut pins: Vec<ImageKey> = Vec::new();
        let ensure = |r: &mut DeviceResidency,
                      shadow: &mut Vec<(ImageKey, u64)>,
                      ever_materialized: &mut Vec<u64>,
                      pins: &[ImageKey],
                      key: ImageKey| {
            let bytes = op_bytes(key);
            let was_resident = shadow.iter().any(|&(k, _)| k == key);
            let reload = match key {
                ImageKey::State(s) => ever_materialized.contains(&s) && !was_resident,
                ImageKey::Weights(_) => false,
            };
            let ev = match key {
                ImageKey::Weights(m) => r.ensure(m, bytes),
                ImageKey::State(s) => {
                    if !ever_materialized.contains(&s) {
                        ever_materialized.push(s);
                    }
                    r.ensure_state(s, bytes, reload)
                }
            };
            // A pinned image is never evicted while its pin is held.
            for victim in &ev.evicted {
                prop_assert!(
                    !pins.contains(victim),
                    "evicted pinned image {victim:?} (pins {pins:?})"
                );
            }
            // Hits are free; misses charge exactly the streaming time,
            // except a first state materialization (fabricated free).
            if was_resident {
                prop_assert!(!ev.loaded);
                prop_assert_eq!(ev.load_us, 0.0);
                prop_assert!(ev.evicted.is_empty());
            } else {
                let charged = matches!(key, ImageKey::Weights(_)) || reload;
                prop_assert_eq!(ev.loaded, charged);
                if charged {
                    let expect_us = bytes as f64 / 8192.0;
                    prop_assert!((ev.load_us - expect_us).abs() < 1e-12);
                } else {
                    prop_assert_eq!(ev.load_us, 0.0);
                }
            }
            shadow.retain(|(k, _)| !ev.evicted.contains(k));
            if !was_resident {
                shadow.push((key, bytes));
            }
        };
        for op in &ops {
            match *op {
                ResidencyOp::Weights(m) => {
                    ensure(
                        &mut r,
                        &mut shadow,
                        &mut ever_materialized,
                        &pins,
                        ImageKey::Weights(m as usize),
                    );
                }
                ResidencyOp::State(s) => {
                    ensure(
                        &mut r,
                        &mut shadow,
                        &mut ever_materialized,
                        &pins,
                        ImageKey::State(s as u64),
                    );
                }
                ResidencyOp::Release(s) => {
                    r.release_state(s as u64);
                    shadow.retain(|&(k, _)| k != ImageKey::State(s as u64));
                }
                ResidencyOp::PinWeights(m) if pins.len() < 2 => {
                    let key = ImageKey::Weights(m as usize);
                    r.pin(key);
                    if !pins.contains(&key) {
                        pins.push(key);
                    }
                }
                ResidencyOp::PinState(s) if pins.len() < 2 => {
                    let key = ImageKey::State(s as u64);
                    r.pin(key);
                    if !pins.contains(&key) {
                        pins.push(key);
                    }
                }
                ResidencyOp::PinWeights(_) | ResidencyOp::PinState(_) => {}
                ResidencyOp::Unpin => {
                    r.unpin_all();
                    pins.clear();
                }
                ResidencyOp::Wipe => {
                    let (w, s) = r.wipe();
                    let shadow_w =
                        shadow.iter().filter(|(k, _)| matches!(k, ImageKey::Weights(_))).count();
                    prop_assert_eq!((w as usize, s as usize), (shadow_w, shadow.len() - shadow_w));
                    shadow.clear();
                    pins.clear();
                }
            }
            // The budget is never exceeded, and used_bytes exactly
            // matches the image set implied by the emitted events.
            prop_assert!(r.used_bytes() <= r.budget_bytes());
            let shadow_sum: u64 = shadow.iter().map(|&(_, b)| b).sum();
            prop_assert_eq!(r.used_bytes(), shadow_sum);
            for &(k, _) in &shadow {
                let resident = match k {
                    ImageKey::Weights(m) => r.is_resident(m),
                    ImageKey::State(s) => r.is_state_resident(s),
                };
                prop_assert!(resident, "shadow says {k:?} is resident but the LRU disagrees");
            }
        }
    }
}
