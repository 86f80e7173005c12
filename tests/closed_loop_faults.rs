//! The combination no test drove before (named by PR 17): a saturating
//! **closed loop** × a [`FaultPlan`] that **crashes** a device mid-run ×
//! an [`AdmissionPolicy`] that **sheds**. Every minted request must be
//! answered exactly once — served, shed at admission, or shed after its
//! retries ran out — the live counters must agree with the responses,
//! and none of it may depend on the host executor.

use ernn::fpga::exec::DatapathConfig;
use ernn::fpga::XCKU060;
use ernn::model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn::serve::sched::{
    AdmissionPolicy, CostModel, DeviceResidency, ModelRegistry, SchedPolicy, SchedReport,
    SchedRuntime,
};
use ernn::serve::{
    CompiledModel, DeviceFault, ExecutorKind, FaultEvent, FaultPlan, HealthConfig, Request,
    RuntimeConfig, ShedReason, TimelineConfig, TraceConfig,
};
use ernn_bench::sweep::{
    assert_answered_once, assert_counters_match_responses, assert_executor_blind,
};
use rand::SeedableRng;

const DIM: usize = 8;
const FRAMES: usize = 40;
const CLIENTS: usize = 6;
const TOTAL: usize = 90;

fn registry() -> ModelRegistry {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(83);
    let dense = ModelSpec::new(CellType::Gru, DIM, 5)
        .layer_dims(&[16])
        .build(&mut rng);
    let net = compress_network(&dense, BlockPolicy::uniform(4));
    let mut reg = ModelRegistry::new();
    reg.register(
        "gru-16",
        CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060),
    );
    reg
}

#[test]
fn closed_loop_through_a_crash_with_shedding_answers_every_request_once() {
    let reg = registry();
    let est_us = CostModel::build(&[XCKU060], &reg).estimate_frames_us(0, 0, FRAMES as u64);
    let load_us = DeviceResidency::load_us(reg.weight_bytes(0));
    // Two devices, six clients: three requests deep per device fits the
    // deadline, so the loop runs unshed until device 0 dies a third of the
    // way in. Its batch in flight is aborted and retried, the six clients
    // now queue on one device, and arrivals predicted past their deadline
    // are shed — each shed minting its client's next request at once.
    let slo_us = load_us + 3.5 * est_us;
    let plan = FaultPlan::new(vec![FaultEvent {
        t_us: load_us + (TOTAL / 3 / 2) as f64 * est_us + 0.5 * est_us,
        device: 0,
        fault: DeviceFault::Crash {
            down_us: 10.0 * est_us,
        },
    }]);
    let payloads = vec![(0usize, vec![vec![0.1f32; DIM]; FRAMES])];
    let run = |executor: ExecutorKind| -> SchedReport {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060; 2],
            SchedPolicy::edf_cost_model(2, 0.0).with_admission(AdmissionPolicy::ShedPredictedLate),
            RuntimeConfig::new()
                .executor(executor)
                .fault_plan(plan.clone())
                .tracing(TraceConfig::enabled(8192))
                .timeline(TimelineConfig::enabled(est_us, 4096))
                .health(HealthConfig::enabled()),
        )
        .run_closed_loop(&payloads, CLIENTS, TOTAL, Some(slo_us))
    };
    let inline = run(ExecutorKind::Inline);
    let serial = run(ExecutorKind::ThreadPool);

    // The closed loop mints ids 0..TOTAL, one per client turn.
    let minted: Vec<Request> = (0..TOTAL as u64)
        .map(|id| Request::new(id, Vec::new(), 0.0))
        .collect();
    assert_answered_once("closed loop × crash × shed", &minted, &inline.responses);
    assert_counters_match_responses("closed loop × crash × shed", &inline);
    assert_executor_blind("closed loop × crash × shed", &inline, &serial);

    // All three ingredients took part in the run being checked.
    let stats = &inline.sched;
    let shed_for = |reason: ShedReason| {
        let by_reason = |r: &&ernn::serve::Response| r.shed_reason == Some(reason);
        inline.responses.iter().filter(by_reason).count()
    };
    let summary = format!(
        "{} crashes, {} batches aborted, {} retries, {} served, {} shed ({} predicted late)",
        stats.device_crashes,
        stats.batches_aborted,
        stats.retries_scheduled,
        inline.metrics.completed,
        inline.metrics.shed,
        shed_for(ShedReason::DeadlineInfeasible),
    );
    assert_eq!(stats.device_crashes, 1, "{summary}");
    assert!(stats.batches_aborted > 0, "{summary}");
    assert!(shed_for(ShedReason::DeadlineInfeasible) > 0, "{summary}");
    assert!(inline.metrics.completed > TOTAL / 3, "{summary}");
    assert_eq!(
        inline.metrics.shed + inline.metrics.completed,
        TOTAL,
        "{summary}"
    );
    println!("{summary}");
}
