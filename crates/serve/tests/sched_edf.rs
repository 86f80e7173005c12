//! Integration tests for the SLO-aware scheduler (`ernn_serve::sched`):
//!
//! * **EDF batch formation never inverts deadlines** — property-tested
//!   over random queues, batch caps and padding limits: every formed
//!   batch's worst deadline is no later than any same-model request left
//!   behind.
//! * **Admission control sheds exactly the predicted-late requests** —
//!   a saturating burst whose shed set is computed by hand from the
//!   documented predictor, and a saturating closed loop whose shed set
//!   must coincide with the predictor's decisions as journaled.
//! * **Virtual-time determinism across executors** — responses, metrics
//!   and scheduler stats are bit-identical between `Inline` and
//!   `ThreadPool`.

use ernn_fpga::exec::DatapathConfig;
use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
use ernn_serve::loadgen::{open_loop_poisson, synthetic_utterances, with_uniform_slo};
use ernn_serve::sched::{
    AdmissionPolicy, CostModel, DeviceResidency, ModelRegistry, PaddingModel, QueueDiscipline,
    SchedPolicy, SchedQueue, SchedReport, SchedRuntime,
};
use ernn_serve::{CompiledModel, ExecutorKind, Request, RuntimeConfig, TraceConfig, TraceEvent};
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
    reg.register("gru-16", compiled(21, 16));
    reg.register("gru-32", compiled(22, 32));
    reg
}

/// The EDF ordering key the queue uses.
fn key(r: &Request) -> f64 {
    r.deadline_us.unwrap_or(f64::INFINITY)
}

/// Affinity oracle for loads with no streaming sessions.
fn unbound(_: u64) -> Option<usize> {
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn formed_batches_never_invert_deadlines(
        // One u64 per request, decoded into (model, frames, deadline);
        // a zero deadline selector means no deadline.
        specs in proptest::collection::vec(0u64..60_000, 1..40),
        max_batch in 1usize..8,
        pad_frac_pct in 0u64..101,
    ) {
        let padding = PaddingModel::new(pad_frac_pct as f64 / 100.0);
        let mut queue = SchedQueue::new(QueueDiscipline::Edf);
        for (i, &spec) in specs.iter().enumerate() {
            let model = (spec % 3) as usize;
            let frames = ((spec / 3) % 40 + 1) as usize;
            let dl = (spec / 120) % 500;
            let mut r = Request::new(i as u64, vec![vec![0.0; 2]; frames], i as f64)
                .with_model(model);
            if dl > 0 {
                r = r.with_deadline(dl as f64);
            }
            queue.push(r, i as u64, 1.0);
        }
        while let Some(head) = queue.head() {
            let model = head.model;
            let batch = queue
                .take_batch(model, max_batch, &padding, &unbound)
                .batch;
            prop_assert!(!batch.is_empty(), "head model always yields a batch");
            prop_assert!(batch.iter().all(|r| r.model == model));
            // Within the batch, deadlines are non-decreasing…
            for w in batch.windows(2) {
                prop_assert!(key(&w[0]) <= key(&w[1]));
            }
            // …and no same-model request left behind is more urgent than
            // anything the batch took (padding may close a batch early,
            // but never by skipping past a more urgent request).
            let worst_taken = batch.iter().map(key).fold(f64::NEG_INFINITY, f64::max);
            let mut probe = SchedQueue::new(QueueDiscipline::Edf);
            // Drain the remaining same-model requests via further batches
            // to inspect them without private access.
            let mut remaining_min = f64::INFINITY;
            while let Some(h) = queue.head() {
                let m = h.model;
                for r in queue.take_batch(m, usize::MAX, &PaddingModel::none(), &unbound).batch {
                    if r.model == model {
                        remaining_min = remaining_min.min(key(&r));
                    }
                    let seq = r.id;
                    probe.push(r, seq, 1.0);
                }
            }
            // Put everything back for the next round.
            while let Some(h) = probe.head() {
                let m = h.model;
                for r in probe.take_batch(m, usize::MAX, &PaddingModel::none(), &unbound).batch {
                    let seq = r.id;
                    queue.push(r, seq, 1.0);
                }
            }
            prop_assert!(
                worst_taken <= remaining_min,
                "batch key {worst_taken} vs remaining {remaining_min}"
            );
        }
    }
}

/// A one-device runtime that sheds predicted-late arrivals and journals
/// every decision.
fn shedding_runtime(reg: ModelRegistry) -> SchedRuntime {
    SchedRuntime::with_config(
        reg,
        vec![XCKU060],
        SchedPolicy::edf_cost_model(1, 0.0).with_admission(AdmissionPolicy::ShedPredictedLate),
        RuntimeConfig::new().tracing(TraceConfig::enabled(4096)),
    )
}

/// The admission decisions a run journaled, in decision order:
/// `(id, predicted_us, admitted)`. Only admission sheds happen in these
/// fault-free runs, so every `Shed` is a decision.
fn decisions(report: &SchedReport) -> Vec<(u64, f64, bool)> {
    assert_eq!(report.trace.journal.dropped, 0, "the journal holds the run");
    let decision = |e: &TraceEvent| match *e {
        TraceEvent::Admit {
            id, predicted_us, ..
        } => Some((id, predicted_us, true)),
        TraceEvent::Shed {
            id, predicted_us, ..
        } => Some((id, predicted_us, false)),
        _ => None,
    };
    report
        .trace
        .journal
        .events
        .iter()
        .filter_map(decision)
        .collect()
}

/// Admission control must shed *exactly* the requests the documented
/// predictor marks late — hand-computed here for a t = 0 burst on one
/// device: request i (admission order) is predicted to complete at
/// `load_us + (i_queued + 1) · est_solo`, so with a deadline of
/// `load_us + 3.5 · est_solo` exactly three requests are admitted and
/// every one of them meets its deadline.
#[test]
fn admission_sheds_exactly_the_predicted_late_requests() {
    let reg = registry();
    let frames = 40usize;
    let cost = CostModel::build(&[XCKU060], &reg);
    let est = cost.estimate_frames_us(0, 0, frames as u64);
    let load = DeviceResidency::load_us(reg.weight_bytes(0));
    let deadline = load + 3.5 * est;

    let utt = vec![vec![0.1f32; DIM]; frames];
    let requests: Vec<Request> = (0..12)
        .map(|i| Request::new(i, utt.clone(), 0.0).with_deadline(deadline))
        .collect();

    let report = shedding_runtime(reg).run(requests);

    assert_eq!(report.responses.len(), 12);
    let mut shed: Vec<u64> = report
        .responses
        .iter()
        .filter(|r| r.shed)
        .map(|r| r.id)
        .collect();
    shed.sort_unstable();
    assert_eq!(shed, (3..12).collect::<Vec<_>>(), "exactly requests 3..12");
    // The admitted three all meet the deadline (the predictor is exact
    // for this load: service estimates match the device sim).
    for r in report.responses.iter().filter(|r| !r.shed) {
        assert!(r.deadline_met, "request {} missed: {r:?}", r.id);
    }
    assert_eq!(report.metrics.shed, 9);
    assert_eq!(report.sched.admitted, 3);
    assert!((report.metrics.deadline_miss_rate - 9.0 / 12.0).abs() < 1e-9);
    // The journaled decisions agree with the predictions.
    let decisions = decisions(&report);
    assert_eq!(decisions.len(), 12);
    for (id, predicted_us, admitted) in decisions {
        assert_eq!(admitted, predicted_us <= deadline, "request {id}");
    }
}

/// Under a saturating closed loop the shed set must coincide with the
/// predictor's journaled decisions, and shedding must keep the loop live (every
/// shed mints the client's next request immediately).
#[test]
fn saturating_closed_loop_sheds_consistently_with_the_predictor() {
    let reg = registry();
    let cost = CostModel::build(&[XCKU060], &reg);
    let est = cost.estimate_frames_us(0, 0, 40);
    let load = DeviceResidency::load_us(reg.weight_bytes(0));
    // Room for roughly two in-flight requests: a 6-client loop saturates.
    let slo = load + 2.5 * est;

    let payloads = vec![(0usize, vec![vec![0.1f32; DIM]; 40])];
    let report = shedding_runtime(reg).run_closed_loop(&payloads, 6, 60, Some(slo));

    assert_eq!(report.responses.len(), 60);
    assert!(report.metrics.shed > 0, "saturation must shed: {:?}", {
        &report.metrics
    });
    assert!(report.metrics.completed > 0, "but not starve the queue");
    assert_eq!(report.metrics.shed + report.metrics.completed, 60);
    let decisions = decisions(&report);
    assert_eq!(decisions.len(), 60);
    // Decision ⟺ prediction, for every single arrival.
    for &(id, predicted_us, admitted) in &decisions {
        assert_eq!(admitted, predicted_us <= slo, "request {id}");
    }
    // And the response-level shed set matches the journal.
    use std::collections::BTreeSet;
    let shed_responses: BTreeSet<u64> = report
        .responses
        .iter()
        .filter(|r| r.shed)
        .map(|r| r.id)
        .collect();
    let shed_journaled: BTreeSet<u64> = decisions
        .iter()
        .filter(|&&(_, _, admitted)| !admitted)
        .map(|&(id, _, _)| id)
        .collect();
    assert_eq!(shed_responses, shed_journaled);
}

#[test]
fn sched_reports_are_bit_identical_across_executors() {
    let make = |kind| {
        SchedRuntime::with_config(
            registry(),
            vec![XCKU060, ADM_PCIE_7V3],
            SchedPolicy::edf_cost_model(4, 100.0)
                .with_admission(AdmissionPolicy::ShedPredictedLate)
                .with_padding(PaddingModel::new(0.5)),
            RuntimeConfig::new().executor(kind),
        )
    };
    let load = || {
        let utts = synthetic_utterances(8, (10, 40), DIM, 71);
        with_uniform_slo(open_loop_poisson(&utts, 48, 150_000.0, 72), 2_000.0)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.with_model(i % 2))
            .collect::<Vec<_>>()
    };
    let served = make(ExecutorKind::Inline).run(load());
    let serial = make(ExecutorKind::ThreadPool).run(load());

    // Virtual-time results: bit-identical, field for field.
    assert_eq!(served.responses, serial.responses);
    assert_eq!(served.metrics, serial.metrics);
    assert_eq!(served.sched, serial.sched);
    // So is the host FFT work, whichever thread ran it.
    assert_eq!(served.host_fft(), serial.host_fft());
}
