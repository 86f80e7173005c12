//! Streaming ASR demo: two live speakers stream audio chunks into the
//! serving runtime as stateful sessions. Recurrent state persists
//! between chunks on each session's pinned device, partial phone
//! hypotheses grow as chunks complete, and both the stitched logits and
//! the final transcript are bit-identical to serving each utterance
//! whole.
//!
//! Run with: `cargo run --release --example streaming_asr`

use ernn::asr::phones::PhoneSet;
use ernn::asr::{decode_frames, IncrementalDecoder, SynthCorpus, SynthCorpusConfig};
use ernn::fpga::XCKU060;
use ernn::model::{CellType, ModelSpec};
use ernn::pipeline::Pipeline;
use ernn::serve::loadgen::paced_session;
use ernn::serve::sched::{ModelRegistry, SchedPolicy, SchedRuntime};
use ernn::serve::{Request, Response, RuntimeConfig, Workload};
use rand::SeedableRng;
use std::sync::Arc;

const CHUNK_FRAMES: usize = 8;

fn main() {
    // 1. A corpus and a compiled acoustic model (paper preset: block 8,
    //    12-bit datapath, XCKU060). Random weights exercise exactly the
    //    same streaming path a trained model would.
    let corpus = SynthCorpus::generate(&SynthCorpusConfig::tiny(42));
    let phones = PhoneSet::standard();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let spec =
        ModelSpec::new(CellType::Gru, corpus.feature_dim, corpus.num_classes()).layer_dims(&[64]);
    let model = Pipeline::paper(spec)
        .expect("valid spec")
        .init(&mut rng)
        .project()
        .expect("paper block policy")
        .quantize()
        .expect("paper datapath")
        .compile()
        .expect("paper platform")
        .into_model();

    // 2. Two speakers stream concurrently: each utterance becomes a
    //    session of CHUNK_FRAMES-frame chunks arriving on a real-time
    //    cadence, interleaved in arrival order.
    let utts: Vec<Vec<Vec<f32>>> = corpus
        .test
        .iter()
        .take(2)
        .map(|u| u.features.clone())
        .collect();
    let mut requests: Vec<Request> = Vec::new();
    for (session, utt) in utts.iter().enumerate() {
        let first_id = requests.len();
        requests.extend(paced_session(
            utt,
            session as u64,
            first_id as u64,
            40.0 * session as f64,
            120.0,
            CHUNK_FRAMES,
            None,
        ));
        println!(
            "session {session}: {} frames as {} chunks of ≤ {CHUNK_FRAMES}",
            utt.len(),
            requests.len() - first_id
        );
    }
    requests.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us).then(a.id.cmp(&b.id)));

    // 3. Serve on two devices with the default executor. A session
    //    is pinned where its first chunk lands (state never migrates);
    //    batches may span sessions but close at chunk boundaries.
    let model = Arc::new(model);
    let mut registry = ModelRegistry::new();
    registry.register_shared("gru-64", Arc::clone(&model));
    let runtime = SchedRuntime::with_config(
        registry,
        vec![XCKU060; 2],
        SchedPolicy::fifo_earliest_free(4, 60.0),
        RuntimeConfig::new().max_live_sessions(8),
    );
    let report = runtime.run(requests);
    println!(
        "\nserved {} chunks across {} sessions; {}",
        report.metrics.chunks, report.metrics.sessions, report.metrics
    );

    // 4. Replay each session's responses in chunk order through the
    //    incremental decoder: the hypothesis grows while the speaker is
    //    still talking, and the finished transcript is bit-identical to
    //    batch-decoding the whole utterance.
    for (session, utt) in utts.iter().enumerate() {
        let mut chunks: Vec<&Response> = report
            .responses
            .iter()
            .filter(|r| r.workload.session() == Some(session as u64))
            .collect();
        chunks.sort_by_key(|r| r.id);
        let device = chunks[0].device.expect("served");
        assert!(
            chunks.iter().all(|r| r.device == Some(device)),
            "session state never migrates"
        );

        println!("\nsession {session} (pinned to device {device}):");
        let mut decoder = IncrementalDecoder::new(PhoneSet::SILENCE, 2);
        let mut stitched: Vec<Vec<f32>> = Vec::new();
        for r in &chunks {
            decoder.push_chunk(&r.logits);
            stitched.extend(r.logits.iter().cloned());
            let Workload::Chunk { index, .. } = r.workload else {
                unreachable!("session responses are chunks");
            };
            let partial: Vec<&str> = decoder
                .hypothesis()
                .iter()
                .map(|&p| phones.get(p).symbol)
                .collect();
            println!(
                "  chunk {index} done at t = {:7.1} µs → partial: [{}]",
                r.complete_us,
                partial.join(" ")
            );
        }

        // The streamed path reproduces whole-utterance serving exactly.
        let whole = model.infer(utt);
        assert_eq!(stitched, whole, "stitched logits are bit-identical");
        let final_hyp = decoder.finish();
        assert_eq!(
            final_hyp,
            decode_frames(&whole, PhoneSet::SILENCE, 2),
            "incremental decode matches the batch decoder"
        );
        let symbols: Vec<&str> = final_hyp.iter().map(|&p| phones.get(p).symbol).collect();
        println!("  final transcript: [{}]", symbols.join(" "));
    }
    println!("\nstreamed results bit-identical to whole-utterance serving ✓");
}
