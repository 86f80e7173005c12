//! Cycle-level simulation of the 3-stage CGPipe with double buffers.
//!
//! The analytical model in [`crate::Accelerator`] assumes ideal double
//! buffering (`II = max stage`, latency = `3·II`), and
//! [`StageCycles::stream_completion_cycles`] is the closed form every
//! committed number reads. This module is that closed form's oracle: it
//! *simulates* the pipeline event by event — each frame must wait for
//! both its predecessor stage and the stage's previous occupant — and is
//! property-tested cycle for cycle against it.

use crate::accelerator::StageCycles;

/// Advances one frame through the double-buffered 3-stage pipeline:
/// stage `s` starts when the frame leaves stage `s−1` *and* stage `s`'s
/// previous occupant has vacated its buffer. Updates per-stage finish
/// times and busy counters, returning when the frame exits stage 3.
#[inline]
fn advance_frame(durations: &[u64; 3], finish: &mut [u64; 3], busy: &mut [u64; 3]) -> u64 {
    let mut t = finish[0];
    for s in 0..3 {
        let start = t.max(finish[s]);
        let end = start + durations[s];
        finish[s] = end;
        busy[s] += durations[s];
        t = end;
    }
    t
}

/// Result of simulating a *batch* of utterances whose frames stream
/// back-to-back through the pipeline (the serving runtime's device model:
/// a dispatched batch owns the CGPipe until its last frame drains).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchTrace {
    /// Cycles from batch start to the last frame leaving stage 3.
    pub makespan_cycles: u64,
    /// Per-utterance completion (cycles from batch start until the
    /// utterance's final frame exits stage 3), in submission order.
    pub completion_cycles: Vec<u64>,
    /// Fraction of the makespan each stage was busy.
    pub occupancy: [f64; 3],
}

/// Simulates a batch of utterances with `frame_counts[i]` frames each
/// through the double-buffered 3-stage pipeline, frames back-to-back in
/// submission order, and records when each utterance finishes.
///
/// Stage `s` of frame `f` starts when both stage `s−1` of frame `f` has
/// finished *and* stage `s` of frame `f−1` has vacated its buffer — the
/// exact behaviour of the CGPipe double buffers in Fig. 11. Batching
/// amortizes the pipeline fill across utterances, which is precisely the
/// win the serving runtime's dynamic batcher is after.
///
/// # Panics
///
/// Panics if `frame_counts` is empty or any count is zero.
pub fn simulate_batch(stages: StageCycles, frame_counts: &[u64]) -> BatchTrace {
    let mut trace = BatchTrace::default();
    simulate_batch_into(stages, frame_counts, &mut trace);
    trace
}

/// [`simulate_batch`] writing into a caller-owned trace, reusing its
/// `completion_cycles` allocation, so a caller that simulates batch after
/// batch allocates once; results are identical to [`simulate_batch`].
///
/// # Panics
///
/// Panics if `frame_counts` is empty or any count is zero.
pub fn simulate_batch_into(stages: StageCycles, frame_counts: &[u64], trace: &mut BatchTrace) {
    assert!(!frame_counts.is_empty(), "need at least one utterance");
    let durations = stages.as_array();
    let mut finish = [0u64; 3];
    let mut busy = [0u64; 3];
    trace.completion_cycles.clear();
    trace.completion_cycles.reserve(frame_counts.len());
    for &frames in frame_counts {
        assert!(frames > 0, "every utterance needs at least one frame");
        let mut last_exit = 0u64;
        for _ in 0..frames {
            last_exit = advance_frame(&durations, &mut finish, &mut busy);
        }
        trace.completion_cycles.push(last_exit);
    }
    let makespan = finish[2];
    trace.makespan_cycles = makespan;
    trace.occupancy = [
        busy[0] as f64 / makespan as f64,
        busy[1] as f64 / makespan as f64,
        busy[2] as f64 / makespan as f64,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stages(a: u64, b: u64, c: u64) -> StageCycles {
        StageCycles {
            stage1: a,
            stage2: b,
            stage3: c,
        }
    }

    #[test]
    fn single_frame_latency_is_stage_sum() {
        let r = simulate_batch(stages(100, 50, 80), &[1]);
        assert_eq!(r.makespan_cycles, 230);
        assert_eq!(r.completion_cycles, vec![230]);
    }

    #[test]
    fn steady_state_matches_ii() {
        // One-frame utterances mark every frame's exit: past the fill, a
        // frame leaves every II cycles, whichever stage is the bottleneck.
        for s in [stages(100, 50, 80), stages(40, 120, 60), stages(30, 20, 90)] {
            let r = simulate_batch(s, &[1; 1000]);
            for w in r.completion_cycles.windows(2) {
                assert_eq!(w[1] - w[0], s.ii(), "{s:?}");
            }
        }
    }

    #[test]
    fn makespan_closed_form() {
        // makespan = fill (sum of stages) + (frames − 1) · II for a
        // bottleneck-first pipeline.
        let s = stages(100, 50, 80);
        let r = simulate_batch(s, &[10]);
        assert_eq!(r.makespan_cycles, 230 + 9 * 100);
    }

    #[test]
    fn bottleneck_stage_is_fully_occupied() {
        let s = stages(100, 40, 60);
        let r = simulate_batch(s, &[500]);
        assert!(r.occupancy[0] > 0.99);
        assert!(r.occupancy[1] < r.occupancy[0]);
    }

    #[test]
    fn balanced_pipeline_latency_is_three_ii() {
        // The paper's latency convention: with balanced stages, frame `j`
        // enters at `j·II` and leaves at `3·II + j·II`.
        let s = stages(90, 90, 90);
        let r = simulate_batch(s, &[1; 100]);
        for (j, &done) in (0u64..).zip(&r.completion_cycles) {
            assert_eq!(done - j * s.ii(), 270);
        }
        assert_eq!(s.latency_cycles(), 270);
    }

    #[test]
    fn batch_completions_are_monotone_and_end_at_makespan() {
        let s = stages(90, 110, 70);
        let trace = simulate_batch(s, &[3, 1, 5, 2]);
        for w in trace.completion_cycles.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(
            *trace.completion_cycles.last().unwrap(),
            trace.makespan_cycles
        );
        // Utterance boundaries do not change occupancy (same frames, same
        // timing kernel): the bottleneck stage saturates.
        let stream = simulate_batch(s, &[11]);
        assert_eq!(trace.occupancy, stream.occupancy);
        assert!(trace.occupancy[1] > trace.occupancy[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn stream_closed_form_is_exact_against_the_event_sim(
            s1 in 1u64..200,
            s2 in 1u64..200,
            s3 in 1u64..200,
            counts in proptest::collection::vec(1u64..20, 1..6),
        ) {
            // The scheduler's cost model relies on the closed form
            // `fill + (j − 1)·II` for the j-th streamed frame being exact,
            // whatever the stage imbalance — per-utterance completions and
            // the batch makespan must match the event-driven sim cycle for
            // cycle.
            let s = stages(s1, s2, s3);
            let trace = simulate_batch(s, &counts);
            let mut streamed = 0u64;
            for (utt, &frames) in counts.iter().enumerate() {
                streamed += frames;
                prop_assert_eq!(
                    trace.completion_cycles[utt],
                    s.stream_completion_cycles(streamed)
                );
            }
            prop_assert_eq!(
                trace.makespan_cycles,
                s.stream_completion_cycles(streamed)
            );
        }
    }

    #[test]
    fn simulate_batch_into_reuses_scratch_and_matches() {
        let s = stages(100, 50, 80);
        let mut scratch = BatchTrace {
            makespan_cycles: 999,
            completion_cycles: vec![1, 2, 3, 4, 5, 6, 7, 8],
            occupancy: [0.5; 3],
        };
        // Stale scratch contents must be fully overwritten.
        simulate_batch_into(s, &[4, 2], &mut scratch);
        assert_eq!(scratch, simulate_batch(s, &[4, 2]));
        // And a second reuse with a different batch shape works too.
        simulate_batch_into(s, &[1, 1, 1], &mut scratch);
        assert_eq!(scratch, simulate_batch(s, &[1, 1, 1]));
    }

    #[test]
    fn batching_amortizes_pipeline_fill() {
        // Running utterances back-to-back must beat draining the pipe
        // between them: batched makespan < sum of solo makespans.
        let s = stages(100, 60, 90);
        let counts = [4u64, 6, 3];
        let batched = simulate_batch(s, &counts).makespan_cycles;
        let solo: u64 = counts
            .iter()
            .map(|&f| simulate_batch(s, &[f]).makespan_cycles)
            .sum();
        assert!(batched < solo, "batched {batched} vs solo {solo}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn batch_concat_equals_single_stream(
            a in 1u64..40,
            b in 1u64..40,
            s1 in 1u64..200,
            s2 in 1u64..200,
            s3 in 1u64..200,
        ) {
            // Splitting a stream of frames into utterances must not change
            // the pipeline timing — only add completion markers.
            let s = stages(s1, s2, s3);
            let batch = simulate_batch(s, &[a, b]);
            let stream = simulate_batch(s, &[a + b]);
            prop_assert_eq!(batch.makespan_cycles, stream.makespan_cycles);
        }
    }

    proptest! {
        #[test]
        fn makespan_is_fill_plus_ii_per_frame(
            a in 1u64..500,
            b in 1u64..500,
            c in 1u64..500,
            frames in 1u64..200,
        ) {
            let s = stages(a, b, c);
            let r = simulate_batch(s, &[frames]);
            // With a single bottleneck stage, makespan = sum + (n−1)·II.
            // When the first stage is the bottleneck this is exact; in
            // general it is an upper bound within one fill.
            let ii = s.ii();
            let sum = a + b + c;
            prop_assert!(r.makespan_cycles >= sum + (frames - 1) * ii - sum);
            prop_assert!(r.makespan_cycles <= sum + (frames - 1) * ii);
        }
    }
}
