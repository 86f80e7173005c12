//! Traffic generation for the serving runtime.
//!
//! Two canonical load shapes:
//!
//! * **Open-loop Poisson** — arrivals follow an exponential inter-arrival
//!   process at a fixed offered rate, independent of completions. This is
//!   the "heavy traffic from many users" shape; the system has no back
//!   pressure and queues grow when the offered rate exceeds capacity.
//! * **Closed-loop** — a fixed population of clients, each submitting its
//!   next request the moment the previous one completes. Throughput here
//!   is latency-bound (`concurrency / mean latency`).
//!
//! Open-loop traffic is materialized up front as a request list; closed
//! loops need completion feedback and are driven by
//! [`SchedRuntime::run_closed_loop`](crate::sched::SchedRuntime::run_closed_loop).

use crate::request::Request;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Shape of an open-loop streaming-session load: how sessions start, how
/// their utterances are chunked, and what per-chunk deadline they carry.
#[derive(Debug, Clone, Copy)]
pub struct SessionLoad {
    /// Poisson session-start rate (sessions/second).
    pub session_rate_sps: f64,
    /// Frames per chunk (the last chunk of an utterance may be shorter).
    pub chunk_frames: usize,
    /// Real-time cadence between a session's chunk arrivals (µs) — a
    /// microphone delivering `chunk_frames` of audio per interval.
    pub chunk_gap_us: f64,
    /// Per-chunk deadline, relative to each chunk's arrival (µs);
    /// `None` leaves chunks deadline-free.
    pub chunk_slo_us: Option<f64>,
}

/// Draws an exponential inter-arrival gap (µs) for the given rate.
fn exp_gap_us(rate_rps: f64, rng: &mut ChaCha8Rng) -> f64 {
    // Inverse-CDF sampling; clamp the uniform away from 0 so ln stays finite.
    let u: f64 = rng.gen_range(1e-12f64..1.0);
    -u.ln() / rate_rps * 1e6
}

/// Generates `num_requests` open-loop Poisson arrivals at `rate_rps`
/// requests/second, cycling through `utterances` for payloads.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `utterances` is empty or `rate_rps` is not positive.
pub fn open_loop_poisson(
    utterances: &[Vec<Vec<f32>>],
    num_requests: usize,
    rate_rps: f64,
    seed: u64,
) -> Vec<Request> {
    assert!(!utterances.is_empty(), "need at least one utterance");
    assert!(rate_rps > 0.0, "rate must be positive, got {rate_rps}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut now_us = 0.0f64;
    (0..num_requests)
        .map(|i| {
            now_us += exp_gap_us(rate_rps, &mut rng);
            Request::new(i as u64, utterances[i % utterances.len()].clone(), now_us)
        })
        .collect()
}

/// One utterance as a paced streaming session: `chunk_frames`-frame
/// chunks (the last may be shorter) of session `session`, the first
/// arriving at `start_us` and each next one `chunk_gap_us` later — a
/// microphone delivering audio in real time. Request ids count up from
/// `first_id`, the final chunk carries the `last` mark, and `chunk_slo_us`
/// (when given) sets every chunk's deadline relative to its own arrival.
///
/// # Panics
///
/// Panics if `chunk_frames` is zero.
pub fn paced_session(
    utterance: &[Vec<f32>],
    session: u64,
    first_id: u64,
    start_us: f64,
    chunk_gap_us: f64,
    chunk_frames: usize,
    chunk_slo_us: Option<f64>,
) -> impl Iterator<Item = Request> + '_ {
    assert!(chunk_frames >= 1, "chunks need at least one frame");
    let num_chunks = utterance.len().div_ceil(chunk_frames);
    utterance
        .chunks(chunk_frames)
        .enumerate()
        .map(move |(i, frames)| {
            let arrival = start_us + i as f64 * chunk_gap_us;
            let r = Request::chunk(
                first_id + i as u64,
                session,
                i as u32,
                i == num_chunks - 1,
                frames.to_vec(),
                arrival,
            );
            match chunk_slo_us {
                Some(slo) => r.with_deadline(arrival + slo),
                None => r,
            }
        })
}

/// Generates `num_sessions` open-loop streaming sessions: session starts
/// follow a Poisson process at `shape.session_rate_sps`, and each session
/// streams one utterance from the pool (cycled) as a [`paced_session`]
/// of `shape.chunk_frames`-frame chunks every `shape.chunk_gap_us`,
/// optionally with a per-chunk deadline. Request ids are globally unique
/// and the returned list is sorted by arrival time, so concurrent
/// sessions interleave exactly as a runtime would see them.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `utterances` is empty, the rate is not positive,
/// `chunk_frames` is zero, or `chunk_gap_us` is not positive.
pub fn open_loop_sessions(
    utterances: &[Vec<Vec<f32>>],
    num_sessions: usize,
    shape: SessionLoad,
    seed: u64,
) -> Vec<Request> {
    assert!(!utterances.is_empty(), "need at least one utterance");
    assert!(
        shape.session_rate_sps > 0.0,
        "session rate must be positive, got {}",
        shape.session_rate_sps
    );
    assert!(
        shape.chunk_gap_us > 0.0,
        "chunk cadence must be positive, got {}",
        shape.chunk_gap_us
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut start_us = 0.0f64;
    let mut requests = Vec::new();
    for session in 0..num_sessions {
        start_us += exp_gap_us(shape.session_rate_sps, &mut rng);
        requests.extend(paced_session(
            &utterances[session % utterances.len()],
            session as u64,
            requests.len() as u64,
            start_us,
            shape.chunk_gap_us,
            shape.chunk_frames,
            shape.chunk_slo_us,
        ));
    }
    requests.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us).then(a.id.cmp(&b.id)));
    requests
}

/// Attaches a uniform latency deadline (`slo_us` after arrival) to every
/// request.
pub fn with_uniform_slo(requests: Vec<Request>, slo_us: f64) -> Vec<Request> {
    requests
        .into_iter()
        .map(|r| {
            let arrival = r.arrival_us;
            r.with_deadline(arrival + slo_us)
        })
        .collect()
}

/// Synthesizes `count` random utterances of `dim`-dimensional frames with
/// lengths drawn from `frames` (inclusive). Deterministic in `seed`;
/// useful for benches and tests that don't need the full ASR corpus.
///
/// The stream: per utterance, one `gen_range` draw of its length, then
/// its `len·dim` frame values in `[-1, 1)` as one run of the stream (one
/// bulk fill, split into frames in order). That is the per-frame draw
/// bit for bit, since consecutive fills continue one run.
pub fn synthetic_utterances(
    count: usize,
    frames: (usize, usize),
    dim: usize,
    seed: u64,
) -> Vec<Vec<Vec<f32>>> {
    assert!(frames.0 >= 1 && frames.0 <= frames.1, "bad frame range");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut drawn = Vec::new();
    (0..count)
        .map(|_| {
            let len = rng.gen_range(frames.0..=frames.1);
            drawn.resize(len * dim, 0.0);
            rng.fill_f32_range(&mut drawn, -1.0, 1.0);
            (0..len).map(|f| drawn[f * dim..][..dim].to_vec()).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-frame draw `synthetic_utterances` replaced: one fill per
    /// frame.
    fn synthetic_utterances_per_frame(
        count: usize,
        frames: (usize, usize),
        dim: usize,
        seed: u64,
    ) -> Vec<Vec<Vec<f32>>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let len = rng.gen_range(frames.0..=frames.1);
                (0..len)
                    .map(|_| {
                        let mut frame = vec![0.0; dim];
                        rng.fill_f32_range(&mut frame, -1.0, 1.0);
                        frame
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn one_fill_per_utterance_is_the_per_frame_draw(
            count in 0usize..25,
            range in 0usize..4,
            dim in 0usize..6,
            seed in any::<u64>(),
        ) {
            // Single frames, short and long utterances; frames of no
            // value, of one, below, at and above one keystream block.
            let frames = [(1, 1), (2, 9), (5, 15), (30, 60)][range];
            let dim = [0, 1, 7, 8, 39, 153][dim];
            let bits = |utts: &[Vec<Vec<f32>>]| -> Vec<Vec<Vec<u32>>> {
                utts.iter()
                    .map(|u| u.iter().map(|f| f.iter().map(|x| x.to_bits()).collect()).collect())
                    .collect()
            };
            let got = synthetic_utterances(count, frames, dim, seed);
            let want = synthetic_utterances_per_frame(count, frames, dim, seed);
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn poisson_arrivals_are_increasing_and_rate_matched() {
        let utts = synthetic_utterances(4, (3, 6), 8, 1);
        let reqs = open_loop_poisson(&utts, 2000, 10_000.0, 7);
        assert_eq!(reqs.len(), 2000);
        for w in reqs.windows(2) {
            assert!(w[0].arrival_us < w[1].arrival_us);
        }
        // 2000 requests at 10k rps ≈ 200 ms span; allow generous slack.
        let span_s = reqs.last().unwrap().arrival_us * 1e-6;
        let empirical_rate = 2000.0 / span_s;
        assert!(
            (empirical_rate - 10_000.0).abs() / 10_000.0 < 0.15,
            "empirical rate {empirical_rate}"
        );
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let utts = synthetic_utterances(2, (2, 4), 4, 3);
        let a = open_loop_poisson(&utts, 50, 1000.0, 42);
        let b = open_loop_poisson(&utts, 50, 1000.0, 42);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.arrival_us, y.arrival_us);
        }
        let c = open_loop_poisson(&utts, 50, 1000.0, 43);
        assert_ne!(a[0].arrival_us, c[0].arrival_us);
    }

    #[test]
    fn slo_attaches_relative_deadline() {
        let utts = synthetic_utterances(1, (2, 2), 4, 3);
        let reqs = with_uniform_slo(open_loop_poisson(&utts, 5, 1000.0, 1), 500.0);
        for r in &reqs {
            assert_eq!(r.deadline_us, Some(r.arrival_us + 500.0));
        }
    }

    #[test]
    fn session_loads_are_valid_interleaved_streams() {
        let utts = synthetic_utterances(3, (7, 13), 8, 5);
        let shape = SessionLoad {
            session_rate_sps: 20_000.0,
            chunk_frames: 4,
            chunk_gap_us: 40.0,
            chunk_slo_us: Some(500.0),
        };
        let reqs = open_loop_sessions(&utts, 6, shape, 11);
        // Globally sorted, unique ids.
        for w in reqs.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us);
        }
        let mut ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reqs.len());
        // Per session: contiguous indices, strict cadence, a final
        // `last`, per-chunk deadlines, frames re-assembling the
        // utterance.
        for s in 0..6u64 {
            let mut chunks: Vec<&Request> =
                reqs.iter().filter(|r| r.session() == Some(s)).collect();
            chunks.sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
            let frames: usize = chunks.iter().map(|c| c.num_frames()).sum();
            assert_eq!(frames, utts[s as usize % 3].len());
            for (i, c) in chunks.iter().enumerate() {
                let crate::request::Workload::Chunk { index, last, .. } = c.workload else {
                    panic!("session loads are all chunks");
                };
                assert_eq!(index as usize, i);
                assert_eq!(last, i == chunks.len() - 1);
                assert_eq!(c.deadline_us, Some(c.arrival_us + 500.0));
            }
        }
        // Sessions at this rate overlap: some interleaving must occur.
        let sessions_in_order: Vec<_> = reqs.iter().map(|r| r.session().unwrap()).collect();
        let mut changes = 0;
        for w in sessions_in_order.windows(2) {
            changes += usize::from(w[0] != w[1]);
        }
        assert!(changes + 1 > 6, "sessions interleave: {changes} switches");
    }

    #[test]
    fn paced_session_numbers_paces_and_marks_its_chunks() {
        let utt = &synthetic_utterances(1, (7, 7), 4, 2)[0];
        let chunks: Vec<Request> = paced_session(utt, 9, 100, 50.0, 12.5, 3, Some(80.0)).collect();
        assert_eq!(chunks.len(), 3);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.id, 100 + i as u64);
            assert_eq!(c.arrival_us, 50.0 + i as f64 * 12.5);
            assert_eq!(c.deadline_us, Some(c.arrival_us + 80.0));
            assert_eq!(
                c.workload,
                crate::request::Workload::Chunk {
                    session: 9,
                    index: i as u32,
                    last: i == 2
                }
            );
        }
        // The ragged tail keeps the leftover frame; nothing is dropped.
        let frames: Vec<Vec<f32>> = chunks.iter().flat_map(|c| c.frames.clone()).collect();
        assert_eq!(&frames, utt);
        assert_eq!(chunks[2].num_frames(), 1);
        let free = paced_session(utt, 0, 0, 0.0, 1.0, 7, None).next().unwrap();
        assert_eq!(free.deadline_us, None);
    }

    #[test]
    fn synthetic_utterances_respect_shape() {
        let utts = synthetic_utterances(10, (3, 7), 5, 9);
        assert_eq!(utts.len(), 10);
        for u in &utts {
            assert!((3..=7).contains(&u.len()));
            assert!(u.iter().all(|f| f.len() == 5));
        }
    }
}
