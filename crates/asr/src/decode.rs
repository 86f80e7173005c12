//! Greedy decoding and phone-error-rate scoring.
//!
//! PER — the metric of the paper's Tables I and II — is the Levenshtein
//! distance between the decoded phone sequence and the reference, divided
//! by the reference length. Decoding is framewise argmax followed by
//! run-collapsing and silence removal (the standard "best path" decode for
//! framewise acoustic models).

use crate::dataset::Utterance;
use crate::phones::PhoneSet;
use ernn_linalg::ops::argmax;

/// Collapses framewise logits into a phone sequence: temporal smoothing
/// (3-frame moving average over logits), argmax per frame, merge
/// consecutive repeats, drop silence, and ignore runs shorter than
/// `min_run` frames (de-noising, 2 is a good default at a 10 ms hop).
///
/// This is [`IncrementalDecoder`] fed the whole utterance as one chunk,
/// so a streamed decode and this one are one implementation.
pub fn decode_frames(logits: &[Vec<f32>], silence_id: usize, min_run: usize) -> Vec<usize> {
    let mut decoder = IncrementalDecoder::new(silence_id, min_run);
    decoder.push_chunk(logits);
    decoder.finish()
}

/// The greedy decoder ([`decode_frames`] is this over one chunk): feed
/// logits chunk by chunk as they come off a streaming session and read
/// partial hypotheses between chunks.
///
/// Each frame is smoothed over a centered 3-frame window, so the decoder
/// holds exactly one frame of lookahead: a frame's smoothed value is
/// emitted when its successor arrives (or at
/// [`IncrementalDecoder::finish`], where the window is clamped at the
/// utterance edge). `finish()` over any chunking of an utterance returns
/// exactly what it returns over the whole utterance at once, which is
/// what the whole-utterance smoothing, run collapse and `dedup` it
/// replaced returned — `tests` checks both over randomized chunkings.
///
/// [`IncrementalDecoder::hypothesis`] is the partial transcript the
/// committed frames support; it never includes the lookahead frame or
/// the still-open run (either could change with more audio).
#[derive(Debug, Clone)]
pub struct IncrementalDecoder {
    silence_id: usize,
    min_run: usize,
    /// Raw frame t-1 (already consumed into a smoothed emission).
    prev: Option<Vec<f32>>,
    /// Raw frame t: the lookahead, not yet smoothed.
    pending: Option<Vec<f32>>,
    /// The open argmax run `(phone, length)`.
    current: Option<(usize, usize)>,
    /// Committed phones (dedup applied on push).
    out: Vec<usize>,
}

impl IncrementalDecoder {
    /// A fresh decoder with the same knobs as [`decode_frames`].
    pub fn new(silence_id: usize, min_run: usize) -> Self {
        IncrementalDecoder {
            silence_id,
            min_run,
            prev: None,
            pending: None,
            current: None,
            out: Vec::new(),
        }
    }

    /// Feeds one chunk of framewise logits.
    pub fn push_chunk(&mut self, logits: &[Vec<f32>]) {
        for frame in logits {
            self.push_frame(frame.clone());
        }
    }

    /// Feeds a single frame of logits.
    pub fn push_frame(&mut self, frame: Vec<f32>) {
        if let Some(mid) = self.pending.take() {
            let smoothed = average(self.prev.as_deref(), &mid, Some(&frame));
            self.consume(&smoothed);
            self.prev = Some(mid);
        }
        self.pending = Some(frame);
    }

    /// The partial hypothesis committed so far (closed, qualifying runs
    /// only). Cheap: clones the committed phone list.
    pub fn hypothesis(&self) -> Vec<usize> {
        self.out.clone()
    }

    /// Consumes the decoder at end of utterance: smooths the lookahead
    /// frame against the clamped window edge, closes the final run, and
    /// returns the complete phone sequence — identical to
    /// [`decode_frames`] over the concatenated frames.
    pub fn finish(mut self) -> Vec<usize> {
        if let Some(last) = self.pending.take() {
            let smoothed = average(self.prev.as_deref(), &last, None);
            self.consume(&smoothed);
        }
        let (current, silence_id, min_run) = (self.current.take(), self.silence_id, self.min_run);
        Self::flush(current, silence_id, min_run, &mut self.out);
        self.out
    }

    /// Advances the run-collapse state machine by one smoothed frame.
    fn consume(&mut self, smoothed: &[f32]) {
        let p = argmax(smoothed);
        match self.current {
            Some((cp, run)) if cp == p => self.current = Some((cp, run + 1)),
            other => {
                Self::flush(other, self.silence_id, self.min_run, &mut self.out);
                self.current = Some((p, 1));
            }
        }
    }

    /// Commits a closed run, applying the silence / `min_run` / adjacent
    /// -dedup rules (dedup on push is equivalent to a final `dedup()`).
    fn flush(cur: Option<(usize, usize)>, silence_id: usize, min_run: usize, out: &mut Vec<usize>) {
        if let Some((p, run)) = cur {
            if p != silence_id && run >= min_run && out.last() != Some(&p) {
                out.push(p);
            }
        }
    }
}

/// The centered moving average of `mid` over whichever of its neighbors
/// exist — a 3-frame window clamped at the utterance edges.
fn average(before: Option<&[f32]>, mid: &[f32], after: Option<&[f32]>) -> Vec<f32> {
    let span = 1 + usize::from(before.is_some()) + usize::from(after.is_some());
    (0..mid.len())
        .map(|d| {
            let mut s = mid[d];
            if let Some(b) = before {
                s += b[d];
            }
            if let Some(a) = after {
                s += a[d];
            }
            s / span as f32
        })
        .collect()
}

/// Levenshtein edit distance between two sequences.
pub fn edit_distance(a: &[usize], b: &[usize]) -> usize {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut curr = vec![0usize; m + 1];
    for i in 1..=n {
        curr[0] = i;
        for j in 1..=m {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            curr[j] = sub.min(prev[j] + 1).min(curr[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// Corpus-level phone error rate: total edit distance over total reference
/// length (the standard pooled PER).
///
/// # Panics
///
/// Panics if `refs` and `hyps` have different lengths.
pub fn phone_error_rate(refs: &[Vec<usize>], hyps: &[Vec<usize>]) -> f64 {
    assert_eq!(refs.len(), hyps.len(), "need one hypothesis per reference");
    let mut errors = 0usize;
    let mut total = 0usize;
    for (r, h) in refs.iter().zip(hyps.iter()) {
        errors += edit_distance(r, h);
        total += r.len();
    }
    errors as f64 / total.max(1) as f64
}

/// Decodes what `forward` (frames in, framewise logits out) makes of each
/// utterance and returns the PER (%).
///
/// `forward` is any model's forward pass — a dense training checkpoint,
/// a block-circulant compressed network, the fixed-point datapath:
/// `evaluate_per(|f| net.forward_logits(f), &corpus.test)`.
pub fn evaluate_per(
    forward: impl Fn(&[Vec<f32>]) -> Vec<Vec<f32>>,
    utterances: &[Utterance],
) -> f64 {
    let refs: Vec<Vec<usize>> = utterances.iter().map(|u| u.phone_seq.clone()).collect();
    let hyps: Vec<Vec<usize>> = utterances
        .iter()
        .map(|u| decode_frames(&forward(&u.features), PhoneSet::SILENCE, 2))
        .collect();
    phone_error_rate(&refs, &hyps) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-utterance greedy decode `decode_frames` ran before it
    /// became [`IncrementalDecoder`] over one chunk, kept as the oracle.
    fn batch_decode(logits: &[Vec<f32>], silence_id: usize, min_run: usize) -> Vec<usize> {
        let smoothed = smooth_logits(logits);
        let logits = &smoothed;
        let mut out = Vec::new();
        let mut current: Option<(usize, usize)> = None; // (phone, run length)
        let flush = |cur: Option<(usize, usize)>, out: &mut Vec<usize>| {
            if let Some((p, run)) = cur {
                if p != silence_id && run >= min_run {
                    out.push(p);
                }
            }
        };
        for frame in logits {
            let p = argmax(frame);
            match current {
                Some((cp, run)) if cp == p => current = Some((cp, run + 1)),
                other => {
                    flush(other, &mut out);
                    current = Some((p, 1));
                }
            }
        }
        flush(current, &mut out);
        // Merge adjacent duplicates that can appear after dropping short runs.
        out.dedup();
        out
    }

    /// Three-frame moving average over logits — suppresses single-frame
    /// glitches at phone boundaries before the argmax.
    fn smooth_logits(logits: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = logits.len();
        if n == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|t| {
                let lo = t.saturating_sub(1);
                let hi = (t + 1).min(n - 1);
                let span = (hi - lo + 1) as f32;
                let dim = logits[t].len();
                (0..dim)
                    .map(|d| (lo..=hi).map(|u| logits[u][d]).sum::<f32>() / span)
                    .collect()
            })
            .collect()
    }

    fn one_hot(id: usize, n: usize, conf: f32) -> Vec<f32> {
        let mut v = vec![0.0; n];
        v[id] = conf;
        v
    }

    #[test]
    fn decode_collapses_runs_and_drops_silence() {
        let frames: Vec<Vec<f32>> = [0, 0, 1, 1, 1, 0, 2, 2, 3, 3, 0, 0]
            .iter()
            .map(|&p| one_hot(p, 4, 5.0))
            .collect();
        assert_eq!(decode_frames(&frames, 0, 2), vec![1, 2, 3]);
    }

    #[test]
    fn decode_filters_short_glitches() {
        let frames: Vec<Vec<f32>> = [1, 1, 1, 2, 1, 1, 1]
            .iter()
            .map(|&p| one_hot(p, 3, 5.0))
            .collect();
        // The single-frame /2/ glitch is dropped and the 1-runs merge.
        assert_eq!(decode_frames(&frames, 0, 2), vec![1]);
    }

    #[test]
    fn incremental_decode_matches_batch_on_simple_runs() {
        let frames: Vec<Vec<f32>> = [0, 0, 1, 1, 1, 0, 2, 2, 3, 3, 0, 0]
            .iter()
            .map(|&p| one_hot(p, 4, 5.0))
            .collect();
        let mut dec = IncrementalDecoder::new(0, 2);
        dec.push_chunk(&frames[..5]);
        dec.push_chunk(&frames[5..]);
        assert_eq!(dec.finish(), batch_decode(&frames, 0, 2));
    }

    #[test]
    fn incremental_decode_is_chunking_invariant() {
        // Randomized logits and randomized chunk boundaries (including
        // empty chunks and single frames): every chunking must finish
        // with exactly the batch decode of the whole utterance.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..50 {
            let n = 1 + (rng() % 40) as usize;
            let dim = 3 + (rng() % 4) as usize;
            let frames: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..dim)
                        .map(|_| (rng() % 1000) as f32 / 100.0 - 5.0)
                        .collect()
                })
                .collect();
            let expected = batch_decode(&frames, 0, 2);
            assert_eq!(
                decode_frames(&frames, 0, 2),
                expected,
                "trial {trial} (n = {n})"
            );
            let mut dec = IncrementalDecoder::new(0, 2);
            let mut at = 0;
            while at < n {
                let take = ((rng() % 5) as usize).min(n - at);
                dec.push_chunk(&frames[at..at + take]);
                at += take;
            }
            assert_eq!(dec.finish(), expected, "trial {trial} (n = {n})");
        }
    }

    #[test]
    fn incremental_hypothesis_grows_and_never_includes_open_runs() {
        let frames: Vec<Vec<f32>> = [1, 1, 1, 0, 0, 2, 2, 2, 0, 0, 3, 3, 3]
            .iter()
            .map(|&p| one_hot(p, 4, 5.0))
            .collect();
        let mut dec = IncrementalDecoder::new(0, 2);
        assert_eq!(dec.hypothesis(), Vec::<usize>::new());
        dec.push_chunk(&frames[..5]);
        // The /1/ run is closed by silence and committed.
        assert_eq!(dec.hypothesis(), vec![1]);
        dec.push_chunk(&frames[5..8]);
        // The /2/ run is still open (lookahead pending) — not committed.
        assert_eq!(dec.hypothesis(), vec![1]);
        dec.push_chunk(&frames[8..]);
        assert_eq!(dec.hypothesis(), vec![1, 2]);
        assert_eq!(dec.finish(), batch_decode(&frames, 0, 2));
    }

    #[test]
    fn incremental_decode_handles_empty_and_single_frame_utterances() {
        assert_eq!(IncrementalDecoder::new(0, 1).finish(), Vec::<usize>::new());
        let frames = vec![one_hot(2, 3, 5.0)];
        let mut dec = IncrementalDecoder::new(0, 1);
        dec.push_chunk(&frames);
        assert_eq!(dec.finish(), batch_decode(&frames, 0, 1));
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance(&[], &[]), 0);
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 3]), 1); // deletion
        assert_eq!(edit_distance(&[1, 2], &[1, 4, 2]), 1); // insertion
        assert_eq!(edit_distance(&[1, 2, 3], &[1, 9, 3]), 1); // substitution
        assert_eq!(edit_distance(&[], &[5, 6]), 2);
    }

    #[test]
    fn edit_distance_is_symmetric() {
        let a = [1usize, 2, 3, 4, 2];
        let b = [2usize, 3, 1];
        assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
    }

    #[test]
    fn per_pools_over_corpus() {
        let refs = vec![vec![1, 2, 3, 4], vec![5, 6]];
        let hyps = vec![vec![1, 2, 3, 4], vec![5, 7]]; // 1 error / 6 phones
        let per = phone_error_rate(&refs, &hyps);
        assert!((per - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_decode_gives_zero_per() {
        let refs = vec![vec![1, 2], vec![3]];
        assert_eq!(phone_error_rate(&refs, &refs.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "one hypothesis per reference")]
    fn per_rejects_length_mismatch() {
        let _ = phone_error_rate(&[vec![1]], &[]);
    }
}
