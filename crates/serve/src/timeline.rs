//! Fixed-interval virtual-clock metrics timelines.
//!
//! End-of-run aggregates ([`ServeMetrics`](crate::ServeMetrics)) say
//! *what* a run did; they cannot say *when*. This module adds the time
//! axis: a [`MetricsTimeline`] samples the runtime's operational state —
//! per-device utilization, queue depth and oldest wait, residency bytes
//! by [`ImageKey`](crate::sched::ImageKey) class, live streaming
//! sessions, cumulative completion/shed/miss/load/retry counters, and
//! an EWMA of the observed queue delay — on a fixed virtual-time grid
//! into a pre-sized ring, so steady-state capture performs **zero heap
//! allocations** (proven in `tests/kernel_alloc.rs`). There is one record
//! type: the runtime hands each capture its state as a [`TimelineSample`]
//! plus the per-device busy times, and the timeline stamps the sample's
//! time, EWMA and mean utilization.
//!
//! Everything here lives on the virtual clock, so a run's finished
//! [`Timeline`] is bit-identical across
//! [`ExecutorKind`](crate::ExecutorKind)s — the sweeps assert it. The
//! EWMA queue delay is the calibrated load signal the ROADMAP's cluster
//! tier (shard-level load feedback) and scheduler v2 (calibrated
//! admission) consume.
//!
//! The [`HealthMonitor`](crate::health::HealthMonitor) evaluates its
//! declarative rules over this ring; [`timeline_json`] exports the
//! finished timeline, and
//! [`prometheus_snapshot`](crate::trace::prometheus_snapshot)
//! merges the newest sample into the scrape text.

use crate::trace::num;

/// EWMA smoothing factor of the queue-delay signal: the weight of the
/// newest observation.
const EWMA_ALPHA: f64 = 0.2;

/// Timeline capture configuration: off by default, or a fixed sampling
/// grid with a bounded ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineConfig {
    /// Virtual-time sampling interval (µs); `0` disables capture.
    pub interval_us: f64,
    /// Ring capacity in samples; `0` disables capture. Once full, the
    /// oldest samples are overwritten (and counted as dropped).
    pub capacity: usize,
}

impl TimelineConfig {
    /// Capture disabled (the default): no samples, no overhead beyond
    /// the O(1) EWMA update per dispatched request.
    pub fn disabled() -> Self {
        TimelineConfig {
            interval_us: 0.0,
            capacity: 0,
        }
    }

    /// Capture one sample every `interval_us` of virtual time into a
    /// ring of `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `interval_us` is not positive and finite, or
    /// `capacity` is zero.
    pub fn enabled(interval_us: f64, capacity: usize) -> Self {
        assert!(
            interval_us.is_finite() && interval_us > 0.0,
            "timeline interval must be positive, got {interval_us}"
        );
        assert!(capacity > 0, "timeline capacity must be at least 1");
        TimelineConfig {
            interval_us,
            capacity,
        }
    }

    /// Whether sampling is on.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0 && self.interval_us > 0.0
    }
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One grid point of runtime state. Counters (`completed` through
/// `retries`) are cumulative since run start, so any window's activity
/// is the difference of its endpoint samples — which is exactly how the
/// [`HealthMonitor`](crate::health::HealthMonitor) windows work.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimelineSample {
    /// Virtual time of the sample (µs).
    pub t_us: f64,
    /// Requests waiting in the queue.
    pub queue_depth: usize,
    /// How long the longest-waiting queued request has waited (µs);
    /// zero when the queue is empty.
    pub oldest_wait_us: f64,
    /// Streaming sessions currently counted live.
    pub live_sessions: usize,
    /// Resident weight-image bytes across all devices.
    pub weights_bytes: u64,
    /// Resident session-state-image bytes across all devices.
    pub state_bytes: u64,
    /// Requests served to completion so far (cumulative).
    pub completed: u64,
    /// Requests shed so far (cumulative).
    pub shed: u64,
    /// Deadline-tracked requests that missed so far, shed included
    /// (cumulative).
    pub deadline_misses: u64,
    /// Weight-image loads so far (cumulative residency misses).
    pub weight_loads: u64,
    /// Session-state reloads so far (cumulative).
    pub state_loads: u64,
    /// Abort-path retries scheduled so far (cumulative).
    pub retries: u64,
    /// EWMA of observed per-request queue delay (µs) at this point.
    pub ewma_queue_us: f64,
    /// Mean per-device utilization over the span since the previous
    /// sample (busy-time delta over elapsed virtual time).
    pub mean_utilization: f64,
}

/// Pre-sized ring of fixed-interval [`TimelineSample`]s plus the
/// queue-delay EWMA, captured by the runtime while a run executes.
///
/// All storage is allocated at construction; [`Self::advance`],
/// [`Self::observe_queue_delay`] and the health monitor's window reads
/// perform no heap allocation in steady state — ring wraparound
/// included (`tests/kernel_alloc.rs` proves it with a counting
/// allocator).
#[derive(Debug)]
pub struct MetricsTimeline {
    config: TimelineConfig,
    num_devices: usize,
    /// Sample ring: grows to `capacity`, then wraps at `head`.
    samples: Vec<TimelineSample>,
    /// Per-device utilization ring, row-major parallel to `samples`.
    device_util: Vec<f64>,
    /// Next overwrite index once the ring is full.
    head: usize,
    /// Samples ever emitted (kept + overwritten).
    offered: u64,
    /// Next grid time to emit at (µs).
    next_sample_us: f64,
    /// Virtual time of the most recent utilization accounting point.
    prev_t_us: f64,
    /// Cumulative per-device busy time at `prev_t_us`.
    prev_busy_us: Vec<f64>,
    /// Per-advance utilization scratch (avoids steady-state allocation).
    util_scratch: Vec<f64>,
    ewma_queue_us: f64,
    ewma_seeded: bool,
}

impl MetricsTimeline {
    /// A timeline for `num_devices` devices under `config`, with every
    /// ring pre-allocated to capacity.
    pub fn new(config: TimelineConfig, num_devices: usize) -> Self {
        let cap = if config.is_enabled() {
            config.capacity
        } else {
            0
        };
        MetricsTimeline {
            config,
            num_devices,
            samples: Vec::with_capacity(cap),
            device_util: Vec::with_capacity(cap * num_devices),
            head: 0,
            offered: 0,
            next_sample_us: config.interval_us,
            prev_t_us: 0.0,
            prev_busy_us: vec![0.0; num_devices],
            util_scratch: vec![0.0; num_devices],
            ewma_queue_us: 0.0,
            ewma_seeded: false,
        }
    }

    /// Whether grid sampling is on (the EWMA updates either way).
    pub fn is_enabled(&self) -> bool {
        self.config.is_enabled()
    }

    /// The capture configuration.
    pub fn config(&self) -> TimelineConfig {
        self.config
    }

    /// Devices this timeline tracks.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Samples currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True before the first sample is emitted.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples ever emitted, overwritten ones included.
    pub fn emitted(&self) -> u64 {
        self.offered
    }

    /// The current queue-delay EWMA (µs).
    pub fn ewma_queue_us(&self) -> f64 {
        self.ewma_queue_us
    }

    /// Folds one observed per-request queue delay (µs) into the EWMA.
    /// O(1), allocation-free, and active even when grid sampling is
    /// disabled — the signal is cheap and always worth having.
    pub fn observe_queue_delay(&mut self, queued_us: f64) {
        if self.ewma_seeded {
            self.ewma_queue_us = EWMA_ALPHA * queued_us + (1.0 - EWMA_ALPHA) * self.ewma_queue_us;
        } else {
            self.ewma_queue_us = queued_us;
            self.ewma_seeded = true;
        }
    }

    /// The sample `back` steps behind the newest (`back == 0` is the
    /// newest); `None` when the ring holds fewer samples.
    pub fn recent(&self, back: usize) -> Option<&TimelineSample> {
        let len = self.samples.len();
        if back >= len {
            return None;
        }
        Some(&self.samples[self.ring_index(back)])
    }

    /// Per-device utilization row of the sample `back` steps behind the
    /// newest.
    pub fn recent_device_util(&self, back: usize) -> Option<&[f64]> {
        let len = self.samples.len();
        if back >= len {
            return None;
        }
        let i = self.ring_index(back) * self.num_devices;
        Some(&self.device_util[i..i + self.num_devices])
    }

    /// Physical index of the logical sample `back` steps behind newest.
    fn ring_index(&self, back: usize) -> usize {
        let len = self.samples.len();
        debug_assert!(back < len);
        if len < self.config.capacity {
            len - 1 - back
        } else {
            (self.head + len - 1 - back) % len
        }
    }

    /// Emits one sample per grid point the virtual clock has reached:
    /// copies of `state` (the runtime's queue, residency and counter
    /// fields) with `t_us` set to the grid time and `ewma_queue_us` and
    /// `mean_utilization` filled in here — whatever `state` carries in
    /// those three fields is ignored. `device_busy_us` is each device's
    /// cumulative busy time (µs). Returns how many samples were emitted
    /// (so the caller can run the health rules once per new sample).
    ///
    /// Utilization attribution: the busy-time delta since the previous
    /// accounting point is spread evenly over the span up to the newest
    /// emitted grid point, so a clock jump across several intervals
    /// reports the same (smoothed) utilization on each.
    ///
    /// # Panics
    ///
    /// Panics if `device_busy_us` disagrees with the device count the
    /// timeline was built for.
    pub fn advance(
        &mut self,
        now_us: f64,
        state: &TimelineSample,
        device_busy_us: &[f64],
    ) -> usize {
        if !self.config.is_enabled() || now_us < self.next_sample_us {
            return 0;
        }
        assert_eq!(
            device_busy_us.len(),
            self.num_devices,
            "busy-time device count mismatch"
        );
        // Utilization over the whole span covered by this advance.
        let pending = 1 + ((now_us - self.next_sample_us) / self.config.interval_us) as usize;
        let newest_grid = self.next_sample_us + (pending - 1) as f64 * self.config.interval_us;
        let mean_utilization = self.account_busy_to(newest_grid, device_busy_us);

        let mut emitted = 0usize;
        while self.next_sample_us <= now_us {
            let t_us = self.next_sample_us;
            self.emit(t_us, state, mean_utilization);
            self.next_sample_us = t_us + self.config.interval_us;
            emitted += 1;
        }
        emitted
    }

    /// Moves the utilization accounting point to `t_us`: spreads each
    /// device's busy-time delta since the previous point over the span
    /// into the utilization row the next [`emit`](Self::emit)s carry, and
    /// returns the mean across devices.
    fn account_busy_to(&mut self, t_us: f64, device_busy_us: &[f64]) -> f64 {
        let span = t_us - self.prev_t_us;
        let mut util_sum = 0.0;
        for (d, &busy) in device_busy_us.iter().enumerate() {
            let u = if span > 0.0 {
                (busy - self.prev_busy_us[d]) / span
            } else {
                0.0
            };
            self.util_scratch[d] = u;
            util_sum += u;
        }
        self.prev_t_us = t_us;
        self.prev_busy_us.copy_from_slice(device_busy_us);
        if self.num_devices > 0 {
            util_sum / self.num_devices as f64
        } else {
            0.0
        }
    }

    /// The one sample-emission path: `state` stamped `t_us` with the
    /// current EWMA and `mean_utilization`, pushed with the current
    /// utilization row into the rings (growing until capacity,
    /// overwriting at `head` afterwards).
    fn emit(&mut self, t_us: f64, state: &TimelineSample, mean_utilization: f64) {
        let sample = TimelineSample {
            t_us,
            ewma_queue_us: self.ewma_queue_us,
            mean_utilization,
            ..*state
        };
        let cap = self.config.capacity;
        let n = self.num_devices;
        if self.samples.len() < cap {
            self.samples.push(sample);
            self.device_util.extend_from_slice(&self.util_scratch);
        } else {
            self.samples[self.head] = sample;
            let base = self.head * n;
            self.device_util[base..base + n].copy_from_slice(&self.util_scratch);
            self.head = (self.head + 1) % cap;
        }
        self.offered += 1;
    }

    /// Emits a final sample stamped at `now_us` reading the finished run
    /// (after a grid sample taken there before the instant's last events,
    /// too), so even a run shorter than one interval produces one.
    /// Returns how many samples were emitted — pending grid points are
    /// flushed first. Arguments and panics as in [`Self::advance`].
    pub fn finish_sample(
        &mut self,
        now_us: f64,
        state: &TimelineSample,
        device_busy_us: &[f64],
    ) -> usize {
        if !self.config.is_enabled() {
            return 0;
        }
        assert_eq!(
            device_busy_us.len(),
            self.num_devices,
            "busy-time device count mismatch"
        );
        let mut emitted = self.advance(now_us, state, device_busy_us);
        if emitted == 0 || self.recent(0).is_some_and(|s| now_us > s.t_us) {
            let mean_utilization = self.account_busy_to(now_us, device_busy_us);
            self.emit(now_us, state, mean_utilization);
            emitted += 1;
        }
        emitted
    }

    /// Consumes the ring into a chronologically ordered [`Timeline`].
    pub fn into_timeline(self) -> Timeline {
        let len = self.samples.len();
        let n = self.num_devices;
        let (samples, device_util) = if len < self.config.capacity || self.head == 0 {
            (self.samples, self.device_util)
        } else {
            // Rotate [head..] ++ [..head] into chronological order.
            let mut samples = Vec::with_capacity(len);
            samples.extend_from_slice(&self.samples[self.head..]);
            samples.extend_from_slice(&self.samples[..self.head]);
            let mut util = Vec::with_capacity(len * n);
            util.extend_from_slice(&self.device_util[self.head * n..]);
            util.extend_from_slice(&self.device_util[..self.head * n]);
            (samples, util)
        };
        Timeline {
            interval_us: self.config.interval_us,
            num_devices: n,
            dropped: self.offered - len as u64,
            ewma_queue_us: self.ewma_queue_us,
            samples,
            device_util,
        }
    }
}

/// A finished, chronologically ordered metrics timeline — what a run's
/// report carries. Entirely virtual-time-derived, so bit-identical
/// across executors (asserted in `sched_sweep`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// The sampling grid interval (µs); `0` when capture was disabled.
    pub interval_us: f64,
    /// Devices per utilization row.
    pub num_devices: usize,
    /// Samples overwritten by ring wraparound.
    pub dropped: u64,
    /// Final queue-delay EWMA (µs) — the calibrated load signal for
    /// admission and autoscaling consumers.
    pub ewma_queue_us: f64,
    /// Samples in chronological order.
    pub samples: Vec<TimelineSample>,
    /// Per-device utilization, row-major: row `i` belongs to
    /// `samples[i]`.
    pub device_util: Vec<f64>,
}

impl Timeline {
    /// The utilization row of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn device_util_row(&self, i: usize) -> &[f64] {
        let base = i * self.num_devices;
        &self.device_util[base..base + self.num_devices]
    }
}

/// Renders a [`Timeline`] as a standalone JSON document: run-level
/// fields plus one object per sample with its per-device utilization
/// row. The rendering is a pure function of the timeline, so it is as
/// executor-independent as the timeline itself.
pub fn timeline_json(timeline: &Timeline) -> String {
    let mut out = String::with_capacity(256 + timeline.samples.len() * 256);
    out.push_str(&format!(
        "{{\"interval_us\":{},\"num_devices\":{},\"dropped\":{},\"ewma_queue_us\":{},\"samples\":[",
        num(timeline.interval_us),
        timeline.num_devices,
        timeline.dropped,
        num(timeline.ewma_queue_us)
    ));
    for (i, s) in timeline.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let util: Vec<String> = timeline
            .device_util_row(i)
            .iter()
            .map(|&u| num(u))
            .collect();
        out.push_str(&format!(
            "{{\"t_us\":{},\"queue_depth\":{},\"oldest_wait_us\":{},\"live_sessions\":{},\
             \"weights_bytes\":{},\"state_bytes\":{},\"completed\":{},\"shed\":{},\
             \"deadline_misses\":{},\"weight_loads\":{},\"state_loads\":{},\"retries\":{},\
             \"ewma_queue_us\":{},\"mean_utilization\":{},\"device_util\":[{}]}}",
            num(s.t_us),
            s.queue_depth,
            num(s.oldest_wait_us),
            s.live_sessions,
            s.weights_bytes,
            s.state_bytes,
            s.completed,
            s.shed,
            s.deadline_misses,
            s.weight_loads,
            s.state_loads,
            s.retries,
            num(s.ewma_queue_us),
            num(s.mean_utilization),
            util.join(",")
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATE: TimelineSample = TimelineSample {
        t_us: 0.0,
        queue_depth: 2,
        oldest_wait_us: 10.0,
        live_sessions: 1,
        weights_bytes: 1024,
        state_bytes: 64,
        completed: 5,
        shed: 1,
        deadline_misses: 1,
        weight_loads: 3,
        state_loads: 2,
        retries: 0,
        ewma_queue_us: 0.0,
        mean_utilization: 0.0,
    };

    #[test]
    fn disabled_timeline_emits_nothing_but_tracks_ewma() {
        let mut tl = MetricsTimeline::new(TimelineConfig::disabled(), 2);
        assert!(!tl.is_enabled());
        tl.observe_queue_delay(100.0);
        tl.observe_queue_delay(0.0);
        assert_eq!(tl.advance(1_000.0, &STATE, &[0.0, 0.0]), 0);
        assert_eq!(tl.finish_sample(2_000.0, &STATE, &[0.0, 0.0]), 0);
        let t = tl.into_timeline();
        assert!(t.samples.is_empty());
        assert_eq!(t.dropped, 0);
        // EWMA: 0.2 · 0 + 0.8 · 100.
        assert!((t.ewma_queue_us - 80.0).abs() < 1e-12);
    }

    #[test]
    fn samples_land_on_the_grid_and_carry_probe_state() {
        let mut tl = MetricsTimeline::new(TimelineConfig::enabled(100.0, 64), 2);
        // Clock reaches 250 µs: grid points 100 and 200 emit.
        assert_eq!(tl.advance(250.0, &STATE, &[100.0, 50.0]), 2);
        assert_eq!(tl.len(), 2);
        let newest = tl.recent(0).unwrap();
        assert_eq!(newest.t_us, 200.0);
        assert_eq!(newest.queue_depth, 2);
        assert_eq!(tl.recent(1).unwrap().t_us, 100.0);
        // Utilization spreads the busy delta over the 0→200 span.
        let util = tl.recent_device_util(0).unwrap();
        assert!((util[0] - 0.5).abs() < 1e-12);
        assert!((util[1] - 0.25).abs() < 1e-12);
        assert!((newest.mean_utilization - 0.375).abs() < 1e-12);
        // finish emits a final off-grid sample at the end of run.
        assert_eq!(tl.finish_sample(260.0, &STATE, &[110.0, 55.0]), 1);
        let t = tl.into_timeline();
        assert_eq!(t.samples.len(), 3);
        assert_eq!(t.samples[2].t_us, 260.0);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_dropped() {
        let mut tl = MetricsTimeline::new(TimelineConfig::enabled(10.0, 4), 1);
        for step in 1..=10u32 {
            tl.advance(step as f64 * 10.0, &STATE, &[0.0]);
        }
        assert_eq!(tl.len(), 4);
        assert_eq!(tl.emitted(), 10);
        let t = tl.into_timeline();
        assert_eq!(t.dropped, 6);
        let times: Vec<f64> = t.samples.iter().map(|s| s.t_us).collect();
        assert_eq!(times, vec![70.0, 80.0, 90.0, 100.0]);
        assert_eq!(t.device_util.len(), 4);
    }

    #[test]
    fn timeline_json_is_strict_and_balanced() {
        let mut tl = MetricsTimeline::new(TimelineConfig::enabled(50.0, 8), 2);
        tl.observe_queue_delay(42.0);
        tl.advance(120.0, &STATE, &[30.0, 60.0]);
        let t = tl.into_timeline();
        let json = timeline_json(&t);
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"interval_us\":50",
            "\"num_devices\":2",
            "\"queue_depth\":2",
            "\"ewma_queue_us\":42",
            "\"device_util\":[",
            "\"weights_bytes\":1024",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn ewma_is_order_dependent_and_seeded_by_first_observation() {
        let mut tl = MetricsTimeline::new(TimelineConfig::enabled(1.0, 2), 1);
        tl.observe_queue_delay(10.0);
        assert_eq!(tl.ewma_queue_us(), 10.0);
        // α = 0.2: 0.2 · 20 + 0.8 · 10.
        tl.observe_queue_delay(20.0);
        assert!((tl.ewma_queue_us() - 12.0).abs() < 1e-12);
    }
}
