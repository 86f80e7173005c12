//! Declarative runtime health rules over the metrics timeline.
//!
//! A [`HealthMonitor`] watches the [`MetricsTimeline`] as samples land
//! and turns raw counters into *operational judgment*: SRE-style
//! multi-window SLO burn-rate alerts, a stuck-device detector
//! (utilization ~0 with a nonempty queue), residency-thrash and
//! retry-storm detectors. Every firing is a [`HealthEvent`] — journaled
//! into the flight recorder as
//! [`TraceEvent::Health`](crate::trace::TraceEvent) and collected into
//! the post-run [`HealthReport`] the runtime attaches to its report.
//!
//! Rules evaluate purely on virtual-clock state, so a run's health
//! report is bit-identical across
//! [`ExecutorKind`](crate::ExecutorKind)s; all monitor storage is
//! pre-sized at construction so evaluation is allocation-free in steady
//! state (proven in `tests/kernel_alloc.rs`).
//!
//! The multi-window burn-rate rule follows the shape popularized by the
//! Google SRE workbook: alert only when the *fast* window burns error
//! budget at ≥ 5× the sustainable rate (12 samples) **and** the *slow*
//! window confirms at ≥ 1.25× (60 samples) against a 1 % miss budget —
//! fast-only spikes and long-dead incidents both stay quiet. Every
//! threshold is a fixed constant of this module.

use crate::timeline::MetricsTimeline;
use crate::trace::num;

/// Which declarative rule fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthRuleKind {
    /// Deadline-miss budget burning too fast in both windows.
    SloBurnRate,
    /// A device shows ~zero utilization while requests queue.
    DeviceStuck,
    /// Residency churn: image loads per window above threshold.
    ResidencyThrash,
    /// Retries scheduled per window above threshold.
    RetryStorm,
}

impl HealthRuleKind {
    /// Stable lowercase label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            HealthRuleKind::SloBurnRate => "slo_burn_rate",
            HealthRuleKind::DeviceStuck => "device_stuck",
            HealthRuleKind::ResidencyThrash => "residency_thrash",
            HealthRuleKind::RetryStorm => "retry_storm",
        }
    }
}

/// One rule firing: when, which rule, on which device (when the rule is
/// per-device), the observed value and the threshold it crossed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthEvent {
    /// Virtual time of the timeline sample that fired the rule (µs).
    pub t_us: f64,
    /// The rule that fired.
    pub rule: HealthRuleKind,
    /// Device index for per-device rules ([`HealthRuleKind::DeviceStuck`]);
    /// `None` for run-wide rules.
    pub device: Option<usize>,
    /// Observed value (burn rate multiple, stuck-sample count, loads or
    /// retries per window).
    pub value: f64,
    /// The threshold the value crossed.
    pub threshold: f64,
}

/// Deadline-miss budget as a fraction of completed-or-shed requests (1 %
/// of requests may miss).
const SLO_MISS_BUDGET: f64 = 0.01;
/// Fast burn-rate window, in timeline samples.
const FAST_WINDOW: usize = 12;
/// Slow (confirmation) burn-rate window, in timeline samples.
const SLOW_WINDOW: usize = 60;
/// Fast-window burn multiple required to alert.
const FAST_BURN: f64 = 5.0;
/// Slow-window burn multiple required to confirm.
const SLOW_BURN: f64 = 1.25;
/// Consecutive samples a device must sit idle with work queued before
/// `DeviceStuck` fires.
const STUCK_SAMPLES: usize = 8;
/// Utilization below this counts as idle for `DeviceStuck`.
const UTIL_EPSILON: f64 = 1e-3;
/// Window (samples) for the residency-thrash rule.
const THRASH_WINDOW: usize = 16;
/// Weight+state loads within [`THRASH_WINDOW`] that count as thrash.
const THRASH_LOADS: u64 = 12;
/// Window (samples) for the retry-storm rule.
const RETRY_WINDOW: usize = 16;
/// Retries within [`RETRY_WINDOW`] that count as a storm.
const RETRY_STORM: u64 = 8;
/// Cap on stored events; further firings are counted as dropped.
const MAX_EVENTS: usize = 256;

/// Health-rule configuration: off by default; `enabled()` turns on every
/// rule. The thresholds are fixed (see the module's constants) and each
/// firing reports the one it crossed in [`HealthEvent::threshold`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthConfig {
    /// Master switch; when false the monitor never fires.
    pub enabled: bool,
}

impl HealthConfig {
    /// Monitoring off (the default).
    pub fn disabled() -> Self {
        HealthConfig { enabled: false }
    }

    /// All rules on.
    pub fn enabled() -> Self {
        HealthConfig { enabled: true }
    }
}

/// Evaluates the health rules against a [`MetricsTimeline`] as samples
/// are emitted; all storage pre-sized, steady-state allocation-free.
#[derive(Debug)]
pub struct HealthMonitor {
    enabled: bool,
    events: Vec<HealthEvent>,
    dropped: u64,
    /// Consecutive idle-with-backlog samples per device.
    stuck_counts: Vec<u32>,
    /// Rule latches: an event fires on the transition into violation
    /// and re-arms when the condition clears.
    slo_active: bool,
    stuck_active: Vec<bool>,
    thrash_active: bool,
    retry_active: bool,
    samples_seen: u64,
}

impl HealthMonitor {
    /// A monitor for `num_devices` devices under `config`.
    pub fn new(config: HealthConfig, num_devices: usize) -> Self {
        let cap = if config.enabled { MAX_EVENTS } else { 0 };
        HealthMonitor {
            enabled: config.enabled,
            events: Vec::with_capacity(cap),
            dropped: 0,
            stuck_counts: vec![0; num_devices],
            slo_active: false,
            stuck_active: vec![false; num_devices],
            thrash_active: false,
            retry_active: false,
            samples_seen: 0,
        }
    }

    /// Whether any rule can fire.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Firings discarded after the event cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evaluates every rule against the `emitted` newest samples of
    /// `timeline` (oldest of the new batch first, so windows see
    /// history in order). Returns the index range of events appended to
    /// [`Self::events`] by this call — the runtime journals exactly
    /// that slice into the flight recorder.
    pub fn on_samples(&mut self, timeline: &MetricsTimeline, emitted: usize) -> (usize, usize) {
        let start = self.events.len();
        if !self.enabled || emitted == 0 {
            return (start, start);
        }
        // Oldest newly emitted sample first: back = emitted-1 .. 0.
        for back in (0..emitted.min(timeline.len())).rev() {
            self.eval_at(timeline, back);
            self.samples_seen += 1;
        }
        (start, self.events.len())
    }

    /// Evaluates all rules on the sample `back` steps behind newest.
    fn eval_at(&mut self, timeline: &MetricsTimeline, back: usize) {
        let Some(sample) = timeline.recent(back) else {
            return;
        };
        let sample = *sample;

        // --- SLO burn rate (multi-window) -------------------------------
        let fast = window_burn(timeline, back, FAST_WINDOW);
        let slow = window_burn(timeline, back, SLOW_WINDOW);
        let violating = fast >= FAST_BURN && slow >= SLOW_BURN;
        if violating && !self.slo_active {
            self.push(HealthEvent {
                t_us: sample.t_us,
                rule: HealthRuleKind::SloBurnRate,
                device: None,
                value: fast,
                threshold: FAST_BURN,
            });
        }
        self.slo_active = violating;

        // --- Device stuck -----------------------------------------------
        if let Some(util) = timeline.recent_device_util(back) {
            for (d, &u) in util.iter().enumerate().take(self.stuck_counts.len()) {
                let idle_with_backlog = u < UTIL_EPSILON && sample.queue_depth > 0;
                if idle_with_backlog {
                    self.stuck_counts[d] = self.stuck_counts[d].saturating_add(1);
                } else {
                    self.stuck_counts[d] = 0;
                    self.stuck_active[d] = false;
                }
                let stuck = self.stuck_counts[d] as usize >= STUCK_SAMPLES;
                if stuck && !self.stuck_active[d] {
                    self.stuck_active[d] = true;
                    self.push(HealthEvent {
                        t_us: sample.t_us,
                        rule: HealthRuleKind::DeviceStuck,
                        device: Some(d),
                        value: self.stuck_counts[d] as f64,
                        threshold: STUCK_SAMPLES as f64,
                    });
                }
            }
        }

        // --- Residency thrash -------------------------------------------
        let loads_now = sample.weight_loads + sample.state_loads;
        let loads_then = past_sample(timeline, back, THRASH_WINDOW)
            .map_or(0, |s| s.weight_loads + s.state_loads);
        let loads = loads_now.saturating_sub(loads_then);
        let thrashing = loads >= THRASH_LOADS;
        if thrashing && !self.thrash_active {
            self.push(HealthEvent {
                t_us: sample.t_us,
                rule: HealthRuleKind::ResidencyThrash,
                device: None,
                value: loads as f64,
                threshold: THRASH_LOADS as f64,
            });
        }
        self.thrash_active = thrashing;

        // --- Retry storm ------------------------------------------------
        let retries_then = past_sample(timeline, back, RETRY_WINDOW).map_or(0, |s| s.retries);
        let retries = sample.retries.saturating_sub(retries_then);
        let storming = retries >= RETRY_STORM;
        if storming && !self.retry_active {
            self.push(HealthEvent {
                t_us: sample.t_us,
                rule: HealthRuleKind::RetryStorm,
                device: None,
                value: retries as f64,
                threshold: RETRY_STORM as f64,
            });
        }
        self.retry_active = storming;
    }

    fn push(&mut self, event: HealthEvent) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Consumes the monitor into the post-run [`HealthReport`],
    /// stamping in the timeline's final queue-delay EWMA.
    pub fn into_report(self, ewma_queue_us: f64) -> HealthReport {
        HealthReport {
            events: self.events,
            dropped: self.dropped,
            ewma_queue_us,
            samples_evaluated: self.samples_seen,
        }
    }
}

/// Burn-rate multiple over the window ending at the sample `back` steps
/// behind newest: (window miss-rate) / [`SLO_MISS_BUDGET`], using the
/// cumulative counters of the window's endpoint samples. Windows clamp to
/// available history; an empty window burns 0.
fn window_burn(timeline: &MetricsTimeline, back: usize, window: usize) -> f64 {
    let Some(now) = timeline.recent(back) else {
        return 0.0;
    };
    let then = past_sample(timeline, back, window);
    let (m0, t0) = then.map_or((0, 0), |s| (s.deadline_misses, s.completed + s.shed));
    let misses = now.deadline_misses.saturating_sub(m0);
    let total = (now.completed + now.shed).saturating_sub(t0);
    if total == 0 {
        return 0.0;
    }
    (misses as f64 / total as f64) / SLO_MISS_BUDGET
}

/// The sample `window` steps before the one at `back`, or the oldest
/// retained sample when history is shorter; `None` only when that
/// leaves nothing strictly older than `back` itself.
fn past_sample(
    timeline: &MetricsTimeline,
    back: usize,
    window: usize,
) -> Option<&crate::timeline::TimelineSample> {
    let len = timeline.len();
    if len == 0 {
        return None;
    }
    let oldest_back = len - 1;
    if oldest_back <= back {
        return None;
    }
    timeline.recent((back + window).min(oldest_back))
}

/// Post-run health summary carried on
/// [`SchedReport`](crate::sched::SchedReport).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Rule firings in virtual-time order.
    pub events: Vec<HealthEvent>,
    /// Firings discarded past the event cap.
    pub dropped: u64,
    /// Final queue-delay EWMA (µs) — the calibrated admission /
    /// autoscaling load signal.
    pub ewma_queue_us: f64,
    /// Timeline samples the rules were evaluated on.
    pub samples_evaluated: u64,
}

impl HealthReport {
    /// True when no rule fired (and nothing was dropped).
    pub fn healthy(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// How many stored events fired a given rule.
    pub fn count(&self, rule: HealthRuleKind) -> usize {
        self.events.iter().filter(|e| e.rule == rule).count()
    }
}

/// Renders a [`HealthReport`] as a standalone JSON document.
pub fn health_json(report: &HealthReport) -> String {
    let mut out = String::with_capacity(128 + report.events.len() * 128);
    out.push_str(&format!(
        "{{\"healthy\":{},\"dropped\":{},\"ewma_queue_us\":{},\"samples_evaluated\":{},\"events\":[",
        report.healthy(),
        report.dropped,
        num(report.ewma_queue_us),
        report.samples_evaluated
    ));
    for (i, e) in report.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let device = e.device.map_or("null".to_string(), |d| d.to_string());
        out.push_str(&format!(
            "{{\"t_us\":{},\"rule\":\"{}\",\"device\":{},\"value\":{},\"threshold\":{}}}",
            num(e.t_us),
            e.rule.label(),
            device,
            num(e.value),
            num(e.threshold)
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{MetricsTimeline, TimelineConfig, TimelineSample};

    /// Drives a timeline + monitor with a scripted probe sequence.
    struct Rig {
        timeline: MetricsTimeline,
        monitor: HealthMonitor,
        now_us: f64,
    }

    impl Rig {
        fn new(config: HealthConfig, num_devices: usize) -> Self {
            Rig {
                timeline: MetricsTimeline::new(TimelineConfig::enabled(100.0, 512), num_devices),
                monitor: HealthMonitor::new(config, num_devices),
                now_us: 0.0,
            }
        }

        fn step(&mut self, state: &TimelineSample, busy: &[f64]) {
            self.now_us += 100.0;
            let emitted = self.timeline.advance(self.now_us, state, busy);
            self.monitor.on_samples(&self.timeline, emitted);
        }
    }

    fn state(
        queue_depth: usize,
        completed: u64,
        misses: u64,
        loads: u64,
        retries: u64,
    ) -> TimelineSample {
        TimelineSample {
            queue_depth,
            oldest_wait_us: if queue_depth > 0 { 50.0 } else { 0.0 },
            completed,
            deadline_misses: misses,
            weight_loads: loads,
            retries,
            ..TimelineSample::default()
        }
    }

    #[test]
    fn healthy_traffic_fires_nothing() {
        let mut rig = Rig::new(HealthConfig::enabled(), 1);
        let mut busy = [0.0];
        for step in 1..=100u64 {
            busy[0] = step as f64 * 90.0; // ~90% utilization
            rig.step(&state(1, step * 4, 0, 1, 0), &busy);
        }
        let report = rig.monitor.into_report(rig.timeline.ewma_queue_us());
        assert!(report.healthy(), "unexpected events: {:?}", report.events);
        assert_eq!(report.samples_evaluated, 100);
    }

    #[test]
    fn sustained_misses_fire_the_burn_rate_alert_once_per_episode() {
        let mut rig = Rig::new(HealthConfig::enabled(), 1);
        let mut busy = [0.0];
        // 25% of requests missing against a 1% budget: burn 25× in both
        // windows once enough history accrues.
        for step in 1..=80u64 {
            busy[0] = step as f64 * 90.0;
            rig.step(&state(1, step * 4, step, 0, 0), &busy);
        }
        let report = rig.monitor.into_report(0.0);
        assert_eq!(report.count(HealthRuleKind::SloBurnRate), 1);
        let e = report.events[0];
        assert_eq!(e.rule, HealthRuleKind::SloBurnRate);
        assert!(e.value >= e.threshold);
        assert_eq!(e.device, None);
    }

    #[test]
    fn fast_spike_without_slow_confirmation_stays_quiet() {
        let mut rig = Rig::new(HealthConfig::enabled(), 1);
        let mut busy = [0.0];
        let mut misses = 0u64;
        let mut peak_fast = 0.0f64;
        for step in 1..=100u64 {
            busy[0] = step as f64 * 90.0;
            if step == 81 {
                misses += 7; // brief spike, 10 requests per sample
            }
            rig.step(&state(1, step * 10, misses, 0, 0), &busy);
            let fast = window_burn(&rig.timeline, 0, FAST_WINDOW);
            peak_fast = peak_fast.max(fast);
        }
        let report = rig.monitor.into_report(0.0);
        // The fast window burns 7/120/0.01 ≈ 5.8× ≥ 5× during the spike;
        // the slow window stays at 7/600/0.01 ≈ 1.17× — below the 1.25×
        // confirmation.
        assert!(peak_fast >= FAST_BURN, "{peak_fast}");
        assert_eq!(report.count(HealthRuleKind::SloBurnRate), 0);
    }

    #[test]
    fn idle_device_with_backlog_fires_device_stuck() {
        let mut rig = Rig::new(HealthConfig::enabled(), 2);
        let mut busy = [0.0, 0.0];
        for step in 1..=20u64 {
            busy[0] = step as f64 * 90.0; // device 0 healthy
                                          // device 1 stays at 0 busy with a queue the whole time
            rig.step(&state(3, step, 0, 0, 0), &busy);
        }
        let report = rig.monitor.into_report(0.0);
        assert_eq!(report.count(HealthRuleKind::DeviceStuck), 1);
        let e = report
            .events
            .iter()
            .find(|e| e.rule == HealthRuleKind::DeviceStuck)
            .unwrap();
        assert_eq!(e.device, Some(1));
    }

    #[test]
    fn load_churn_fires_residency_thrash_and_retry_storm_fires_on_retries() {
        let mut rig = Rig::new(HealthConfig::enabled(), 1);
        let mut busy = [0.0];
        for step in 1..=30u64 {
            busy[0] = step as f64 * 90.0;
            // 2 loads and 1 retry per sample: 32 loads and 16 retries
            // per 16-sample window, past both thresholds.
            rig.step(&state(1, step, 0, step * 2, step), &busy);
        }
        let report = rig.monitor.into_report(0.0);
        assert_eq!(report.count(HealthRuleKind::ResidencyThrash), 1);
        assert_eq!(report.count(HealthRuleKind::RetryStorm), 1);
        assert!(!report.healthy());
    }

    #[test]
    fn disabled_monitor_never_fires_and_event_cap_counts_drops() {
        let mut off = HealthMonitor::new(HealthConfig::disabled(), 1);
        let mut tl = MetricsTimeline::new(TimelineConfig::enabled(10.0, 8), 1);
        let emitted = tl.advance(50.0, &state(5, 0, 0, 0, 0), &[0.0]);
        let (a, b) = off.on_samples(&tl, emitted);
        assert_eq!((a, b), (0, 0));
        assert!(off.into_report(0.0).healthy());

        // One more device than the event cap, all stuck from the first
        // sample: they fire together on the eighth, and the last is dropped.
        let devices = MAX_EVENTS + 1;
        let mut mon = HealthMonitor::new(HealthConfig::enabled(), devices);
        let mut tl2 = MetricsTimeline::new(TimelineConfig::enabled(10.0, 8), devices);
        let busy = vec![0.0; devices];
        let emitted = tl2.advance(10.0 * STUCK_SAMPLES as f64, &state(5, 0, 0, 0, 0), &busy);
        assert_eq!(emitted, STUCK_SAMPLES);
        mon.on_samples(&tl2, emitted);
        let report = mon.into_report(0.0);
        assert_eq!(report.events.len(), MAX_EVENTS);
        assert_eq!(report.dropped, 1);
        assert!(!report.healthy());
    }

    #[test]
    fn health_json_is_balanced_and_labels_rules() {
        let report = HealthReport {
            events: vec![HealthEvent {
                t_us: 1200.0,
                rule: HealthRuleKind::SloBurnRate,
                device: None,
                value: 25.0,
                threshold: 5.0,
            }],
            dropped: 0,
            ewma_queue_us: 330.5,
            samples_evaluated: 42,
        };
        let json = health_json(&report);
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        for needle in [
            "\"healthy\":false",
            "\"rule\":\"slo_burn_rate\"",
            "\"device\":null",
            "\"ewma_queue_us\":330.5",
            "\"samples_evaluated\":42",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
