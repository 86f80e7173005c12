//! Deterministic, seeded fault injection for virtual device pools.
//!
//! A production pool cannot assume devices are immortal: boards crash
//! (power events wipe BRAM), brown out (thermal throttling stretches
//! every pipeline stage), and glitch (a transient upset kills one
//! in-flight batch). This module models those hazards as *data*: a
//! [`FaultPlan`] is a virtual-time schedule of [`DeviceFault`] events,
//! either written explicitly or generated from a seed, that a runtime
//! replays deterministically. Nothing here touches wall-clock time or
//! OS-level randomness — the same plan against the same workload yields
//! bit-identical traces, which is what makes chaos testing a regression
//! test rather than a flake generator.
//!
//! The plan itself is immutable. Runtimes compile it into a
//! [`FaultTimeline`] — a per-device, pre-sized query structure whose
//! lookups ([`FaultTimeline::is_down`],
//! [`FaultTimeline::cycle_multiplier`],
//! [`FaultTimeline::abort_between`]) never allocate, so the steady-state
//! serve path stays zero-alloc with fault injection enabled (proved in
//! `tests/kernel_alloc.rs`).

/// One kind of injected device fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFault {
    /// Power loss: the device goes down at the fault instant for
    /// `down_us` of virtual time and its BRAM contents (weight and
    /// session-state images) are wiped. `f64::INFINITY` models a
    /// permanent loss — the device never rejoins the pool.
    Crash {
        /// How long the device stays down (µs); `INFINITY` = forever.
        down_us: f64,
    },
    /// Thermal/voltage degradation: for `duration_us` the device keeps
    /// serving, but every CGPipe stage is stretched by
    /// `cycle_multiplier` (≥ 1.0). No state is lost and no batch is
    /// aborted — work just takes longer.
    Brownout {
        /// Stage-cycle stretch factor, ≥ 1.0.
        cycle_multiplier: f64,
        /// How long the degradation lasts (µs).
        duration_us: f64,
    },
    /// A single-event upset at the fault instant: the batch in flight on
    /// the device (if any) is aborted and must be retried, but the
    /// device stays up and resident images survive. A transient that
    /// strikes an idle device is harmless.
    Transient,
}

/// One scheduled fault: `fault` strikes `device` at virtual time `t_us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time of the fault (µs, ≥ 0).
    pub t_us: f64,
    /// Pool index of the device struck.
    pub device: usize,
    /// What happens.
    pub fault: DeviceFault,
}

/// A deterministic virtual-time schedule of device faults, sorted by
/// time. Install one via the serving runtime's configuration; an empty
/// plan (the default) means no faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// An explicit plan. Events are sorted by `(t_us, device)`; the
    /// schedule is validated eagerly so a bad plan fails at
    /// construction, not mid-run.
    ///
    /// # Panics
    ///
    /// Panics if any event has a non-finite or negative `t_us`, a crash
    /// with `down_us <= 0` (other than `INFINITY`), a brownout with
    /// `cycle_multiplier < 1.0` or non-positive/non-finite
    /// `duration_us`.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for e in &events {
            assert!(
                e.t_us.is_finite() && e.t_us >= 0.0,
                "fault time must be finite and non-negative, got {}",
                e.t_us
            );
            match e.fault {
                DeviceFault::Crash { down_us } => assert!(
                    down_us > 0.0,
                    "crash down_us must be positive (INFINITY allowed), got {down_us}"
                ),
                DeviceFault::Brownout {
                    cycle_multiplier,
                    duration_us,
                } => {
                    assert!(
                        cycle_multiplier.is_finite() && cycle_multiplier >= 1.0,
                        "brownout cycle_multiplier must be finite and >= 1.0, got {cycle_multiplier}"
                    );
                    assert!(
                        duration_us.is_finite() && duration_us > 0.0,
                        "brownout duration_us must be finite and positive, got {duration_us}"
                    );
                }
                DeviceFault::Transient => {}
            }
        }
        events.sort_by(|a, b| {
            a.t_us
                .partial_cmp(&b.t_us)
                .expect("fault times are finite")
                .then(a.device.cmp(&b.device))
        });
        FaultPlan { events }
    }

    /// A seeded pseudo-random plan: `faults` events spread over
    /// `[0, horizon_us)` across `devices` devices, mixing crashes
    /// (recoverable), brownouts, and transients. Deterministic in
    /// `seed` — the same arguments always produce the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `horizon_us` is not finite and
    /// positive.
    pub fn seeded(seed: u64, devices: usize, horizon_us: f64, faults: usize) -> Self {
        assert!(devices > 0, "need at least one device to fault");
        assert!(
            horizon_us.is_finite() && horizon_us > 0.0,
            "horizon_us must be finite and positive"
        );
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity(faults);
        for i in 0..faults {
            // Stratify times across the horizon so faults don't clump
            // at one instant regardless of seed quality.
            let slot = horizon_us / faults.max(1) as f64;
            let t_us = slot * (i as f64 + rng.next_f64());
            let device = (rng.next_u64() % devices as u64) as usize;
            let fault = match rng.next_u64() % 3 {
                0 => DeviceFault::Crash {
                    down_us: slot * (0.5 + rng.next_f64()),
                },
                1 => DeviceFault::Brownout {
                    cycle_multiplier: 1.5 + 2.0 * rng.next_f64(),
                    duration_us: slot * (0.5 + rng.next_f64()),
                },
                _ => DeviceFault::Transient,
            };
            events.push(FaultEvent {
                t_us,
                device,
                fault,
            });
        }
        FaultPlan::new(events)
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, sorted by `(t_us, device)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The largest device index named by the plan, if any — runtimes
    /// validate this against their pool size before a run.
    pub fn max_device(&self) -> Option<usize> {
        self.events.iter().map(|e| e.device).max()
    }

    /// Compiles the plan into a per-run, per-device query structure.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a device `>= devices`.
    pub fn timeline(&self, devices: usize) -> FaultTimeline {
        FaultTimeline::new(self, devices)
    }
}

/// An abort hazard found by [`FaultTimeline::abort_between`]: the first
/// crash start or unconsumed transient inside a prospective batch
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultHit {
    /// Virtual time the fault strikes (µs).
    pub t_us: f64,
    /// True for a crash (BRAM wiped, device down), false for a
    /// transient (batch lost, device survives).
    pub is_crash: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct CrashRec {
    start_us: f64,
    end_us: f64,
    /// The crash's effects (BRAM wipe, down transition) were applied.
    applied: bool,
    /// The recovery (up transition) was observed, for finite crashes.
    recovered: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct BrownoutRec {
    start_us: f64,
    end_us: f64,
    multiplier: f64,
    /// The onset was observed (for counters).
    noted: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct TransientRec {
    t_us: f64,
    /// The upset already aborted a batch; each transient kills at most
    /// one.
    consumed: bool,
}

/// Per-run compiled view of a [`FaultPlan`]: per-device crash/brownout/
/// transient records, fully pre-sized at construction so every query is
/// allocation-free. The structure is mutable only in its bookkeeping
/// flags (which crash has been applied, which transient consumed) —
/// the schedule itself never changes mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    crashes: Vec<Vec<CrashRec>>,
    brownouts: Vec<Vec<BrownoutRec>>,
    transients: Vec<Vec<TransientRec>>,
}

impl FaultTimeline {
    /// Compiles `plan` for a pool of `devices` devices.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a device `>= devices`.
    pub fn new(plan: &FaultPlan, devices: usize) -> Self {
        if let Some(max) = plan.max_device() {
            assert!(
                max < devices,
                "fault plan names device {max} but the pool has {devices} devices"
            );
        }
        let mut tl = FaultTimeline {
            crashes: vec![Vec::new(); devices],
            brownouts: vec![Vec::new(); devices],
            transients: vec![Vec::new(); devices],
        };
        for e in plan.events() {
            match e.fault {
                DeviceFault::Crash { down_us } => tl.crashes[e.device].push(CrashRec {
                    start_us: e.t_us,
                    end_us: e.t_us + down_us,
                    applied: false,
                    recovered: false,
                }),
                DeviceFault::Brownout {
                    cycle_multiplier,
                    duration_us,
                } => tl.brownouts[e.device].push(BrownoutRec {
                    start_us: e.t_us,
                    end_us: e.t_us + duration_us,
                    multiplier: cycle_multiplier,
                    noted: false,
                }),
                DeviceFault::Transient => tl.transients[e.device].push(TransientRec {
                    t_us: e.t_us,
                    consumed: false,
                }),
            }
        }
        tl
    }

    /// Number of devices the timeline covers.
    pub fn devices(&self) -> usize {
        self.crashes.len()
    }

    /// Whether device `d` is inside a crash's down interval at time `t`
    /// (down intervals are half-open `[start, start + down_us)`).
    pub fn is_down(&self, d: usize, t: f64) -> bool {
        self.crashes[d]
            .iter()
            .any(|c| t >= c.start_us && t < c.end_us)
    }

    /// The stage-cycle stretch factor in force on device `d` at time
    /// `t`: the multiplier of the first active brownout, or `1.0` when
    /// the device is healthy.
    pub fn cycle_multiplier(&self, d: usize, t: f64) -> f64 {
        self.brownouts[d]
            .iter()
            .find(|b| t >= b.start_us && t < b.end_us)
            .map_or(1.0, |b| b.multiplier)
    }

    /// The first abort hazard for device `d` inside the prospective
    /// occupancy window `[from, to)`: an unapplied crash start or an
    /// unconsumed transient. Returns `None` when the window is clear
    /// and the batch may commit.
    pub fn abort_between(&self, d: usize, from: f64, to: f64) -> Option<FaultHit> {
        let mut hit: Option<FaultHit> = None;
        for c in &self.crashes[d] {
            if !c.applied
                && c.start_us >= from
                && c.start_us < to
                && hit.is_none_or(|h| c.start_us < h.t_us)
            {
                hit = Some(FaultHit {
                    t_us: c.start_us,
                    is_crash: true,
                });
            }
        }
        for tr in &self.transients[d] {
            if !tr.consumed
                && tr.t_us >= from
                && tr.t_us < to
                && hit.is_none_or(|h| tr.t_us < h.t_us)
            {
                hit = Some(FaultHit {
                    t_us: tr.t_us,
                    is_crash: false,
                });
            }
        }
        hit
    }

    /// Marks the transient on device `d` at exactly `t` consumed (it
    /// aborted a batch). No-op if no such transient exists.
    pub fn consume_transient(&mut self, d: usize, t: f64) {
        if let Some(tr) = self.transients[d]
            .iter_mut()
            .find(|tr| !tr.consumed && tr.t_us == t)
        {
            tr.consumed = true;
        }
    }

    /// Marks the crash on device `d` starting at exactly `t` applied
    /// and returns its down interval. Used when a look-ahead abort
    /// applies a crash's effects at the abort instant, ahead of the
    /// lazy cursor.
    pub fn mark_crash_applied(&mut self, d: usize, t: f64) -> Option<(f64, f64)> {
        self.crashes[d]
            .iter_mut()
            .find(|c| !c.applied && c.start_us == t)
            .map(|c| {
                c.applied = true;
                (c.start_us, c.end_us)
            })
    }

    /// Pops the globally earliest unapplied crash with `start <= t`,
    /// marking it applied: `(device, start, end)`. Drives the runtime's
    /// lazy fault cursor as virtual time advances.
    pub fn pop_crash_through(&mut self, t: f64) -> Option<(usize, f64, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (d, crashes) in self.crashes.iter().enumerate() {
            for (i, c) in crashes.iter().enumerate() {
                if !c.applied && c.start_us <= t && best.is_none_or(|(_, _, bt)| c.start_us < bt) {
                    best = Some((d, i, c.start_us));
                }
            }
        }
        best.map(|(d, i, _)| {
            let c = &mut self.crashes[d][i];
            c.applied = true;
            (d, c.start_us, c.end_us)
        })
    }

    /// Pops the globally earliest unobserved recovery of an *applied*,
    /// finite crash with `end <= t`: `(device, end)`.
    pub fn pop_recovery_through(&mut self, t: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (d, crashes) in self.crashes.iter().enumerate() {
            for (i, c) in crashes.iter().enumerate() {
                if c.applied
                    && !c.recovered
                    && c.end_us <= t
                    && best.is_none_or(|(_, _, bt)| c.end_us < bt)
                {
                    best = Some((d, i, c.end_us));
                }
            }
        }
        best.map(|(d, i, _)| {
            let c = &mut self.crashes[d][i];
            c.recovered = true;
            (d, c.end_us)
        })
    }

    /// Pops the globally earliest unnoted brownout onset with
    /// `start <= t`: `(device, start, multiplier)`. Used for fault
    /// counters — brownouts need no other runtime reaction, their
    /// stretch is picked up by [`Self::cycle_multiplier`].
    pub fn pop_brownout_through(&mut self, t: f64) -> Option<(usize, f64, f64)> {
        let mut best: Option<(usize, usize, f64)> = None;
        for (d, brownouts) in self.brownouts.iter().enumerate() {
            for (i, b) in brownouts.iter().enumerate() {
                if !b.noted && b.start_us <= t && best.is_none_or(|(_, _, bt)| b.start_us < bt) {
                    best = Some((d, i, b.start_us));
                }
            }
        }
        best.map(|(d, i, _)| {
            let b = &mut self.brownouts[d][i];
            b.noted = true;
            (d, b.start_us, b.multiplier)
        })
    }

    /// Number of devices that are *up* at time `t` (not inside any down
    /// interval). Admission predictors divide backlog by this instead
    /// of the nominal pool size, tightening estimates under capacity
    /// loss.
    pub fn devices_up(&self, t: f64) -> usize {
        (0..self.devices()).filter(|&d| !self.is_down(d, t)).count()
    }
}

/// SplitMix64 — the classic 64-bit mixing PRNG (Steele et al., "Fast
/// splittable pseudorandom number generators"). Tiny, allocation-free,
/// and deterministic; used only to expand a fault-plan seed.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(t: f64, device: usize, down: f64) -> FaultEvent {
        FaultEvent {
            t_us: t,
            device,
            fault: DeviceFault::Crash { down_us: down },
        }
    }

    #[test]
    fn plans_sort_events_by_time() {
        let plan = FaultPlan::new(vec![crash(50.0, 1, 10.0), crash(10.0, 0, 5.0)]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].t_us, 10.0);
        assert_eq!(plan.max_device(), Some(1));
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(42, 3, 10_000.0, 16);
        let b = FaultPlan::seeded(42, 3, 10_000.0, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for e in a.events() {
            assert!(e.t_us >= 0.0 && e.t_us < 10_000.0);
            assert!(e.device < 3);
        }
        let c = FaultPlan::seeded(43, 3, 10_000.0, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn down_intervals_and_next_up() {
        let tl = FaultPlan::new(vec![crash(100.0, 0, 50.0)]).timeline(2);
        assert!(!tl.is_down(0, 99.9));
        assert!(tl.is_down(0, 100.0));
        assert!(tl.is_down(0, 149.9));
        assert!(!tl.is_down(0, 150.0));
        assert!(!tl.is_down(1, 120.0));
        assert_eq!(tl.devices_up(120.0), 1);
        assert_eq!(tl.devices_up(200.0), 2);
    }

    #[test]
    fn permanent_crashes_never_recover() {
        let mut tl = FaultPlan::new(vec![crash(10.0, 0, f64::INFINITY)]).timeline(1);
        assert!(tl.is_down(0, 10.0) && tl.is_down(0, f64::MAX));
        assert_eq!(tl.pop_crash_through(20.0), Some((0, 10.0, f64::INFINITY)));
        // An infinite crash's recovery never arrives.
        assert_eq!(tl.pop_recovery_through(f64::MAX), None);
    }

    #[test]
    fn brownout_multiplier_is_windowed() {
        let plan = FaultPlan::new(vec![FaultEvent {
            t_us: 100.0,
            device: 0,
            fault: DeviceFault::Brownout {
                cycle_multiplier: 2.0,
                duration_us: 50.0,
            },
        }]);
        let mut tl = plan.timeline(1);
        assert_eq!(tl.cycle_multiplier(0, 99.0), 1.0);
        assert_eq!(tl.cycle_multiplier(0, 100.0), 2.0);
        assert_eq!(tl.cycle_multiplier(0, 149.9), 2.0);
        assert_eq!(tl.cycle_multiplier(0, 150.0), 1.0);
        assert_eq!(tl.pop_brownout_through(100.0), Some((0, 100.0, 2.0)));
        assert_eq!(tl.pop_brownout_through(1e9), None);
    }

    #[test]
    fn abort_between_finds_first_hazard_and_consumes_transients() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                t_us: 120.0,
                device: 0,
                fault: DeviceFault::Transient,
            },
            crash(140.0, 0, 30.0),
        ]);
        let mut tl = plan.timeline(1);
        let hit = tl.abort_between(0, 100.0, 200.0).unwrap();
        assert_eq!(hit.t_us, 120.0);
        assert!(!hit.is_crash);
        tl.consume_transient(0, 120.0);
        // Transient spent: the crash is next.
        let hit = tl.abort_between(0, 100.0, 200.0).unwrap();
        assert_eq!(hit.t_us, 140.0);
        assert!(hit.is_crash);
        assert_eq!(tl.mark_crash_applied(0, 140.0), Some((140.0, 170.0)));
        // Applied crash no longer aborts.
        assert_eq!(tl.abort_between(0, 100.0, 200.0), None);
    }

    #[test]
    fn lazy_cursor_pops_in_time_order_exactly_once() {
        let plan = FaultPlan::new(vec![crash(30.0, 1, 10.0), crash(10.0, 0, 5.0)]);
        let mut tl = plan.timeline(2);
        assert_eq!(tl.pop_crash_through(100.0), Some((0, 10.0, 15.0)));
        assert_eq!(tl.pop_crash_through(100.0), Some((1, 30.0, 40.0)));
        assert_eq!(tl.pop_crash_through(100.0), None);
        assert_eq!(tl.pop_recovery_through(100.0), Some((0, 15.0)));
        assert_eq!(tl.pop_recovery_through(100.0), Some((1, 40.0)));
        assert_eq!(tl.pop_recovery_through(100.0), None);
    }

    #[test]
    #[should_panic(expected = "names device 3")]
    fn timelines_reject_out_of_range_devices() {
        let _ = FaultPlan::new(vec![crash(1.0, 3, 1.0)]).timeline(2);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn plans_reject_negative_times() {
        let _ = FaultPlan::new(vec![crash(-1.0, 0, 1.0)]);
    }
}
