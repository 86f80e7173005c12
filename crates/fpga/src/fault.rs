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
//! [`FaultTimeline`]: the plan's own events, one record per planned
//! fault with its progress flags. Its lookups ([`FaultTimeline::is_down`],
//! [`FaultTimeline::cycle_multiplier`],
//! [`FaultTimeline::abort_between`]) never allocate, so the steady-state
//! serve path stays zero-alloc with fault injection enabled (proved in
//! `tests/kernel_alloc.rs`). As virtual time advances, one cursor,
//! [`FaultTimeline::pop_due`], yields each [`FaultEffect`] once; a fault
//! that aborts a batch ahead of the clock acts through
//! [`FaultTimeline::strike`] instead.

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

    /// The scheduled events, sorted by `(t_us, device)`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The largest device index named by the plan, if any — runtimes
    /// validate this against their pool size before a run.
    pub fn max_device(&self) -> Option<usize> {
        self.events.iter().map(|e| e.device).max()
    }
}

/// An abort hazard found by [`FaultTimeline::abort_between`]: the first
/// unapplied crash or unstruck transient inside a prospective batch
/// window. A batch it aborts hands it back to [`FaultTimeline::strike`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultHit {
    /// Virtual time the fault strikes (µs).
    pub t_us: f64,
    /// The fault's position in the plan.
    index: usize,
}

/// What a fault does to the pool when it acts: yielded by
/// [`FaultTimeline::pop_due`] as virtual time reaches it, or by
/// [`FaultTimeline::strike`] when it aborts a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEffect {
    /// A planned fault acts: a crash lands, a brownout window opens, or a
    /// transient aborts a batch (only through [`FaultTimeline::strike`]:
    /// an upset on an idle device is harmless).
    Strike(FaultEvent),
    /// A finite crash's down interval ends; the device rejoins cold.
    Recovery {
        /// Pool index of the device.
        device: usize,
        /// When the device comes back up (µs).
        t_us: f64,
    },
}

/// One planned fault with its progress through the run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Planned {
    event: FaultEvent,
    /// The fault has acted: a crash's effects were applied, a brownout's
    /// onset noted, a transient spent on the one batch it kills.
    fired: bool,
    /// A finite crash's recovery was observed.
    recovered: bool,
}

/// Per-run view of a [`FaultPlan`]: the plan's own `(t_us, device)`-sorted
/// events, each with its progress flags, sized at construction so every
/// query is allocation-free. Only the flags change mid-run — the
/// schedule itself never does.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    devices: usize,
    faults: Vec<Planned>,
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
        let faults = plan
            .events()
            .iter()
            .map(|&event| Planned {
                event,
                fired: false,
                recovered: false,
            })
            .collect();
        FaultTimeline { devices, faults }
    }

    /// The faults on device `d` that started by `t`, in plan order.
    fn started_on(&self, d: usize, t: f64) -> impl Iterator<Item = &Planned> {
        self.faults
            .iter()
            .take_while(move |f| f.event.t_us <= t)
            .filter(move |f| f.event.device == d)
    }

    /// Whether device `d` is inside a crash's down interval at time `t`
    /// (down intervals are half-open `[start, start + down_us)`).
    pub fn is_down(&self, d: usize, t: f64) -> bool {
        self.started_on(d, t).any(|f| {
            matches!(f.event.fault, DeviceFault::Crash { down_us } if t < f.event.t_us + down_us)
        })
    }

    /// The stage-cycle stretch factor in force on device `d` at time
    /// `t`: the multiplier of the first active brownout, or `1.0` when
    /// the device is healthy.
    pub fn cycle_multiplier(&self, d: usize, t: f64) -> f64 {
        self.started_on(d, t)
            .find_map(|f| match f.event.fault {
                DeviceFault::Brownout {
                    cycle_multiplier,
                    duration_us,
                } if t < f.event.t_us + duration_us => Some(cycle_multiplier),
                _ => None,
            })
            .unwrap_or(1.0)
    }

    /// The first abort hazard for device `d` inside the prospective
    /// occupancy window `[from, to)`: an unapplied crash start or an
    /// unstruck transient, the earlier first and a crash before a
    /// transient at the same instant. Returns `None` when the window is
    /// clear and the batch may commit.
    pub fn abort_between(&self, d: usize, from: f64, to: f64) -> Option<FaultHit> {
        let crash = |i: usize| matches!(self.faults[i].event.fault, DeviceFault::Crash { .. });
        let mut hit: Option<FaultHit> = None;
        for (index, f) in self.faults.iter().enumerate() {
            let e = f.event;
            if e.t_us >= to || hit.is_some_and(|h| e.t_us > h.t_us) {
                break;
            }
            if e.device == d
                && !f.fired
                && e.t_us >= from
                && !matches!(e.fault, DeviceFault::Brownout { .. })
                && hit.is_none_or(|h| crash(index) && !crash(h.index))
            {
                hit = Some(FaultHit {
                    t_us: e.t_us,
                    index,
                });
            }
        }
        hit
    }

    /// Spends the fault `hit` names on the batch it aborted, ahead of the
    /// clock: a crash is applied at the abort instant (the abort *is* the
    /// crash landing) and a transient kills no other batch.
    pub fn strike(&mut self, hit: FaultHit) -> FaultEffect {
        self.fire(hit.index)
    }

    /// Marks fault `i` fired and returns it.
    fn fire(&mut self, i: usize) -> FaultEffect {
        debug_assert!(!self.faults[i].fired, "a planned fault acts once");
        self.faults[i].fired = true;
        FaultEffect::Strike(self.faults[i].event)
    }

    /// The next fault effect the clock has reached at `t`, marked done so
    /// each is yielded exactly once — the runtime's lazy fault cursor.
    /// Every due crash comes first, then every due recovery of an applied
    /// crash, then every due brownout onset; crashes and onsets go by
    /// start time, recoveries by end time, ties by device, then by plan
    /// order.
    pub fn pop_due(&mut self, t: f64) -> Option<FaultEffect> {
        let mut recovery: Option<(usize, f64)> = None;
        let mut onset: Option<usize> = None;
        // The plan is sorted by start and nothing that starts after `t`
        // is due (a recovery ends after its crash starts), so the first
        // unfired crash is the earliest and the scan stops at `t`.
        for (i, f) in self.faults.iter().enumerate() {
            let e = f.event;
            if e.t_us > t {
                break;
            }
            match e.fault {
                DeviceFault::Crash { .. } if !f.fired => return Some(self.fire(i)),
                DeviceFault::Crash { down_us } if !f.recovered && e.t_us + down_us <= t => {
                    let end = e.t_us + down_us;
                    let dev = |r: usize| self.faults[r].event.device;
                    if recovery.is_none_or(|(r, r_end)| (end, e.device) < (r_end, dev(r))) {
                        recovery = Some((i, end));
                    }
                }
                DeviceFault::Brownout { .. } if !f.fired => onset = onset.or(Some(i)),
                _ => {}
            }
        }
        if let Some((i, t_us)) = recovery {
            self.faults[i].recovered = true;
            let device = self.faults[i].event.device;
            return Some(FaultEffect::Recovery { device, t_us });
        }
        onset.map(|i| self.fire(i))
    }

    /// Number of devices that are *up* at time `t` (not inside any down
    /// interval). Admission predictors divide backlog by this instead
    /// of the nominal pool size, tightening estimates under capacity
    /// loss.
    pub fn devices_up(&self, t: f64) -> usize {
        (0..self.devices).filter(|&d| !self.is_down(d, t)).count()
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
    use proptest::prelude::*;

    fn crash(t: f64, device: usize, down: f64) -> FaultEvent {
        FaultEvent {
            t_us: t,
            device,
            fault: DeviceFault::Crash { down_us: down },
        }
    }

    /// Plan indices `due` sorted by `key`, then device, then plan order.
    fn sorted(ev: &[FaultEvent], key: impl Fn(usize) -> f64, mut due: Vec<usize>) -> Vec<usize> {
        due.sort_by(|&a, &b| {
            key(a)
                .total_cmp(&key(b))
                .then(ev[a].device.cmp(&ev[b].device))
                .then(a.cmp(&b))
        });
        due
    }

    /// Everything the cursor yields at `t`.
    fn drain(tl: &mut FaultTimeline, t: f64) -> Vec<FaultEffect> {
        std::iter::from_fn(|| tl.pop_due(t)).collect()
    }

    #[test]
    fn plans_sort_events_by_time() {
        let plan = FaultPlan::new(vec![crash(50.0, 1, 10.0), crash(10.0, 0, 5.0)]);
        assert_eq!(plan.events()[0].t_us, 10.0);
        assert_eq!(plan.max_device(), Some(1));
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let a = FaultPlan::seeded(42, 3, 10_000.0, 16);
        let b = FaultPlan::seeded(42, 3, 10_000.0, 16);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 16);
        for e in a.events() {
            assert!(e.t_us >= 0.0 && e.t_us < 10_000.0);
            assert!(e.device < 3);
        }
        let c = FaultPlan::seeded(43, 3, 10_000.0, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn down_intervals_and_next_up() {
        let tl = FaultTimeline::new(&FaultPlan::new(vec![crash(100.0, 0, 50.0)]), 2);
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
        let mut tl = FaultTimeline::new(&FaultPlan::new(vec![crash(10.0, 0, f64::INFINITY)]), 1);
        assert!(tl.is_down(0, 10.0) && tl.is_down(0, f64::MAX));
        let down = crash(10.0, 0, f64::INFINITY);
        assert_eq!(tl.pop_due(20.0), Some(FaultEffect::Strike(down)));
        // An infinite crash's recovery never arrives.
        assert_eq!(tl.pop_due(f64::MAX), None);
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
        let mut tl = FaultTimeline::new(&plan, 1);
        assert_eq!(tl.cycle_multiplier(0, 99.0), 1.0);
        assert_eq!(tl.cycle_multiplier(0, 100.0), 2.0);
        assert_eq!(tl.cycle_multiplier(0, 149.9), 2.0);
        assert_eq!(tl.cycle_multiplier(0, 150.0), 1.0);
        assert_eq!(
            tl.pop_due(100.0),
            Some(FaultEffect::Strike(plan.events()[0]))
        );
        assert_eq!(tl.pop_due(1e9), None);
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
        let mut tl = FaultTimeline::new(&plan, 1);
        let hit = tl.abort_between(0, 100.0, 200.0).unwrap();
        assert_eq!(hit.t_us, 120.0);
        assert_eq!(tl.strike(hit), FaultEffect::Strike(plan.events()[0]));
        // Transient spent: the crash is next.
        let hit = tl.abort_between(0, 100.0, 200.0).unwrap();
        assert_eq!(hit.t_us, 140.0);
        assert_eq!(tl.strike(hit), FaultEffect::Strike(plan.events()[1]));
        // Applied crash no longer aborts, and the cursor skips it.
        assert_eq!(tl.abort_between(0, 100.0, 200.0), None);
        let up = FaultEffect::Recovery {
            device: 0,
            t_us: 170.0,
        };
        assert_eq!(drain(&mut tl, 200.0), [up]);
    }

    #[test]
    fn lazy_cursor_pops_in_time_order_exactly_once() {
        let plan = FaultPlan::new(vec![crash(30.0, 1, 10.0), crash(10.0, 0, 5.0)]);
        let mut tl = FaultTimeline::new(&plan, 2);
        let down = |i: usize| FaultEffect::Strike(plan.events()[i]);
        let up = |device, t_us| FaultEffect::Recovery { device, t_us };
        assert_eq!(
            drain(&mut tl, 100.0),
            [down(0), down(1), up(0, 15.0), up(1, 40.0)]
        );
        assert_eq!(tl.pop_due(100.0), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The timeline against a naive scan of the plan, over random
        /// plans and non-decreasing query times: `pop_due` yields every
        /// crash, every finite crash's recovery and every brownout onset
        /// exactly once — due crashes, then due recoveries, then due
        /// onsets, ties by device then plan order — and `abort_between`
        /// returns the earliest unstruck crash or transient, a crash
        /// winning a tie.
        #[test]
        fn the_timeline_matches_a_naive_scan_of_the_plan(
            raw_faults in collection::vec(any::<u64>(), 0..24),
            raw_steps in collection::vec(any::<u64>(), 1..24),
        ) {
            const DEVICES: usize = 3;
            // Coarse times, so ties at one instant are common.
            let plan = FaultPlan::new(raw_faults.iter().map(|&v| {
                let span = ((v >> 16) % 4 + 1) as f64 * 10.0;
                let fault = match (v >> 24) % 5 {
                    0 => DeviceFault::Crash { down_us: f64::INFINITY },
                    1 | 2 => DeviceFault::Crash { down_us: span },
                    3 => DeviceFault::Brownout {
                        cycle_multiplier: 2.0,
                        duration_us: span,
                    },
                    _ => DeviceFault::Transient,
                };
                let device = ((v >> 8) % DEVICES as u64) as usize;
                FaultEvent { t_us: (v % 16) as f64 * 10.0, device, fault }
            }).collect());
            let ev = plan.events();
            let is_crash = |i: usize| matches!(ev[i].fault, DeviceFault::Crash { .. });
            let is_brownout = |i: usize| matches!(ev[i].fault, DeviceFault::Brownout { .. });
            let start = |i: usize| ev[i].t_us;
            let end = |i: usize| match ev[i].fault {
                DeviceFault::Crash { down_us } => ev[i].t_us + down_us,
                DeviceFault::Brownout { duration_us, .. } => ev[i].t_us + duration_us,
                DeviceFault::Transient => ev[i].t_us,
            };
            let strike = |i: usize| FaultEffect::Strike(ev[i]);
            let mut tl = FaultTimeline::new(&plan, DEVICES);
            let mut fired = vec![false; ev.len()];
            let mut recovered = vec![false; ev.len()];
            let mut t = 0.0;
            for (step, &v) in raw_steps.iter().enumerate() {
                let last = step + 1 == raw_steps.len();
                t = if last { 1e9 } else { t + (v % 4) as f64 * 5.0 };
                let d = ((v >> 8) % DEVICES as u64) as usize;
                let to = t + ((v >> 16) % 8) as f64 * 10.0;
                let on_d = |i: usize| ev[i].device == d;
                let covers = |i: usize| on_d(i) && start(i) <= t && t < end(i);
                let down = (0..ev.len()).any(|i| is_crash(i) && covers(i));
                let stretch = (0..ev.len()).any(|i| is_brownout(i) && covers(i));
                prop_assert_eq!(tl.is_down(d, t), down);
                prop_assert_eq!(tl.cycle_multiplier(d, t), if stretch { 2.0 } else { 1.0 });

                // The hazard in [t, to): earliest, a crash before a
                // transient, then plan order. Half of them strike.
                let want = (0..ev.len())
                    .filter(|&i| on_d(i) && !fired[i] && !is_brownout(i))
                    .filter(|&i| start(i) >= t && start(i) < to)
                    .min_by(|&a, &b| {
                        start(a)
                            .total_cmp(&start(b))
                            .then(is_crash(b).cmp(&is_crash(a)))
                            .then(a.cmp(&b))
                    });
                let hit = tl.abort_between(d, t, to);
                prop_assert_eq!(hit.map(|h| h.index), want);
                if let Some(hit) = hit.filter(|_| (v >> 24) % 2 == 0) {
                    let i = hit.index;
                    prop_assert_eq!(hit.t_us, start(i));
                    prop_assert_eq!(tl.strike(hit), strike(i));
                    fired[i] = true;
                }

                // The cursor: an explicit sort of what is due, by kind.
                let mut want = Vec::new();
                let due = (0..ev.len()).filter(|&i| is_crash(i) && !fired[i] && start(i) <= t);
                for i in sorted(ev, start, due.collect()) {
                    fired[i] = true;
                    want.push(strike(i));
                }
                let due = (0..ev.len())
                    .filter(|&i| is_crash(i) && fired[i] && !recovered[i] && end(i) <= t);
                for i in sorted(ev, end, due.collect()) {
                    recovered[i] = true;
                    want.push(FaultEffect::Recovery { device: ev[i].device, t_us: end(i) });
                }
                let due = (0..ev.len()).filter(|&i| is_brownout(i) && !fired[i] && start(i) <= t);
                for i in sorted(ev, start, due.collect()) {
                    fired[i] = true;
                    want.push(strike(i));
                }
                prop_assert_eq!(drain(&mut tl, t), want);
            }
            // By the last query every crash and onset acted once and every
            // finite crash recovered once.
            for i in 0..ev.len() {
                if is_crash(i) || is_brownout(i) {
                    prop_assert!(fired[i]);
                }
                prop_assert_eq!(recovered[i], is_crash(i) && end(i).is_finite());
            }
        }
    }

    #[test]
    #[should_panic(expected = "names device 3")]
    fn timelines_reject_out_of_range_devices() {
        let _ = FaultTimeline::new(&FaultPlan::new(vec![crash(1.0, 3, 1.0)]), 2);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn plans_reject_negative_times() {
        let _ = FaultPlan::new(vec![crash(-1.0, 0, 1.0)]);
    }
}
