//! Virtual accelerator devices and the pool the scheduler places batches
//! on.
//!
//! Each [`VirtualDevice`] advances its own clock using CGPipe stage
//! timing: a dispatched batch streams its utterances' frames back-to-back
//! through the 3-stage pipeline and the device is busy until the last
//! frame drains. The clock reads the closed form
//! [`StageCycles::stream_completion_cycles`] — the formula the scheduler's
//! cost model predicts with — which is cycle-exact against the event
//! simulation [`ernn_fpga::sim::simulate_batch`] (property-tested in
//! `ernn-fpga`, and here against the clock it used to drive).
//!
//! A device carries no timing of its own. A heterogeneous pool mixes
//! platforms (e.g. the [`StageCycles::xcku060`] /
//! [`StageCycles::virtex7_690t`] presets), so the right timing depends
//! on *which model* a batch carries *where*: placement lives in the
//! scheduler, and every batch lands via [`DevicePool::dispatch_to`],
//! which takes the (device, model) timing and an optional weight-load
//! setup delay explicitly.

use ernn_fpga::{Device, StageCycles};

/// Timing of one dispatched batch on a device.
#[derive(Debug, Clone)]
pub struct BatchExecution {
    /// Index of the executing device.
    pub device: usize,
    /// When the batch started occupying the device (µs; max of dispatch
    /// time and the device's previous free time — includes any weight
    /// -load setup that preceded compute).
    pub start_us: f64,
    /// Per-utterance completion times (µs, absolute), submission order.
    pub complete_us: Vec<f64>,
    /// When the device frees up (µs).
    pub free_us: f64,
}

/// One simulated accelerator with a private virtual clock.
#[derive(Debug, Clone, Default)]
pub struct VirtualDevice {
    /// When this device finishes its last accepted batch (µs).
    free_at_us: f64,
    /// Total busy time (µs), including weight-load setup stalls.
    busy_us: f64,
    /// Batches executed.
    pub batches: u64,
    /// Utterances executed.
    pub requests: u64,
    /// Frames executed.
    pub frames: u64,
}

impl VirtualDevice {
    /// When the device next frees up (µs).
    pub fn free_at_us(&self) -> f64 {
        self.free_at_us
    }

    /// Total time the device has spent executing (µs).
    pub fn busy_us(&self) -> f64 {
        self.busy_us
    }

    /// Accepts a batch at `dispatch_us`, advances the device clock, and
    /// returns absolute per-utterance completion times. `setup_us` stalls
    /// the device before compute (weight-image streaming on a residency
    /// miss); `stages` is the timing of the dispatched model on this
    /// platform. Utterance `j` completes when its last frame, the
    /// cumulative frame count through `j`, leaves the pipeline.
    fn execute(
        &mut self,
        index: usize,
        dispatch_us: f64,
        setup_us: f64,
        stages: StageCycles,
        frame_counts: &[u64],
    ) -> BatchExecution {
        let start_us = dispatch_us.max(self.free_at_us);
        let compute_start_us = start_us + setup_us;
        assert!(!frame_counts.is_empty(), "need at least one utterance");
        let period_us = Device::clock_period_us();
        let mut streamed = 0u64;
        let complete_us: Vec<f64> = frame_counts
            .iter()
            .map(|&frames| {
                assert!(frames > 0, "every utterance needs at least one frame");
                streamed += frames;
                compute_start_us + stages.stream_completion_cycles(streamed) as f64 * period_us
            })
            .collect();
        let makespan_us = stages.stream_completion_cycles(streamed) as f64 * period_us;
        self.free_at_us = compute_start_us + makespan_us;
        self.busy_us += setup_us + makespan_us;
        self.batches += 1;
        self.requests += frame_counts.len() as u64;
        self.frames += frame_counts.iter().sum::<u64>();
        BatchExecution {
            device: index,
            start_us,
            complete_us,
            free_us: self.free_at_us,
        }
    }
}

/// A pool of virtual devices with caller-decided placement
/// ([`Self::dispatch_to`]).
#[derive(Debug, Clone)]
pub struct DevicePool {
    devices: Vec<VirtualDevice>,
}

impl DevicePool {
    /// A pool of `n` idle devices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "device pool needs at least one device");
        DevicePool {
            devices: vec![VirtualDevice::default(); n],
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false (the pool is non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Read access to the devices.
    pub fn devices(&self) -> &[VirtualDevice] {
        &self.devices
    }

    /// When device `i` next frees up (µs).
    pub fn free_at_us(&self, i: usize) -> f64 {
        self.devices[i].free_at_us()
    }

    /// Places a batch on an explicitly chosen device — the scheduler's
    /// entry point after its cost model picked the placement. `stages` is
    /// the dispatched model's timing on that device's platform and
    /// `setup_us` any weight-load stall charged before compute.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or `setup_us` is negative.
    pub fn dispatch_to(
        &mut self,
        device: usize,
        dispatch_us: f64,
        setup_us: f64,
        stages: StageCycles,
        frame_counts: &[u64],
    ) -> BatchExecution {
        assert!(setup_us >= 0.0, "setup time must be non-negative");
        self.devices[device].execute(device, dispatch_us, setup_us, stages, frame_counts)
    }

    /// Charges device `device` as occupied-but-wasted over
    /// `[from_us, to_us)` and pushes its free time to `to_us` — the
    /// accounting for a batch aborted by an injected fault: the device
    /// really burned those cycles, but no request completed and no
    /// batch is counted. Throughput counters (`batches`, `requests`,
    /// `frames`) are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or the interval is inverted.
    pub fn stall(&mut self, device: usize, from_us: f64, to_us: f64) {
        assert!(to_us >= from_us, "stall interval must not be inverted");
        let dev = &mut self.devices[device];
        dev.busy_us += to_us - from_us;
        dev.free_at_us = dev.free_at_us.max(to_us);
    }

    /// Pushes a device's free time forward to `t_us` without charging
    /// busy time — a crashed device is unavailable until it recovers,
    /// but it is not doing work. `t_us` may be `f64::INFINITY` for a
    /// permanent crash. No-op when the device is already free later.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn push_free_at(&mut self, device: usize, t_us: f64) {
        let dev = &mut self.devices[device];
        dev.free_at_us = dev.free_at_us.max(t_us);
    }

    /// When every device is idle again (µs): the pool-wide makespan.
    pub fn drained_at_us(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.free_at_us)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ernn_fpga::sim::simulate_batch;
    use proptest::prelude::*;

    fn stages() -> StageCycles {
        StageCycles {
            stage1: 100,
            stage2: 60,
            stage3: 80,
        }
    }

    fn fast_stages() -> StageCycles {
        StageCycles {
            stage1: 50,
            stage2: 30,
            stage3: 40,
        }
    }

    #[test]
    fn device_clock_advances_by_batch_makespan() {
        let mut pool = DevicePool::new(1);
        let exec = pool.dispatch_to(0, 0.0, 0.0, stages(), &[4, 2]);
        assert_eq!(exec.device, 0);
        assert!(exec.free_us > 0.0);
        assert_eq!(exec.complete_us.len(), 2);
        assert!(exec.complete_us[0] < exec.complete_us[1]);
        assert_eq!(*exec.complete_us.last().unwrap(), exec.free_us);
        // A second batch dispatched "in the past" waits for the device.
        let exec2 = pool.dispatch_to(0, 0.0, 0.0, stages(), &[1]);
        assert_eq!(exec2.start_us, exec.free_us);
    }

    #[test]
    fn two_devices_drain_sooner_than_one() {
        let mut one = DevicePool::new(1);
        let mut two = DevicePool::new(2);
        for i in 0..8 {
            one.dispatch_to(0, 0.0, 0.0, stages(), &[5]);
            two.dispatch_to(i % 2, 0.0, 0.0, stages(), &[5]);
        }
        assert!(two.drained_at_us() < one.drained_at_us());
    }

    #[test]
    fn busy_time_tracks_executed_work_only() {
        let mut pool = DevicePool::new(2);
        pool.dispatch_to(0, 0.0, 0.0, stages(), &[3]);
        let d = pool.devices();
        assert!((d[0].busy_us() - pool.drained_at_us()).abs() < 1e-9);
        assert_eq!(d[1].busy_us(), 0.0);
    }

    #[test]
    fn heterogeneous_pool_keeps_per_device_timing() {
        let mut pool = DevicePool::new(2);
        assert_eq!(pool.len(), 2);
        // Same batch, per-platform timing: the fast device finishes in
        // half the cycles.
        let slow = pool.dispatch_to(0, 0.0, 0.0, stages(), &[4]);
        let fast = pool.dispatch_to(1, 0.0, 0.0, fast_stages(), &[4]);
        assert!((slow.free_us - 2.0 * fast.free_us).abs() < 1e-9);
    }

    #[test]
    fn dispatch_to_charges_setup_before_compute() {
        let mut pool = DevicePool::new(1);
        let cold = pool.dispatch_to(0, 0.0, 7.5, stages(), &[2]);
        // Occupation starts at dispatch; completions shift by the setup.
        assert_eq!(cold.start_us, 0.0);
        let mut warm_pool = DevicePool::new(1);
        let warm = warm_pool.dispatch_to(0, 0.0, 0.0, stages(), &[2]);
        for (c, w) in cold.complete_us.iter().zip(warm.complete_us.iter()) {
            assert!((c - w - 7.5).abs() < 1e-9);
        }
        assert!((cold.free_us - warm.free_us - 7.5).abs() < 1e-9);
        // Busy time includes the setup stall.
        assert!(
            (pool.devices()[0].busy_us() - warm_pool.devices()[0].busy_us() - 7.5).abs() < 1e-9
        );
    }

    #[test]
    fn dispatch_to_overrides_stage_timing_per_model() {
        // One device, two "models": dispatching with fast stages must
        // finish sooner than with slow ones.
        let mut pool = DevicePool::new(1);
        let a = pool.dispatch_to(0, 0.0, 0.0, fast_stages(), &[4]);
        let b = pool.dispatch_to(0, a.free_us, 0.0, stages(), &[4]);
        assert!((b.free_us - b.start_us) > (a.free_us - a.start_us));
    }

    /// `(complete_us, free_us, busy_us)` of one batch as the device clock
    /// computed them from the event simulation, frame by frame.
    fn simulated(
        (free_at_us, busy_us): (f64, f64),
        dispatch_us: f64,
        setup_us: f64,
        stages: StageCycles,
        frame_counts: &[u64],
    ) -> (Vec<f64>, f64, f64) {
        let compute_start_us = dispatch_us.max(free_at_us) + setup_us;
        let trace = simulate_batch(stages, frame_counts);
        let period_us = Device::clock_period_us();
        let complete_us = trace.completion_cycles.iter();
        let complete_us = complete_us.map(|&c| compute_start_us + c as f64 * period_us);
        let makespan_us = trace.makespan_cycles as f64 * period_us;
        let free_us = compute_start_us + makespan_us;
        (
            complete_us.collect(),
            free_us,
            busy_us + (setup_us + makespan_us),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn closed_form_clock_is_the_event_sim_to_the_bit(
            s1 in 1u64..300,
            s2 in 1u64..300,
            s3 in 1u64..300,
            brownout in 1.0f64..3.0,
            browned in any::<bool>(),
            counts in proptest::collection::vec(1u64..40, 1..7),
            dispatch in proptest::collection::vec(0.0f64..200.0, 3),
            setup in proptest::collection::vec(0.0f64..50.0, 3),
            cold in any::<bool>(),
        ) {
            let base = StageCycles { stage1: s1, stage2: s2, stage3: s3 };
            let stages = if browned { base.scaled(brownout) } else { base };
            let mut pool = DevicePool::new(1);
            // Three batches back to back, so later ones queue behind the
            // clock the earlier ones left.
            for (i, (&at, &stall)) in dispatch.iter().zip(&setup).enumerate() {
                let stall = if cold { stall } else { 0.0 };
                let counts = &counts[..counts.len() - i.min(counts.len() - 1)];
                let dev = &pool.devices()[0];
                let before = (dev.free_at_us(), dev.busy_us());
                let (complete, free, busy) = simulated(before, at, stall, stages, counts);
                let exec = pool.dispatch_to(0, at, stall, stages, counts);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&exec.complete_us), bits(&complete));
                prop_assert_eq!(exec.free_us.to_bits(), free.to_bits());
                prop_assert_eq!(pool.devices()[0].busy_us().to_bits(), busy.to_bits());
            }
        }
    }
}
