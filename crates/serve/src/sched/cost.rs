//! The placement cost model: predicted batch service time per
//! (device, model) pair.
//!
//! A heterogeneous pool mixes platforms whose `StageCycles` for the same
//! model differ materially (the 7V3 carries more DSPs than the KU060, so
//! the same design runs a shorter II there — exactly the per-platform gap
//! in the paper's Table III). The cost model derives every registered
//! model's stage timing on every platform once at pool build
//! ([`Accelerator::new`] is pure arithmetic). Every batch time in the
//! scheduler — the admission and placement prediction, the dispatch
//! fault window, each member's committed completion — is one
//! [`CostModel::stream_us`] call: the closed form
//! [`StageCycles::stream_completion_cycles`], which is *exact* against
//! the event-driven batch simulation. So cost-model placement predicts
//! precisely the makespan the device clock commits, and the only
//! approximation left in admission control is the queue-backlog term.

use super::registry::ModelRegistry;
use ernn_fpga::{Accelerator, Device, StageCycles};

/// Per-(device, model) stage timing plus closed-form service estimates.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// `stage_table[device][model]`.
    stage_table: Vec<Vec<StageCycles>>,
}

impl CostModel {
    /// Derives stage timing for every registered model on every platform.
    pub fn build(platforms: &[Device], registry: &ModelRegistry) -> Self {
        let stage_table = platforms
            .iter()
            .map(|&platform| {
                (0..registry.len())
                    .map(|m| Accelerator::new(*registry.model(m).spec(), platform).stage_cycles())
                    .collect()
            })
            .collect();
        CostModel { stage_table }
    }

    /// Stage timing of `model` on `device`'s platform, stretched by a
    /// brownout's cycle multiplier `mult` (1.0 on a healthy device).
    pub fn stages(&self, device: usize, model: usize, mult: f64) -> StageCycles {
        let stages = self.stage_table[device][model];
        if mult > 1.0 {
            stages.scaled(mult)
        } else {
            stages
        }
    }

    /// Time (µs) from compute start until the `frames`-th back-to-back
    /// frame (1-indexed) leaves `stages`' pipeline: a batch's service
    /// time at its total frame count, a member's completion offset at
    /// the cumulative count through it.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn stream_us(stages: StageCycles, frames: u64) -> f64 {
        stages.stream_completion_cycles(frames) as f64 * Device::clock_period_us()
    }

    /// Predicted service time (µs) of a batch with the given per-request
    /// frame counts on `device`: the closed-form streaming makespan of
    /// the summed frames.
    ///
    /// # Panics
    ///
    /// Panics if the batch carries zero frames.
    pub fn estimate_batch_us(&self, device: usize, model: usize, frame_counts: &[u64]) -> f64 {
        let total: u64 = frame_counts.iter().sum();
        self.estimate_frames_us(device, model, total)
    }

    /// Predicted service time (µs) of `frames` back-to-back frames of
    /// `model` on `device` — the solo-request form the admission
    /// predictor uses.
    pub fn estimate_frames_us(&self, device: usize, model: usize, frames: u64) -> f64 {
        Self::stream_us(self.stages(device, model, 1.0), frames)
    }

    /// Number of devices in the table.
    pub fn num_devices(&self) -> usize {
        self.stage_table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompiledModel;
    use ernn_fpga::exec::DatapathConfig;
    use ernn_fpga::sim::simulate_batch;
    use ernn_fpga::{ADM_PCIE_7V3, XCKU060};
    use ernn_model::{compress_network, BlockPolicy, CellType, ModelSpec};
    use rand::SeedableRng;

    fn registry() -> ModelRegistry {
        // Sweep-scale acoustic models: big enough that per-platform PE
        // counts (not the fixed point-wise constants) set the stage
        // cycles, so the 7V3/KU060 gap is visible.
        let mut reg = ModelRegistry::new();
        for (seed, dims) in [(1u64, 64usize), (2, 256)] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let dense = ModelSpec::new(CellType::Gru, 52, 40)
                .layer_dims(&[dims])
                .build(&mut rng);
            let net = compress_network(&dense, BlockPolicy::uniform(8));
            reg.register(
                format!("gru-{dims}"),
                CompiledModel::compile(&net, &DatapathConfig::paper_12bit(), XCKU060),
            );
        }
        reg
    }

    #[test]
    fn estimates_match_the_device_simulation_exactly() {
        let reg = registry();
        let cost = CostModel::build(&[XCKU060, ADM_PCIE_7V3], &reg);
        assert_eq!(cost.num_devices(), 2);
        let period = Device::clock_period_us();
        for device in 0..2 {
            for model in 0..reg.len() {
                let counts = [3u64, 7, 1];
                let sim = simulate_batch(cost.stages(device, model, 1.0), &counts);
                let est = cost.estimate_batch_us(device, model, &counts);
                assert_eq!(
                    est.to_bits(),
                    (sim.makespan_cycles as f64 * period).to_bits(),
                    "device {device} model {model}: est {est}"
                );
            }
        }
    }

    #[test]
    fn bigger_model_and_slower_platform_cost_more() {
        let reg = registry();
        let cost = CostModel::build(&[XCKU060, ADM_PCIE_7V3], &reg);
        // GRU-32 streams more work per frame than GRU-16 on either
        // platform.
        for device in 0..2 {
            assert!(
                cost.estimate_frames_us(device, 1, 50) > cost.estimate_frames_us(device, 0, 50)
            );
        }
        // And the 7V3 (device 1) beats the KU060 for the same model.
        for model in 0..reg.len() {
            assert!(cost.estimate_frames_us(1, model, 50) < cost.estimate_frames_us(0, model, 50));
        }
    }
}
