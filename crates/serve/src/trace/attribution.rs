//! Per-(device, model) stage-time attribution: where each cell's virtual
//! time went.

use std::collections::BTreeMap;

/// Where one (device, model) pair's virtual time went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Requests served through this cell.
    pub requests: u64,
    /// Batches dispatched through this cell.
    pub batches: u64,
    /// Total queue wait across member requests, arrival → device start
    /// (µs).
    pub queue_us: f64,
    /// Weight-image streaming stalls charged to this cell (µs).
    pub load_us: f64,
    /// Session-state reload stalls charged to this cell (µs) — the cost
    /// of resuming a streaming session whose recurrent state was evicted
    /// between chunks.
    pub state_us: f64,
    /// Device compute occupancy, load stalls excluded (µs).
    pub compute_us: f64,
    /// Padding waste: the padded frames' worth of steady-state frame
    /// time the batch shape implies — the cost
    /// [`PaddingModel`](crate::sched::PaddingModel) gates on (µs).
    pub padding_us: f64,
    /// Occupancy wasted by fault-aborted batches: the device burned
    /// these cycles but no request completed (µs). Not part of
    /// [`Self::busy_us`], which attributes *productive* occupancy only.
    pub aborted_us: f64,
}

impl StageBreakdown {
    /// Device occupancy attributed to this cell: weight-load stalls +
    /// state-load stalls + compute.
    pub fn busy_us(&self) -> f64 {
        self.load_us + self.state_us + self.compute_us
    }
}

/// Per-(device, model) stage-time attribution for one run.
///
/// Charged once per dispatched batch; after a cell's first batch
/// (warmup), further charges mutate the existing entry without
/// allocating.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageAttribution {
    cells: BTreeMap<(usize, usize), StageBreakdown>,
}

impl StageAttribution {
    /// An empty attribution table.
    pub fn new() -> Self {
        StageAttribution::default()
    }

    /// Adds one batch's stage times to the `(device, model)` cell.
    pub fn charge(&mut self, device: usize, model: usize, delta: StageBreakdown) {
        let cell = self.cells.entry((device, model)).or_default();
        cell.requests += delta.requests;
        cell.batches += delta.batches;
        cell.queue_us += delta.queue_us;
        cell.load_us += delta.load_us;
        cell.state_us += delta.state_us;
        cell.compute_us += delta.compute_us;
        cell.padding_us += delta.padding_us;
        cell.aborted_us += delta.aborted_us;
    }

    /// The accumulated breakdown for a cell (zeroes if it never served).
    pub fn get(&self, device: usize, model: usize) -> StageBreakdown {
        self.cells
            .get(&(device, model))
            .copied()
            .unwrap_or_default()
    }

    /// Iterates cells as `(device, model, breakdown)`, ordered by device
    /// then model.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &StageBreakdown)> {
        self.cells.iter().map(|(&(d, m), b)| (d, m, b))
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether any cell was charged.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}
