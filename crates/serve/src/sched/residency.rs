//! Per-device BRAM residency: which images currently live in a device's
//! BRAM, and what swapping one in costs.
//!
//! E-RNN's whole design revolves around fitting the FFT'd weight image in
//! on-chip BRAM (`RnnSpec::weight_bytes` against the platform budget from
//! Table IV). A multi-model pool therefore has a placement constraint a
//! one-model deployment never sees: dispatching model *m* to device *d*
//! requires *m*'s image resident on *d*, and making room may evict
//! another tenant. Loading is charged in *virtual time* at a PCIe-class
//! streaming rate — the device stalls for `bytes / bandwidth` before the
//! batch computes — which is what makes residency-aware placement a real
//! cost-model decision rather than bookkeeping.
//!
//! Streaming sessions add a second residency class: the per-session
//! recurrent state image ([`ImageKey::State`]), the `(c, y)` vectors a
//! chunk resumes from. State images share the same LRU budget as weight
//! images — a weight load can evict a session's state and vice versa.
//! The asymmetry is in the charging: the *first* materialization of a
//! session's state is free (the device fabricates the zero state
//! locally), while re-materializing after an eviction streams the saved
//! state back over the link and stalls the device like a weight load.

use super::registry::ModelId;

/// Virtual weight-streaming bandwidth in bytes per microsecond (8 GB/s —
/// a PCIe gen3 x8-class link, the interface both of the paper's boards
/// expose). A full 4 MB image costs ~500 µs to swap in: tens of frame
/// latencies, so thrashing residency visibly hurts the tail.
pub const WEIGHT_STREAM_BYTES_PER_US: f64 = 8192.0;

/// Identity of one resident BRAM image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageKey {
    /// A model's FFT'd weight image.
    Weights(ModelId),
    /// A streaming session's saved recurrent state.
    State(u64),
}

/// Outcome of [`DeviceResidency::ensure`] /
/// [`DeviceResidency::ensure_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEvent {
    /// True when the image had to be streamed in (a charged miss). A
    /// session state's first materialization is a miss that inserts the
    /// image but reports `loaded: false` — nothing streams.
    pub loaded: bool,
    /// Device stall charged before compute (µs); zero on a hit and on a
    /// first state materialization.
    pub load_us: f64,
    /// Images evicted to make room, coldest first.
    pub evicted: Vec<ImageKey>,
}

impl LoadEvent {
    /// The no-op event: the image was already resident.
    fn hit() -> Self {
        LoadEvent {
            loaded: false,
            load_us: 0.0,
            evicted: Vec::new(),
        }
    }

    /// How many evicted images were weight images.
    pub fn evicted_weights(&self) -> u64 {
        self.evicted
            .iter()
            .filter(|k| matches!(k, ImageKey::Weights(_)))
            .count() as u64
    }

    /// How many evicted images were session state images.
    pub fn evicted_states(&self) -> u64 {
        self.evicted
            .iter()
            .filter(|k| matches!(k, ImageKey::State(_)))
            .count() as u64
    }
}

/// LRU set of images (model weights + session states) resident in one
/// device's BRAM.
#[derive(Debug, Clone)]
pub struct DeviceResidency {
    budget_bytes: u64,
    used_bytes: u64,
    /// `(image, bytes)`, least recently used first.
    resident: Vec<(ImageKey, u64)>,
    /// Images the currently-forming batch depends on; eviction skips
    /// them so a batch never evicts its own working set mid-formation.
    pinned: Vec<ImageKey>,
}

impl DeviceResidency {
    /// An empty cache with the given BRAM byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        DeviceResidency {
            budget_bytes,
            used_bytes: 0,
            resident: Vec::new(),
            pinned: Vec::new(),
        }
    }

    /// The device's BRAM byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes currently occupied, split `(weights, states)` by image
    /// class — the residency-occupancy split the metrics timeline
    /// samples. Allocation-free (one pass over the resident list).
    pub fn used_bytes_by_class(&self) -> (u64, u64) {
        let mut weights = 0u64;
        let mut states = 0u64;
        for &(key, bytes) in &self.resident {
            match key {
                ImageKey::Weights(_) => weights += bytes,
                ImageKey::State(_) => states += bytes,
            }
        }
        (weights, states)
    }

    /// Whether an image of this size can ever be resident here.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.budget_bytes
    }

    /// Whether the model's weight image is resident right now.
    pub fn is_resident(&self, model: ModelId) -> bool {
        self.resident
            .iter()
            .any(|&(k, _)| k == ImageKey::Weights(model))
    }

    /// Whether the session's state image is resident right now.
    pub fn is_state_resident(&self, session: u64) -> bool {
        self.resident
            .iter()
            .any(|&(k, _)| k == ImageKey::State(session))
    }

    /// Virtual streaming cost of loading `bytes` of image.
    pub fn load_us(bytes: u64) -> f64 {
        bytes as f64 / WEIGHT_STREAM_BYTES_PER_US
    }

    /// Makes `model`'s weight image (of `bytes`) resident: a hit
    /// refreshes its LRU position for free; a miss evicts coldest-first
    /// until the image fits and charges the streaming stall.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the budget — callers must keep such
    /// models off this device (placement eligibility).
    pub fn ensure(&mut self, model: ModelId, bytes: u64) -> LoadEvent {
        self.ensure_image(ImageKey::Weights(model), bytes, true)
    }

    /// Makes `session`'s recurrent-state image (of `bytes`) resident.
    /// A hit refreshes LRU for free. A miss inserts the image, evicting
    /// coldest-first; the streaming stall is charged only when `reload`
    /// is true (the state existed before and was evicted) — a session's
    /// first materialization fabricates the zero state on-device for
    /// free.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the budget.
    pub fn ensure_state(&mut self, session: u64, bytes: u64, reload: bool) -> LoadEvent {
        self.ensure_image(ImageKey::State(session), bytes, reload)
    }

    /// Drops `session`'s state image (the session ended); a no-op when
    /// it was already evicted.
    pub fn release_state(&mut self, session: u64) {
        if let Some(pos) = self
            .resident
            .iter()
            .position(|&(k, _)| k == ImageKey::State(session))
        {
            let (_, bytes) = self.resident.remove(pos);
            self.used_bytes -= bytes;
        }
    }

    /// Pins an image for the duration of one batch formation: eviction
    /// skips pinned images, so a batch's weight image and its member
    /// sessions' state images can never be evicted by the batch's own
    /// loads. Pins are cleared with [`Self::unpin_all`] once the batch
    /// is committed (or abandoned). Pinning a key that is not (yet)
    /// resident is allowed — the pin guards it from the moment it
    /// loads.
    pub fn pin(&mut self, key: ImageKey) {
        if !self.pinned.contains(&key) {
            self.pinned.push(key);
        }
    }

    /// Clears all pins (the batch committed or was abandoned).
    pub fn unpin_all(&mut self) {
        self.pinned.clear();
    }

    /// Drops every resident image and pin — the device crashed and its
    /// BRAM contents are gone. Returns `(weights, states)` counts of
    /// the images lost, for fault accounting.
    pub fn wipe(&mut self) -> (u64, u64) {
        let weights = self
            .resident
            .iter()
            .filter(|(k, _)| matches!(k, ImageKey::Weights(_)))
            .count() as u64;
        let states = self.resident.len() as u64 - weights;
        self.resident.clear();
        self.pinned.clear();
        self.used_bytes = 0;
        (weights, states)
    }

    fn ensure_image(&mut self, key: ImageKey, bytes: u64, charge: bool) -> LoadEvent {
        assert!(
            self.fits(bytes),
            "image {key:?} ({bytes} B) exceeds the device budget ({} B)",
            self.budget_bytes
        );
        if let Some(pos) = self.resident.iter().position(|&(k, _)| k == key) {
            // Hit: bump to most-recently-used.
            let entry = self.resident.remove(pos);
            self.resident.push(entry);
            return LoadEvent::hit();
        }
        let mut evicted = Vec::new();
        let mut victim = 0;
        while self.used_bytes + bytes > self.budget_bytes {
            assert!(
                victim < self.resident.len(),
                "batch working set exceeds the device budget: cannot fit \
                 {key:?} ({bytes} B) without evicting a pinned image \
                 (budget {} B, pinned {:?})",
                self.budget_bytes,
                self.pinned
            );
            if self.pinned.contains(&self.resident[victim].0) {
                // Pinned: the currently-forming batch needs it; try the
                // next-coldest image instead.
                victim += 1;
                continue;
            }
            let (victim_key, victim_bytes) = self.resident.remove(victim);
            self.used_bytes -= victim_bytes;
            evicted.push(victim_key);
        }
        self.resident.push((key, bytes));
        self.used_bytes += bytes;
        LoadEvent {
            loaded: charge,
            load_us: if charge { Self::load_us(bytes) } else { 0.0 },
            evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_are_charged_and_hits_are_free() {
        let mut r = DeviceResidency::new(1000);
        let load = r.ensure(0, 400);
        assert!(load.loaded);
        assert!((load.load_us - 400.0 / WEIGHT_STREAM_BYTES_PER_US).abs() < 1e-12);
        assert!(load.evicted.is_empty());
        assert!(r.is_resident(0));
        assert_eq!(r.used_bytes(), 400);
        // Second touch is a hit.
        let hit = r.ensure(0, 400);
        assert!(!hit.loaded);
        assert_eq!(hit.load_us, 0.0);
    }

    #[test]
    fn eviction_is_lru_coldest_first() {
        let mut r = DeviceResidency::new(1000);
        r.ensure(0, 400);
        r.ensure(1, 400);
        // Touch 0 so 1 becomes coldest.
        r.ensure(0, 400);
        let load = r.ensure(2, 500);
        assert_eq!(load.evicted, vec![ImageKey::Weights(1)]);
        assert!(r.is_resident(0) && r.is_resident(2) && !r.is_resident(1));
        assert_eq!(r.used_bytes(), 900);
        // A giant image evicts everyone.
        let load = r.ensure(3, 1000);
        assert_eq!(
            load.evicted,
            vec![ImageKey::Weights(0), ImageKey::Weights(2)]
        );
        assert!(r.is_resident(3));
        assert_eq!(r.used_bytes(), 1000);
    }

    #[test]
    fn first_state_materialization_is_free_and_reloads_are_charged() {
        let mut r = DeviceResidency::new(1000);
        let first = r.ensure_state(7, 200, false);
        assert!(!first.loaded);
        assert_eq!(first.load_us, 0.0);
        assert!(r.is_state_resident(7));
        assert_eq!(r.used_bytes(), 200);
        // Resident: a hit, free, regardless of the reload flag.
        let hit = r.ensure_state(7, 200, true);
        assert!(!hit.loaded);
        assert_eq!(r.used_bytes(), 200);
        // Evict it with a big weight image, then re-materialize: charged.
        let big = r.ensure(0, 900);
        assert_eq!(big.evicted, vec![ImageKey::State(7)]);
        assert_eq!(big.evicted_states(), 1);
        assert_eq!(big.evicted_weights(), 0);
        assert!(!r.is_state_resident(7));
        let reload = r.ensure_state(7, 200, true);
        assert!(reload.loaded);
        assert!((reload.load_us - 200.0 / WEIGHT_STREAM_BYTES_PER_US).abs() < 1e-12);
        assert_eq!(reload.evicted, vec![ImageKey::Weights(0)]);
    }

    #[test]
    fn used_bytes_split_by_class_tracks_loads_and_evictions() {
        let mut r = DeviceResidency::new(1000);
        assert_eq!(r.used_bytes_by_class(), (0, 0));
        r.ensure(0, 400);
        r.ensure_state(7, 200, false);
        assert_eq!(r.used_bytes_by_class(), (400, 200));
        // Evicting the weight image leaves only state bytes.
        r.pin(ImageKey::State(7));
        r.ensure(1, 700);
        assert_eq!(r.used_bytes_by_class(), (700, 200));
        let (w, s) = r.used_bytes_by_class();
        assert_eq!(w + s, r.used_bytes());
    }

    #[test]
    fn release_state_frees_budget_and_tolerates_absence() {
        let mut r = DeviceResidency::new(1000);
        r.ensure_state(3, 300, false);
        assert_eq!(r.used_bytes(), 300);
        r.release_state(3);
        assert_eq!(r.used_bytes(), 0);
        assert!(!r.is_state_resident(3));
        // Releasing again (or a never-resident session) is a no-op.
        r.release_state(3);
        r.release_state(99);
        assert_eq!(r.used_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the device budget")]
    fn oversized_models_are_rejected() {
        let mut r = DeviceResidency::new(100);
        let _ = r.ensure(0, 101);
    }

    #[test]
    fn pinned_images_survive_eviction_pressure() {
        let mut r = DeviceResidency::new(1000);
        r.ensure_state(7, 300, false);
        r.ensure(0, 400);
        // State 7 is coldest, but the forming batch pins it: the load
        // must evict the warmer weight image instead.
        r.pin(ImageKey::State(7));
        let load = r.ensure(1, 600);
        assert_eq!(load.evicted, vec![ImageKey::Weights(0)]);
        assert!(r.is_state_resident(7));
        r.unpin_all();
        // Unpinned, the same pressure evicts it normally.
        let load = r.ensure(2, 400);
        assert_eq!(load.evicted, vec![ImageKey::State(7)]);
    }

    #[test]
    #[should_panic(expected = "batch working set exceeds the device budget")]
    fn an_overcommitted_pinned_working_set_panics() {
        let mut r = DeviceResidency::new(1000);
        r.ensure(0, 700);
        r.pin(ImageKey::Weights(0));
        let _ = r.ensure(1, 400);
    }

    #[test]
    fn wipe_clears_images_pins_and_budget() {
        let mut r = DeviceResidency::new(1000);
        r.ensure(0, 400);
        r.ensure_state(7, 200, false);
        r.pin(ImageKey::Weights(0));
        assert_eq!(r.wipe(), (1, 1));
        assert_eq!(r.used_bytes(), 0);
        assert!(!r.is_resident(0));
        assert!(!r.is_state_resident(7));
        // Post-wipe the cache behaves like new (no stale pins).
        let load = r.ensure(1, 1000);
        assert!(load.loaded);
        assert!(load.evicted.is_empty());
    }
}
