//! The bounded journal: [`TraceConfig`] (off, or on with a capacity),
//! the [`FlightRecorder`] ring buffer, and the [`TraceJournal`] a report
//! carries away from it.

use super::TraceEvent;

/// Per-run tracing configuration: disabled, or enabled with a journal
/// capacity.
///
/// The capacity bounds memory *and* allocation behavior: the recorder
/// buffer is pre-sized at construction, and once full the journal keeps
/// the most recent events (flight-recorder semantics) rather than
/// growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    capacity: usize,
}

impl TraceConfig {
    /// Tracing off (the default): recording is a single branch, the
    /// journal stays empty, and nothing is allocated.
    pub fn disabled() -> Self {
        TraceConfig { capacity: 0 }
    }

    /// Tracing on, keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — use [`TraceConfig::disabled`].
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "an enabled trace needs a nonzero capacity");
        TraceConfig { capacity }
    }

    /// Whether events will be recorded.
    pub fn is_enabled(self) -> bool {
        self.capacity > 0
    }

    /// Journal capacity in events (0 when disabled).
    pub fn capacity(self) -> usize {
        self.capacity
    }
}

/// Bounded virtual-time event journal with flight-recorder semantics:
/// once full, the oldest event is overwritten, so the buffer always
/// holds the most recent `capacity` events.
///
/// The buffer is pre-sized at construction; [`FlightRecorder::record`]
/// on the steady state is a branch plus a `Copy` store and performs no
/// heap allocation (proved by `tests/kernel_alloc.rs`). A disabled
/// recorder ([`TraceConfig::disabled`]) reduces `record` to one
/// predictable branch.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    buf: Vec<TraceEvent>,
    /// Overwrite cursor once the buffer is saturated: index of the
    /// *oldest* retained event.
    head: usize,
    /// Total events offered (recorded + overwritten).
    offered: u64,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder for one run; allocates the full buffer up front when
    /// the config is enabled, nothing otherwise.
    pub fn new(config: TraceConfig) -> Self {
        FlightRecorder {
            buf: Vec::with_capacity(config.capacity()),
            head: 0,
            offered: 0,
            capacity: config.capacity(),
        }
    }

    /// A recorder that drops everything (tracing off).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::disabled())
    }

    /// Whether this recorder keeps events.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Journal capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events offered over the run, including overwritten ones.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Events lost to ring-buffer overwrite.
    pub fn dropped(&self) -> u64 {
        self.offered - self.buf.len() as u64
    }

    /// Records one event. Steady state performs no heap allocation; a
    /// disabled recorder returns after one branch.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        self.offered += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Consumes the recorder into the journal a report carries.
    pub fn into_journal(self) -> TraceJournal {
        TraceJournal {
            events: self.events(),
            dropped: self.dropped(),
            capacity: self.capacity,
        }
    }
}

/// The captured event journal of one run, oldest event first.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceJournal {
    /// Retained events in virtual-time order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer overwrite (0 unless the run outgrew
    /// the configured capacity).
    pub dropped: u64,
    /// The capacity the run was traced with (0 = tracing was off).
    pub capacity: usize,
}
