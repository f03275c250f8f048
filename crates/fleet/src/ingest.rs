//! The cloud ingest tier: admission control plus batching.
//!
//! Delivered frames land in a bounded tier modeled after a
//! daemon/thin-client ingest service: frames queue into a partial batch,
//! a full batch is serviced after a fixed service time, and a partial
//! batch is flushed by a timeout so a trickle of frames still completes.
//! Admission control is a hard occupancy bound — a frame arriving while
//! `capacity` frames are resident (queued or in service) is rejected,
//! which is what keeps an overloaded fleet's latency from growing
//! without bound.
//!
//! [`Ingest`] is a passive state machine: it never touches the clock or
//! the event queue. The simulator translates each returned [`Admission`]
//! into events, which keeps every scheduling decision in one place (and
//! the tier trivially deterministic). Stale flush timers are invalidated
//! by epoch: cutting a batch bumps the epoch, and a flush event carrying
//! an old epoch is a no-op.

/// Sizing of the ingest tier, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Maximum frames resident in the tier (queued + in service).
    pub capacity: u64,
    /// Frames per service batch.
    pub batch: usize,
    /// Ticks a partial batch waits before being flushed.
    pub flush_ticks: u64,
    /// Ticks to service a batch once cut.
    pub service_ticks: u64,
}

impl IngestConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `batch` is zero, or `batch` exceeds
    /// `capacity` (a full batch could then never form).
    pub fn validate(&self) {
        assert!(self.capacity > 0, "ingest capacity must be positive");
        assert!(self.batch > 0, "ingest batch size must be positive");
        assert!(
            self.batch as u64 <= self.capacity,
            "batch of {} cannot fill within capacity {}",
            self.batch,
            self.capacity
        );
    }
}

/// Outcome of offering one delivered frame to the tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// The tier is at capacity; the frame is rejected.
    Dropped,
    /// The frame joined the partial batch. When `start_flush` carries an
    /// epoch, this frame opened the batch and the caller must schedule a
    /// flush timer for that epoch.
    Queued {
        /// Epoch to schedule a flush for, if this frame opened a batch.
        start_flush: Option<u64>,
    },
    /// The frame completed a full batch; the caller must schedule its
    /// service completion for the returned cameras.
    BatchReady {
        /// Camera ids whose frames make up the batch, in arrival order.
        cameras: Vec<u64>,
    },
}

/// The ingest tier's state: occupancy, the partial batch, and the flush
/// epoch.
#[derive(Debug)]
pub struct Ingest {
    config: IngestConfig,
    occupancy: u64,
    pending: Vec<u64>,
    epoch: u64,
}

impl Ingest {
    /// An empty tier.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`IngestConfig::validate`]).
    pub fn new(config: IngestConfig) -> Self {
        config.validate();
        Self {
            config,
            occupancy: 0,
            pending: Vec::new(),
            epoch: 0,
        }
    }

    /// Frames currently resident (queued + in service).
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Offers camera `camera`'s delivered frame to the tier.
    pub fn offer(&mut self, camera: u64) -> Admission {
        if self.occupancy >= self.config.capacity {
            return Admission::Dropped;
        }
        self.occupancy += 1;
        if self.pending.is_empty() {
            // one allocation per batch: `cut_batch` hands the buffer out,
            // and a buffer grown push by push would reallocate
            self.pending.reserve_exact(self.config.batch);
        }
        self.pending.push(camera);
        if self.pending.len() == self.config.batch {
            Admission::BatchReady {
                cameras: self.cut_batch(),
            }
        } else {
            Admission::Queued {
                start_flush: (self.pending.len() == 1).then_some(self.epoch),
            }
        }
    }

    /// Handles a flush timer for `epoch`: cuts the partial batch if the
    /// timer is still current, returns `None` if it went stale (the
    /// batch it guarded already filled).
    pub fn flush(&mut self, epoch: u64) -> Option<Vec<u64>> {
        (epoch == self.epoch && !self.pending.is_empty()).then(|| self.cut_batch())
    }

    /// Records a serviced batch of `frames` frames leaving the tier.
    pub fn complete(&mut self, frames: u64) {
        debug_assert!(frames <= self.occupancy);
        self.occupancy -= frames;
    }

    fn cut_batch(&mut self) -> Vec<u64> {
        self.epoch += 1;
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> IngestConfig {
        IngestConfig {
            capacity: 8,
            batch: 3,
            flush_ticks: 100,
            service_ticks: 10,
        }
    }

    #[test]
    fn full_batch_is_cut_in_arrival_order() {
        let mut tier = Ingest::new(config());
        assert_eq!(
            tier.offer(7),
            Admission::Queued {
                start_flush: Some(0)
            }
        );
        assert_eq!(tier.offer(3), Admission::Queued { start_flush: None });
        assert_eq!(
            tier.offer(9),
            Admission::BatchReady {
                cameras: vec![7, 3, 9]
            }
        );
        assert_eq!(tier.occupancy(), 3);
        tier.complete(3);
        assert_eq!(tier.occupancy(), 0);
    }

    #[test]
    fn stale_flush_is_a_no_op_and_fresh_flush_cuts() {
        let mut tier = Ingest::new(config());
        tier.offer(1);
        tier.offer(2);
        tier.offer(3); // fills batch 0, epoch -> 1
        assert_eq!(tier.flush(0), None, "timer for the filled batch is stale");
        let Admission::Queued { start_flush } = tier.offer(4) else {
            panic!("expected queued");
        };
        assert_eq!(start_flush, Some(1));
        assert_eq!(tier.flush(1), Some(vec![4]));
        assert_eq!(tier.flush(1), None, "nothing pending after the cut");
    }

    #[test]
    fn every_batch_is_sized_by_its_first_frame() {
        // 8 ids outgrow a vector's first growth step of 4, so a buffer
        // grown push by push would reallocate within the batch
        let mut tier = Ingest::new(IngestConfig {
            capacity: 64,
            batch: 8,
            flush_ticks: 100,
            service_ticks: 10,
        });
        for camera in 0..8 {
            tier.offer(camera); // the eighth fills and cuts the batch
        }
        tier.offer(8);
        assert!(tier.pending.capacity() >= 8, "after a full batch");
        assert_eq!(tier.flush(1), Some(vec![8]));
        tier.offer(9);
        assert!(tier.pending.capacity() >= 8, "after a flush");
    }

    #[test]
    fn admission_control_drops_at_capacity() {
        let mut tier = Ingest::new(IngestConfig {
            capacity: 3,
            batch: 3,
            flush_ticks: 100,
            service_ticks: 10,
        });
        tier.offer(0);
        tier.offer(1);
        tier.offer(2); // batch cut, but still resident until complete()
        assert_eq!(tier.offer(3), Admission::Dropped);
        tier.complete(3);
        assert!(matches!(tier.offer(3), Admission::Queued { .. }));
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn batch_wider_than_capacity_rejected() {
        Ingest::new(IngestConfig {
            capacity: 2,
            batch: 3,
            flush_ticks: 1,
            service_ticks: 1,
        });
    }
}
