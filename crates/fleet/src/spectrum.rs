//! The contended uplink spectrum.
//!
//! Backscatter cameras share one reader's carrier; VR rigs share the
//! venue's aggregation links. Either way the fleet sees `channels`
//! parallel transmission slots, and a camera that wants the air waits
//! for the earliest-free channel. The model is a conveyor, not a
//! per-slot simulation: a reservation returns the transmission's
//! `(start, finish)` in O(log channels), so contention shows up as
//! queueing delay without per-tick events. Channel choice is
//! deterministic — ties on free-time break by channel index.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One admitted transmission's slot on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Tick the transmission starts (≥ the request time).
    pub start: u64,
    /// Tick the transmission completes.
    pub finish: u64,
}

impl Grant {
    /// Queueing delay this grant suffered: start − request time.
    pub fn queue_ticks(&self, requested: u64) -> u64 {
        self.start.saturating_sub(requested)
    }
}

/// A pool of interchangeable transmission channels, reserved
/// earliest-free-first.
#[derive(Debug)]
pub struct Spectrum {
    /// `(free_at, channel_index)` min-heap — strict total order because
    /// channel indices are unique.
    free: BinaryHeap<Reverse<(u64, u64)>>,
    channels: u64,
}

impl Spectrum {
    /// A spectrum of `channels` channels, all free at tick 0.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: u64) -> Self {
        assert!(channels > 0, "spectrum needs at least one channel");
        Self {
            free: (0..channels).map(|c| Reverse((0, c))).collect(),
            channels,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Reserves the earliest-free channel for a transmission of
    /// `duration_ticks`, requested at tick `now`. The channel is busy
    /// until the returned finish.
    pub fn reserve(&mut self, now: u64, duration_ticks: u64) -> Grant {
        let Reverse((free_at, channel)) = self.free.pop().expect("spectrum is never empty"); // incam-lint: allow(fallible-unwrap) — grants are pushed back on completion, so the heap never drains
        let start = free_at.max(now);
        let finish = start.saturating_add(duration_ticks.max(1));
        self.free.push(Reverse((finish, channel)));
        Grant { start, finish }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_grants_start_immediately() {
        let mut s = Spectrum::new(4);
        for i in 0..4 {
            let g = s.reserve(10, 5);
            assert_eq!(g.start, 10, "channel {i}");
            assert_eq!(g.finish, 15);
        }
        // fifth request queues behind the earliest finish
        let g = s.reserve(10, 5);
        assert_eq!(g.start, 15);
        assert_eq!(g.finish, 20);
        assert_eq!(g.queue_ticks(10), 5);
    }

    #[test]
    fn contention_serializes_on_one_channel() {
        let mut s = Spectrum::new(1);
        let a = s.reserve(0, 10);
        let b = s.reserve(0, 10);
        let c = s.reserve(25, 10);
        assert_eq!((a.start, a.finish), (0, 10));
        assert_eq!((b.start, b.finish), (10, 20));
        // the channel went idle before the third request
        assert_eq!((c.start, c.finish), (25, 35));
    }

    #[test]
    fn zero_duration_still_occupies_one_tick() {
        let mut s = Spectrum::new(1);
        let g = s.reserve(0, 0);
        assert_eq!(g.finish, 1);
    }

    #[test]
    fn reservation_sequence_is_deterministic() {
        let runs: Vec<Vec<Grant>> = (0..2)
            .map(|_| {
                let mut s = Spectrum::new(3);
                (0..32).map(|i| s.reserve(i % 7, 4 + i % 3)).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        Spectrum::new(0);
    }
}
