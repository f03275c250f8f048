//! Per-camera fault-trace derivation from a single fleet seed.
//!
//! A fleet simulation needs an independent-looking channel history for
//! each of up to 100 000+ cameras, all derived from *one* seed so the
//! whole run replays byte-identically. Materialising a full
//! [`LinkTrace`] per camera would cost hundreds of megabytes; instead a
//! [`TracePool`] samples a modest number of traces once and each camera
//! deterministically draws a `(trace, phase)` pair from the pool:
//!
//! * the pool's traces are sampled sequentially from sub-seeds derived
//!   from the fleet seed (same scheme as [`camera_seed`]), so the pool
//!   itself is a pure function of `(model, fleet_seed, shape)`;
//! * camera `i` hashes `(fleet_seed, i)` through a SplitMix64 finalizer
//!   to pick its pool index and phase offset, so neighbouring camera
//!   ids land on unrelated traces and phases.
//!
//! Two cameras may share a pool trace (by construction, once the fleet
//! outnumbers the pool), but distinct phases decorrelate the slot
//! sequences they actually observe. The pool digest folds every member
//! trace, so golden tests can pin the whole derivation with one number.

use crate::gilbert::{GilbertElliott, LinkSlot, LinkTrace};
use incam_rng::Digest;

/// Derives camera `camera_id`'s private sub-seed from the fleet seed.
///
/// This is the SplitMix64 output mix applied to the fleet seed advanced
/// by `camera_id + 1` golden-ratio increments — the standard way to
/// split one seed into decorrelated streams, and a pure function: no
/// state, no order dependence.
pub fn camera_seed(fleet_seed: u64, camera_id: u64) -> u64 {
    let mut z =
        fleet_seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(camera_id.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A shared pool of sampled link traces that per-camera channel views
/// are drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePool {
    traces: Vec<LinkTrace>,
}

impl TracePool {
    /// Samples `traces` traces of `slots` slots each from `model`,
    /// seeding trace `t` with `camera_seed(fleet_seed, t)`.
    ///
    /// # Panics
    ///
    /// Panics if `traces` or `slots` is zero — an empty pool cannot
    /// serve slot lookups.
    pub fn sample(model: &GilbertElliott, fleet_seed: u64, traces: usize, slots: usize) -> Self {
        assert!(traces > 0, "a trace pool needs at least one trace");
        assert!(slots > 0, "pool traces need at least one slot");
        Self {
            traces: (0..traces)
                .map(|t| model.trace(camera_seed(fleet_seed, t as u64), slots))
                .collect(),
        }
    }

    /// Number of traces in the pool.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` if the pool holds no traces (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The member traces, in sampling order.
    pub fn traces(&self) -> &[LinkTrace] {
        &self.traces
    }

    /// Camera `camera_id`'s deterministic view into the pool: its seed
    /// picks a trace (high bits) and a phase offset (low bits).
    pub fn assign(&self, fleet_seed: u64, camera_id: u64) -> TraceView<'_> {
        let seed = camera_seed(fleet_seed, camera_id);
        let index = ((seed >> 32) % self.traces.len() as u64) as usize;
        TraceView {
            trace: &self.traces[index],
            phase: seed & 0xFFFF_FFFF,
        }
    }

    /// Order-sensitive digest folding every member trace — pins the
    /// whole pool derivation with one number.
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        for trace in &self.traces {
            h.write_u64(trace.digest());
        }
        h.finish()
    }
}

/// One camera's channel: a pool trace replayed from a private phase
/// offset.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    trace: &'a LinkTrace,
    phase: u64,
}

impl TraceView<'_> {
    /// The channel conditions this camera observes at its `index`-th
    /// transmission attempt.
    pub fn slot(&self, index: u64) -> LinkSlot {
        self.trace.slot(self.phase.wrapping_add(index))
    }

    /// Phase offset into the underlying trace.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// Mean goodput of the underlying trace (phase-independent).
    pub fn mean_goodput(&self) -> f64 {
        self.trace.mean_goodput()
    }

    /// Loss rate of the underlying trace (phase-independent).
    pub fn loss_rate(&self) -> f64 {
        self.trace.loss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> TracePool {
        TracePool::sample(&GilbertElliott::congested(0.1), 2017, 8, 512)
    }

    #[test]
    fn camera_seed_is_a_pure_decorrelating_mix() {
        assert_eq!(camera_seed(2017, 5), camera_seed(2017, 5));
        assert_ne!(camera_seed(2017, 5), camera_seed(2017, 6));
        assert_ne!(camera_seed(2017, 5), camera_seed(2018, 5));
        // neighbouring ids differ in many bits, not just the low ones
        let diff = (camera_seed(2017, 0) ^ camera_seed(2017, 1)).count_ones();
        assert!(diff > 16, "only {diff} bits differ");
    }

    #[test]
    fn pool_is_deterministic() {
        assert_eq!(pool().digest(), pool().digest());
        let other = TracePool::sample(&GilbertElliott::congested(0.1), 2018, 8, 512);
        assert_ne!(pool().digest(), other.digest());
    }

    #[test]
    fn pool_traces_are_decorrelated() {
        let p = pool();
        let digests: Vec<u64> = p.traces().iter().map(LinkTrace::digest).collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn assignment_is_deterministic_and_order_free() {
        let p = pool();
        let forward: Vec<(u64, LinkSlot)> = (0..64)
            .map(|id| (p.assign(2017, id).phase(), p.assign(2017, id).slot(3)))
            .collect();
        let backward: Vec<(u64, LinkSlot)> = (0..64)
            .rev()
            .map(|id| (p.assign(2017, id).phase(), p.assign(2017, id).slot(3)))
            .collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn phases_spread_cameras_across_the_pool() {
        let p = pool();
        let phases: Vec<u64> = (0..32).map(|id| p.assign(2017, id).phase()).collect();
        let mut unique = phases.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() > 28, "phases collide: {unique:?}");
    }

    #[test]
    fn view_slot_wraps_with_phase() {
        let p = pool();
        let view = p.assign(2017, 7);
        let len = p.traces()[0].len() as u64;
        assert_eq!(view.slot(0), view.slot(len));
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_pool_rejected() {
        TracePool::sample(&GilbertElliott::congested(0.1), 2017, 0, 512);
    }
}
