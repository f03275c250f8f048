//! The Gilbert–Elliott two-state bursty-loss channel.
//!
//! The classic model for links whose errors cluster: the channel is a
//! two-state Markov chain alternating between a *good* state (rare
//! losses, full goodput) and a *bad* state (frequent losses, throttled
//! goodput). Burstiness comes from state persistence — a small
//! `p_bad_to_good` makes outages long even when `p_good_to_bad` keeps
//! them rare. The paper's 25 GbE VR uplink is exactly such a channel
//! under congestion, and WISPCam's backscatter radio under reader
//! interference is another.
//!
//! The stationary distribution has a closed form, which the property
//! tests pin the sampled traces against:
//!
//! ```text
//! π_bad  = p_gb / (p_gb + p_bg)
//! E[loss] = (1 − π_bad)·loss_good + π_bad·loss_bad
//! ```

use incam_rng::rngs::StdRng;
use incam_rng::{Digest, Rng, SeedableRng};

/// Parameters of a Gilbert–Elliott channel.
///
/// # Examples
///
/// ```
/// use incam_faults::gilbert::GilbertElliott;
///
/// let ge = GilbertElliott::new(0.05, 0.4, 0.001, 0.5);
/// let trace = ge.trace(2017, 10_000);
/// // sampled loss rate approaches the analytic stationary loss
/// assert!((trace.loss_rate() - ge.stationary_loss()).abs() < 0.02);
/// // same seed, same trace — byte-identical
/// assert_eq!(trace, ge.trace(2017, 10_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-slot probability of leaving the good state.
    pub p_good_to_bad: f64,
    /// Per-slot probability of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Loss probability per slot while in the good state.
    pub loss_good: f64,
    /// Loss probability per slot while in the bad state.
    pub loss_bad: f64,
    /// Goodput factor while in the bad state (good state is always 1.0):
    /// the fraction of the link's nominal effective rate that survives
    /// congestion in a bad slot.
    pub bad_goodput: f64,
}

impl GilbertElliott {
    /// Creates a channel; `bad_goodput` defaults to 0.25 (set it with
    /// [`GilbertElliott::with_bad_goodput`]).
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or both transition
    /// probabilities are zero (the chain would never mix and the
    /// stationary distribution would be undefined).
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be in [0, 1], got {p}"
            );
        }
        assert!(
            p_good_to_bad + p_bad_to_good > 0.0,
            "transition probabilities cannot both be zero"
        );
        Self {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            bad_goodput: 0.25,
        }
    }

    /// Sets the bad-state goodput factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `[0, 1]`.
    #[must_use]
    pub fn with_bad_goodput(mut self, factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&factor),
            "bad_goodput must be in [0, 1], got {factor}"
        );
        self.bad_goodput = factor;
        self
    }

    /// A memoryless (single-state) channel with uniform loss rate —
    /// Gilbert–Elliott degenerated to Bernoulli loss.
    pub fn uniform(loss: f64) -> Self {
        Self::new(0.5, 0.5, loss, loss).with_bad_goodput(1.0)
    }

    /// A congested-Ethernet-style channel: bad states are entered rarely
    /// but persist (mean burst ≈ 10 slots), losing half the packets at a
    /// quarter of the nominal goodput. `target_loss` sets the stationary
    /// loss rate by adjusting how often bursts start.
    ///
    /// # Panics
    ///
    /// Panics if `target_loss` is outside `(0, 0.45]` (higher stationary
    /// rates are unreachable with the fixed burst shape).
    pub fn congested(target_loss: f64) -> Self {
        assert!(
            target_loss > 0.0 && target_loss <= 0.45,
            "target_loss must be in (0, 0.45], got {target_loss}"
        );
        let p_bg = 0.1; // mean burst length 10 slots
        let loss_bad = 0.5;
        let loss_good = 0.001;
        // solve E[loss] = target for p_gb given pi_b = p_gb/(p_gb+p_bg)
        let pi_bad = (target_loss - loss_good) / (loss_bad - loss_good);
        let p_gb = p_bg * pi_bad / (1.0 - pi_bad);
        Self::new(p_gb.min(1.0), p_bg, loss_good, loss_bad)
    }

    /// Stationary probability of the bad state.
    pub fn stationary_bad(&self) -> f64 {
        self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)
    }

    /// Long-run expected loss rate.
    pub fn stationary_loss(&self) -> f64 {
        let pi_bad = self.stationary_bad();
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }

    /// Mean length of a bad burst, in slots.
    pub fn mean_burst_len(&self) -> f64 {
        if self.p_bad_to_good <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.p_bad_to_good
        }
    }

    /// Samples a `slots`-long trace from the chain, started in its
    /// stationary distribution. Deterministic per `(seed, slots)`.
    pub fn trace(&self, seed: u64, slots: usize) -> LinkTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = rng.gen_bool(self.stationary_bad());
        let mut out = Vec::with_capacity(slots);
        for _ in 0..slots {
            let loss_p = if bad { self.loss_bad } else { self.loss_good };
            let lost = probabilistic(&mut rng, loss_p);
            out.push(LinkSlot {
                bad,
                lost,
                goodput: if bad { self.bad_goodput } else { 1.0 },
            });
            let flip_p = if bad {
                self.p_bad_to_good
            } else {
                self.p_good_to_bad
            };
            if probabilistic(&mut rng, flip_p) {
                bad = !bad;
            }
        }
        LinkTrace { slots: out }
    }
}

/// `gen_bool` that tolerates the degenerate probabilities 0 and 1 while
/// always consuming exactly one draw (keeps traces alignment-stable when
/// parameters hit the boundaries).
fn probabilistic(rng: &mut StdRng, p: f64) -> bool {
    let u: f64 = rng.gen();
    u < p
}

/// One slot of a sampled channel trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSlot {
    /// Channel was in the bad state.
    pub bad: bool,
    /// The transmission occupying this slot is lost.
    pub lost: bool,
    /// Goodput factor available in this slot, in `[0, 1]`.
    pub goodput: f64,
}

/// A sampled Gilbert–Elliott trace: the per-slot channel conditions a
/// runtime replays deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTrace {
    slots: Vec<LinkSlot>,
}

impl LinkTrace {
    /// A trace of `slots` ideal slots (no losses, full goodput) — the
    /// faults-disabled baseline.
    pub fn ideal(slots: usize) -> Self {
        Self {
            slots: vec![
                LinkSlot {
                    bad: false,
                    lost: false,
                    goodput: 1.0,
                };
                slots
            ],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the trace has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot at `index`, wrapping modulo the trace length so callers
    /// can replay a finite trace over arbitrarily many attempts.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn slot(&self, index: u64) -> LinkSlot {
        assert!(!self.slots.is_empty(), "cannot index an empty trace");
        self.slots[(index % self.slots.len() as u64) as usize]
    }

    /// All slots, in order.
    pub fn slots(&self) -> &[LinkSlot] {
        &self.slots
    }

    /// Fraction of slots whose transmission is lost.
    pub fn loss_rate(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.slots.iter().filter(|s| s.lost).count() as f64 / self.slots.len() as f64
    }

    /// Fraction of slots spent in the bad state.
    pub fn bad_rate(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.slots.iter().filter(|s| s.bad).count() as f64 / self.slots.len() as f64
    }

    /// Mean goodput factor across the trace.
    pub fn mean_goodput(&self) -> f64 {
        if self.slots.is_empty() {
            return 1.0;
        }
        self.slots.iter().map(|s| s.goodput).sum::<f64>() / self.slots.len() as f64
    }

    /// An order-sensitive 64-bit digest of the trace — two traces are
    /// byte-identical iff their digests and lengths match (FNV-1a over
    /// the packed slot states).
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        for s in &self.slots {
            let packed =
                u64::from(s.bad) | (u64::from(s.lost) << 1) | (s.goodput.to_bits() & !0b11) << 2;
            h.write_u64(packed);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_distribution_closed_form() {
        let ge = GilbertElliott::new(0.1, 0.3, 0.01, 0.5);
        assert!((ge.stationary_bad() - 0.25).abs() < 1e-12);
        let expected = 0.75 * 0.01 + 0.25 * 0.5;
        assert!((ge.stationary_loss() - expected).abs() < 1e-12);
        assert!((ge.mean_burst_len() - 1.0 / 0.3).abs() < 1e-12);
    }

    #[test]
    fn congested_hits_target_loss() {
        for target in [0.02, 0.05, 0.1, 0.2] {
            let ge = GilbertElliott::congested(target);
            assert!(
                (ge.stationary_loss() - target).abs() < 1e-9,
                "target {target}: got {}",
                ge.stationary_loss()
            );
        }
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let ge = GilbertElliott::congested(0.1);
        let a = ge.trace(7, 2000);
        let b = ge.trace(7, 2000);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = ge.trace(8, 2000);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn losses_cluster_in_bad_states() {
        let ge = GilbertElliott::new(0.02, 0.2, 0.0, 1.0);
        let trace = ge.trace(11, 5000);
        // with loss_good = 0 and loss_bad = 1, lost == bad exactly
        for s in trace.slots() {
            assert_eq!(s.lost, s.bad);
            assert_eq!(s.goodput, if s.bad { 0.25 } else { 1.0 });
        }
        assert!((trace.bad_rate() - ge.stationary_bad()).abs() < 0.05);
    }

    #[test]
    fn uniform_channel_has_flat_goodput() {
        let trace = GilbertElliott::uniform(0.1).trace(3, 4000);
        assert!((trace.mean_goodput() - 1.0).abs() < 1e-12);
        assert!((trace.loss_rate() - 0.1).abs() < 0.03);
    }

    #[test]
    fn ideal_trace_is_lossless() {
        let t = LinkTrace::ideal(100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.loss_rate(), 0.0);
        assert_eq!(t.mean_goodput(), 1.0);
        assert!(!t.slot(1_000_000).lost, "wrapping lookup");
    }

    #[test]
    #[should_panic(expected = "transition")]
    fn frozen_chain_rejected() {
        let _ = GilbertElliott::new(0.0, 0.0, 0.1, 0.5);
    }
}
