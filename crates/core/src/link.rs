//! Communication-link models for offloading data out of the camera.
//!
//! The paper treats cloud computation as free but the *communication* to
//! reach it as a first-class cost (`Cc` in Fig. 1). For the VR case study
//! the cost is bandwidth (frames/sec the uplink can carry); for the
//! energy-harvesting case study it is the per-bit radio energy. [`Link`]
//! models both.

use crate::units::{Bytes, BytesPerSec, Fps, Joules, Seconds};
use core::fmt;
use std::sync::Arc;

/// Errors from link rate/time queries with degenerate payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The frame/payload size was NaN or infinite.
    NonFiniteSize,
    /// The frame size was zero or negative (zero frames upload in zero
    /// time but carry no rate; negative sizes are meaningless).
    NonPositiveSize,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::NonFiniteSize => f.write_str("frame size must be finite"),
            LinkError::NonPositiveSize => f.write_str("frame size must be positive"),
        }
    }
}

/// A network or radio uplink with a raw signalling rate, a protocol
/// efficiency, and an optional per-bit transmit energy.
///
/// `efficiency` captures framing/protocol/contention overhead: the
/// effective goodput is `raw × efficiency`. The paper's Fig. 10 numbers
/// imply ~67 % effective efficiency on the loaded 25 GbE link, while the
/// hypothetical 400 Gb link is quoted near line rate; both are expressed
/// here as explicit parameters (see `EXPERIMENTS.md`).
///
/// The name is shared, not copied: [`Link::degraded`] and `clone` hand
/// the new link the same name buffer, so the per-attempt and
/// per-re-search degraded links of the verify service and the fleet
/// simulator allocate nothing.
///
/// # Examples
///
/// ```
/// use incam_core::link::Link;
/// use incam_core::units::{Bytes, BytesPerSec};
///
/// let link = Link::new("25GbE", BytesPerSec::from_gbps(25.0), 0.671);
/// let frame = Bytes::from_bits(1.0617e9); // 16 x 4K Bayer frames
/// let fps = link.upload_fps(frame);
/// assert!((fps.fps() - 15.8).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    name: Arc<str>,
    raw: BytesPerSec,
    efficiency: f64,
    energy_per_bit: Joules,
}

impl Link {
    /// Creates a link with the given raw rate and protocol efficiency.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]` (NaN included) or `raw`
    /// is not positive and finite.
    pub fn new(name: impl Into<Arc<str>>, raw: BytesPerSec, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "link efficiency must be in (0, 1], got {efficiency}"
        );
        assert!(
            raw.per_sec() > 0.0 && raw.per_sec().is_finite(),
            "link rate must be positive and finite"
        );
        Self {
            name: name.into(),
            raw,
            efficiency,
            energy_per_bit: Joules::ZERO,
        }
    }

    /// Sets the transmit energy per bit (used by energy-constrained
    /// platforms such as WISPCam's backscatter radio).
    pub fn with_energy_per_bit(mut self, energy: Joules) -> Self {
        self.energy_per_bit = energy;
        self
    }

    /// The paper's evaluation uplink: 25 Gigabit Ethernet. Efficiency is
    /// calibrated so a raw 16-camera 4K Bayer stream uploads at the
    /// paper's 15.8 FPS.
    pub fn ethernet_25g() -> Self {
        Self::new("25GbE", BytesPerSec::from_gbps(25.0), 0.671)
    }

    /// The paper's hypothetical ultra-high-throughput uplink: 400 Gb
    /// Ethernet at near line rate (the paper quotes 395 FPS for the raw
    /// 16-camera stream).
    pub fn ethernet_400g() -> Self {
        Self::new("400GbE", BytesPerSec::from_gbps(400.0), 0.99)
    }

    /// The link's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw signalling rate.
    pub fn raw_rate(&self) -> BytesPerSec {
        self.raw
    }

    /// Protocol efficiency in `(0, 1]`.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Effective goodput (`raw × efficiency`).
    pub fn effective_rate(&self) -> BytesPerSec {
        self.raw * self.efficiency
    }

    /// A copy of this link degraded to `goodput` of its nominal
    /// efficiency — congestion or a lossy channel reducing useful
    /// throughput without changing the raw signalling rate. The copy
    /// shares this link's name and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `goodput` is not in `(0, 1]`.
    pub fn degraded(&self, goodput: f64) -> Self {
        assert!(
            goodput > 0.0 && goodput <= 1.0,
            "goodput factor must be in (0, 1], got {goodput}"
        );
        Self {
            name: Arc::clone(&self.name),
            raw: self.raw,
            efficiency: self.efficiency * goodput,
            energy_per_bit: self.energy_per_bit,
        }
    }

    /// Frame rate at which frames of `frame_size` can be uploaded, or an
    /// error for zero/negative/non-finite sizes (the naive division would
    /// return `inf`/`NaN` FPS that poisons downstream `min` comparisons).
    pub fn try_upload_fps(&self, frame_size: Bytes) -> Result<Fps, LinkError> {
        if !frame_size.bytes().is_finite() {
            return Err(LinkError::NonFiniteSize);
        }
        if frame_size.bytes() <= 0.0 {
            return Err(LinkError::NonPositiveSize);
        }
        Ok(self.effective_rate() / frame_size)
    }

    /// Frame rate at which frames of `frame_size` can be uploaded.
    ///
    /// Saturates to [`Fps::ZERO`] for degenerate sizes (zero, negative or
    /// non-finite) instead of producing `inf`/`NaN`; use
    /// [`Link::try_upload_fps`] to distinguish the error cases.
    pub fn upload_fps(&self, frame_size: Bytes) -> Fps {
        self.try_upload_fps(frame_size).unwrap_or(Fps::ZERO)
    }

    /// Time to upload a single payload, or an error for negative or
    /// non-finite payloads. A zero payload legitimately takes zero time.
    pub fn try_upload_time(&self, payload: Bytes) -> Result<Seconds, LinkError> {
        if !payload.bytes().is_finite() {
            return Err(LinkError::NonFiniteSize);
        }
        if payload.bytes() < 0.0 {
            return Err(LinkError::NonPositiveSize);
        }
        Ok(payload / self.effective_rate())
    }

    /// Time to upload a single payload.
    ///
    /// Saturates to [`Seconds::ZERO`] for negative or non-finite payloads
    /// instead of producing a negative/`NaN` duration; use
    /// [`Link::try_upload_time`] to distinguish the error cases.
    pub fn upload_time(&self, payload: Bytes) -> Seconds {
        self.try_upload_time(payload).unwrap_or(Seconds::ZERO)
    }

    /// Energy spent by the camera to transmit a payload.
    pub fn upload_energy(&self, payload: Bytes) -> Joules {
        self.energy_per_bit * payload.bits()
    }

    /// Per-bit transmit energy.
    pub fn energy_per_bit(&self) -> Joules {
        self.energy_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_rate_scales_with_efficiency() {
        let link = Link::new("test", BytesPerSec::from_gbps(10.0), 0.5);
        assert!((link.effective_rate().gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn paper_25gbe_calibration() {
        // 16 cameras x 3840x2160 x 8-bit Bayer = 1.0617 Gb per rig frame.
        let frame = Bytes::from_bits(16.0 * 3840.0 * 2160.0 * 8.0);
        let fps = Link::ethernet_25g().upload_fps(frame);
        assert!((fps.fps() - 15.8).abs() < 0.15, "got {}", fps.fps());
    }

    #[test]
    fn paper_400gbe_sensitivity() {
        let frame = Bytes::from_bits(16.0 * 3840.0 * 2160.0 * 8.0);
        let fps = Link::ethernet_400g().upload_fps(frame);
        // paper quotes ~395 FPS for the hypothetical 400Gb link
        assert!(fps.fps() > 350.0 && fps.fps() < 420.0, "got {}", fps.fps());
    }

    #[test]
    fn upload_energy_uses_per_bit_cost() {
        let link = Link::new("radio", BytesPerSec::from_bits_per_sec(1e6), 1.0)
            .with_energy_per_bit(Joules::from_pico(500.0));
        let e = link.upload_energy(Bytes::new(1000.0)); // 8000 bits
        assert!((e.nanos() - 8000.0 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn upload_time_inverse_of_fps() {
        let link = Link::ethernet_25g();
        let frame = Bytes::from_mib(10.0);
        let t = link.upload_time(frame);
        let fps = link.upload_fps(frame);
        assert!((t.secs() * fps.fps() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_bad_efficiency() {
        let _ = Link::new("bad", BytesPerSec::from_gbps(1.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_nan_efficiency() {
        let _ = Link::new("bad", BytesPerSec::from_gbps(1.0), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_rate() {
        let _ = Link::new("bad", BytesPerSec::new(f64::INFINITY), 0.9);
    }

    #[test]
    fn upload_fps_saturates_on_degenerate_sizes() {
        let link = Link::ethernet_25g();
        assert_eq!(link.upload_fps(Bytes::new(0.0)), Fps::ZERO);
        assert_eq!(link.upload_fps(Bytes::new(-5.0)), Fps::ZERO);
        assert_eq!(link.upload_fps(Bytes::new(f64::NAN)), Fps::ZERO);
        assert_eq!(link.upload_fps(Bytes::new(f64::INFINITY)), Fps::ZERO);
        assert_eq!(
            link.try_upload_fps(Bytes::new(0.0)),
            Err(LinkError::NonPositiveSize)
        );
        assert_eq!(
            link.try_upload_fps(Bytes::new(f64::NAN)),
            Err(LinkError::NonFiniteSize)
        );
        assert!(link.try_upload_fps(Bytes::new(1.0)).unwrap().fps() > 0.0);
    }

    #[test]
    fn upload_time_saturates_on_degenerate_payloads() {
        let link = Link::ethernet_25g();
        // zero payload is fine: zero time
        assert_eq!(link.upload_time(Bytes::new(0.0)), Seconds::ZERO);
        assert_eq!(link.try_upload_time(Bytes::new(0.0)), Ok(Seconds::ZERO));
        assert_eq!(link.upload_time(Bytes::new(-1.0)), Seconds::ZERO);
        assert_eq!(
            link.try_upload_time(Bytes::new(-1.0)),
            Err(LinkError::NonPositiveSize)
        );
        assert_eq!(
            link.try_upload_time(Bytes::new(f64::INFINITY)),
            Err(LinkError::NonFiniteSize)
        );
        let fps = link.upload_fps(Bytes::new(f64::NAN)).fps();
        assert!(fps.is_finite(), "no NaN leaks: got {fps}");
    }

    #[test]
    fn degraded_scales_effective_rate() {
        let link = Link::ethernet_25g();
        let half = link.degraded(0.5);
        assert!(
            (half.effective_rate().per_sec() - link.effective_rate().per_sec() * 0.5).abs() < 1e-6
        );
        assert_eq!(half.raw_rate(), link.raw_rate());
        assert_eq!(half.name(), link.name());
    }

    #[test]
    fn degraded_and_clone_share_the_name_buffer() {
        let link = Link::ethernet_25g();
        assert!(!link.name().is_empty());
        assert_eq!(link.degraded(0.5).name().as_ptr(), link.name().as_ptr());
        assert_eq!(link.clone().name().as_ptr(), link.name().as_ptr());
    }

    #[test]
    #[should_panic(expected = "goodput")]
    fn degraded_rejects_zero_factor() {
        let _ = Link::ethernet_25g().degraded(0.0);
    }
}
