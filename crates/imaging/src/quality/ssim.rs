//! Single-scale structural similarity (SSIM), Wang et al. 2004.
//!
//! Local means/variances/covariance are computed with a Gaussian window
//! (σ = 1.5, the reference implementation's choice) via the separable
//! convolutions in [`crate::convolve`].

use crate::convolve::{convolve_separable, gaussian_kernel};
use crate::image::GrayImage;

/// SSIM parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsimConfig {
    /// Gaussian window standard deviation (reference: 1.5).
    pub window_sigma: f32,
    /// Dynamic range of the images (1.0 for `[0, 1]` images).
    pub dynamic_range: f64,
    /// Luminance stabilizer constant `K1` (reference: 0.01).
    pub k1: f64,
    /// Contrast stabilizer constant `K2` (reference: 0.03).
    pub k2: f64,
}

impl Default for SsimConfig {
    fn default() -> Self {
        Self {
            window_sigma: 1.5,
            dynamic_range: 1.0,
            k1: 0.01,
            k2: 0.03,
        }
    }
}

/// Per-scale SSIM components: the full index plus the contrast-structure
/// product needed by MS-SSIM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SsimComponents {
    pub(crate) mean_ssim: f64,
    pub(crate) mean_cs: f64,
}

pub(crate) fn ssim_components(a: &GrayImage, b: &GrayImage, cfg: &SsimConfig) -> SsimComponents {
    assert_eq!(a.dims(), b.dims(), "image dimensions must match");
    let kernel = gaussian_kernel(cfg.window_sigma);
    let mu_a = convolve_separable(a, &kernel);
    let mu_b = convolve_separable(b, &kernel);
    let aa = mul(a, a);
    let bb = mul(b, b);
    let ab = mul(a, b);
    let s_aa = convolve_separable(&aa, &kernel);
    let s_bb = convolve_separable(&bb, &kernel);
    let s_ab = convolve_separable(&ab, &kernel);

    let c1 = (cfg.k1 * cfg.dynamic_range).powi(2);
    let c2 = (cfg.k2 * cfg.dynamic_range).powi(2);

    let mut ssim_sum = 0.0f64;
    let mut cs_sum = 0.0f64;
    let n = a.len() as f64;
    for i in 0..a.len() {
        let ma = mu_a.pixels()[i] as f64;
        let mb = mu_b.pixels()[i] as f64;
        let va = (s_aa.pixels()[i] as f64 - ma * ma).max(0.0);
        let vb = (s_bb.pixels()[i] as f64 - mb * mb).max(0.0);
        let cov = s_ab.pixels()[i] as f64 - ma * mb;
        let luminance = (2.0 * ma * mb + c1) / (ma * ma + mb * mb + c1);
        let cs = (2.0 * cov + c2) / (va + vb + c2);
        ssim_sum += luminance * cs;
        cs_sum += cs;
    }
    SsimComponents {
        mean_ssim: ssim_sum / n,
        mean_cs: cs_sum / n,
    }
}

fn mul(a: &GrayImage, b: &GrayImage) -> GrayImage {
    GrayImage::from_fn(a.width(), a.height(), |x, y| a.get(x, y) * b.get(x, y))
}

/// Computes the mean SSIM index between two images.
///
/// Returns a value in `[-1, 1]`; 1.0 means identical.
///
/// # Panics
///
/// Panics if the image dimensions differ.
///
/// # Examples
///
/// ```
/// use incam_imaging::image::Image;
/// use incam_imaging::quality::{ssim, SsimConfig};
///
/// let img = Image::from_fn(32, 32, |x, y| ((x ^ y) & 7) as f32 / 7.0);
/// let score = ssim(&img, &img, &SsimConfig::default());
/// assert!((score - 1.0).abs() < 1e-9);
/// ```
pub fn ssim(a: &GrayImage, b: &GrayImage, cfg: &SsimConfig) -> f64 {
    ssim_components(a, b, cfg).mean_ssim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::noise::add_gaussian_noise;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    fn textured(w: usize, h: usize) -> GrayImage {
        Image::from_fn(w, h, |x, y| {
            (0.5 + 0.3 * ((x as f32 * 0.7).sin() * (y as f32 * 0.5).cos())).clamp(0.0, 1.0)
        })
    }

    #[test]
    fn identical_images_score_one() {
        let img = textured(24, 24);
        assert!((ssim(&img, &img, &SsimConfig::default()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_decreases_with_noise() {
        let mut rng = StdRng::seed_from_u64(3);
        let img = textured(32, 32);
        let light = add_gaussian_noise(&img, 0.02, &mut rng);
        let heavy = add_gaussian_noise(&img, 0.2, &mut rng);
        let cfg = SsimConfig::default();
        let s_light = ssim(&img, &light, &cfg);
        let s_heavy = ssim(&img, &heavy, &cfg);
        assert!(s_light > s_heavy, "{s_light} vs {s_heavy}");
        assert!(s_light > 0.8);
        assert!(s_heavy < 0.8);
    }

    #[test]
    fn bounded_by_one() {
        let a = textured(16, 16);
        let b = GrayImage::new(16, 16, 0.9);
        let s = ssim(&a, &b, &SsimConfig::default());
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn cs_component_ignores_luminance_shift() {
        // adding a constant offset changes luminance but not structure
        let a = textured(32, 32);
        let b = a.map(|p| (p + 0.1).clamp(0.0, 1.0));
        let comps = ssim_components(&a, &b, &SsimConfig::default());
        assert!(comps.mean_cs > comps.mean_ssim - 1e-9);
        assert!(comps.mean_cs > 0.9);
    }
}
