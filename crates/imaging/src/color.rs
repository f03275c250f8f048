//! Color and raw-sensor (Bayer) pixel formats.
//!
//! The VR rig's cameras emit raw Bayer mosaics (the data volume that sets
//! the paper's 32 Gb/s aggregate rate). The pre-processing block (B1)
//! demosaics and converts for downstream alignment; implementing the
//! mosaic/demosaic pair here gives B1 a real kernel to execute and lets
//! tests verify the round-trip.

use crate::image::{GrayImage, Image};

/// The Bayer color-filter-array layout (which color each sensor pixel
/// samples), for a 2×2 repeating RGGB tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BayerChannel {
    /// Red-filtered photosite.
    Red,
    /// Green-filtered photosite.
    Green,
    /// Blue-filtered photosite.
    Blue,
}

/// Channel sampled at `(x, y)` under an RGGB mosaic.
///
/// # Examples
///
/// ```
/// use incam_imaging::color::{bayer_channel_at, BayerChannel};
/// assert_eq!(bayer_channel_at(0, 0), BayerChannel::Red);
/// assert_eq!(bayer_channel_at(1, 0), BayerChannel::Green);
/// assert_eq!(bayer_channel_at(0, 1), BayerChannel::Green);
/// assert_eq!(bayer_channel_at(1, 1), BayerChannel::Blue);
/// ```
pub fn bayer_channel_at(x: usize, y: usize) -> BayerChannel {
    match (x % 2, y % 2) {
        (0, 0) => BayerChannel::Red,
        (1, 1) => BayerChannel::Blue,
        _ => BayerChannel::Green,
    }
}

/// An RGB image with `f32` channels in `[0, 1]`.
pub type RgbImage = Image<[f32; 3]>;

/// Converts RGB to luminance with the Rec. 601 weights.
pub fn rgb_to_gray(rgb: &RgbImage) -> GrayImage {
    rgb.map(|[r, g, b]| luma(r, g, b))
}

/// The Rec. 601 luma of one pixel: the one expression every conversion
/// here evaluates.
#[inline]
fn luma(r: f32, g: f32, b: f32) -> f32 {
    0.299 * r + 0.587 * g + 0.114 * b
}

/// Simulates a raw capture: samples one channel per pixel under the RGGB
/// mosaic.
pub fn bayer_mosaic(rgb: &RgbImage) -> GrayImage {
    GrayImage::from_fn(rgb.width(), rgb.height(), |x, y| {
        let [r, g, b] = rgb.get(x, y);
        match bayer_channel_at(x, y) {
            BayerChannel::Red => r,
            BayerChannel::Green => g,
            BayerChannel::Blue => b,
        }
    })
}

/// Bilinear demosaic of an RGGB mosaic back to RGB — the kernel of the VR
/// pipeline's pre-processing block.
pub fn demosaic_bilinear(raw: &GrayImage) -> RgbImage {
    Image::from_fn(raw.width(), raw.height(), |x, y| demosaic_at(raw, x, y))
}

/// Bilinear demosaic straight to luma: bit-equal to
/// `rgb_to_gray(&demosaic_bilinear(raw))`, without the RGB image.
///
/// Away from the border every neighbour the per-pixel rule averages lies
/// inside the image and carries the wanted channel, so each average is a
/// fixed sum over the three rows around the pixel —
/// `(0.0 + a + b + c + d) / 4.0` across or diagonally, `(0.0 + a + b) / 2.0`
/// along one axis — in the reference's offset order, and the luma sum
/// takes the channels in the reference's order. The one-pixel border runs
/// the per-pixel rule itself.
///
/// # Examples
///
/// ```
/// use incam_imaging::color::{demosaic_bilinear, demosaic_luma, rgb_to_gray};
/// use incam_imaging::image::GrayImage;
///
/// let raw = GrayImage::from_fn(6, 5, |x, y| ((x * 7 + y * 3) % 5) as f32 / 5.0);
/// assert_eq!(demosaic_luma(&raw), rgb_to_gray(&demosaic_bilinear(&raw)));
/// ```
pub fn demosaic_luma(raw: &GrayImage) -> GrayImage {
    let (w, h) = raw.dims();
    let mut out = vec![0.0f32; w * h];
    for (y, orow) in out.chunks_mut(w).enumerate() {
        if y == 0 || y + 1 == h || w < 3 {
            for (x, o) in orow.iter_mut().enumerate() {
                let [r, g, b] = demosaic_at(raw, x, y);
                *o = luma(r, g, b);
            }
            continue;
        }
        for x in [0, w - 1] {
            let [r, g, b] = demosaic_at(raw, x, y);
            orow[x] = luma(r, g, b);
        }
        let (up, mid, down) = (raw.row(y - 1), raw.row(y), raw.row(y + 1));
        let red_row = y.is_multiple_of(2);
        for x in 1..w - 1 {
            let here = mid[x];
            // the two one-axis averages: along the row and along the column
            let along_row = (0.0 + mid[x - 1] + mid[x + 1]) / 2.0;
            let along_col = (0.0 + up[x] + down[x]) / 2.0;
            orow[x] = match (red_row, x.is_multiple_of(2)) {
                // green sites: one channel on the row, the other on the column
                (true, false) => luma(along_row, here, along_col),
                (false, true) => luma(along_col, here, along_row),
                // red and blue sites: green across, the opposite colour
                // on the diagonals
                (red, _) => {
                    let cross = (0.0 + mid[x - 1] + mid[x + 1] + up[x] + down[x]) / 4.0;
                    let diag = (0.0 + up[x - 1] + up[x + 1] + down[x - 1] + down[x + 1]) / 4.0;
                    if red {
                        luma(here, cross, diag)
                    } else {
                        luma(diag, cross, here)
                    }
                }
            };
        }
    }
    GrayImage::from_vec(w, h, out)
}

/// The RGB the bilinear demosaic assigns to pixel `(x, y)`: the pixel's
/// own channel, and for each other channel the mean of the neighbours (in
/// a fixed offset order) that sample it.
fn demosaic_at(raw: &GrayImage, x: usize, y: usize) -> [f32; 3] {
    let (w, h) = raw.dims();
    // Average the neighbors of `(x, y)` whose mosaic channel is `ch`.
    let avg = |ch: BayerChannel, offsets: &[(isize, isize)]| -> f32 {
        let mut sum = 0.0;
        let mut count = 0.0;
        for &(dx, dy) in offsets {
            let nx = x as isize + dx;
            let ny = y as isize + dy;
            if nx >= 0
                && ny >= 0
                && (nx as usize) < w
                && (ny as usize) < h
                && bayer_channel_at(nx as usize, ny as usize) == ch
            {
                sum += raw.get(nx as usize, ny as usize);
                count += 1.0;
            }
        }
        if count > 0.0 {
            sum / count
        } else {
            raw.get(x, y)
        }
    };
    const CROSS: [(isize, isize); 4] = [(-1, 0), (1, 0), (0, -1), (0, 1)];
    const DIAG: [(isize, isize); 4] = [(-1, -1), (1, -1), (-1, 1), (1, 1)];
    const AXIS_H: [(isize, isize); 2] = [(-1, 0), (1, 0)];
    const AXIS_V: [(isize, isize); 2] = [(0, -1), (0, 1)];

    let here = raw.get(x, y);
    match bayer_channel_at(x, y) {
        BayerChannel::Red => {
            let g = avg(BayerChannel::Green, &CROSS);
            let b = avg(BayerChannel::Blue, &DIAG);
            [here, g, b]
        }
        BayerChannel::Blue => {
            let g = avg(BayerChannel::Green, &CROSS);
            let r = avg(BayerChannel::Red, &DIAG);
            [r, g, here]
        }
        BayerChannel::Green => {
            // red is on this row for RGGB green at (1,0) rows, else column
            let r = if y.is_multiple_of(2) {
                avg(BayerChannel::Red, &AXIS_H)
            } else {
                avg(BayerChannel::Red, &AXIS_V)
            };
            let b = if y.is_multiple_of(2) {
                avg(BayerChannel::Blue, &AXIS_V)
            } else {
                avg(BayerChannel::Blue, &AXIS_H)
            };
            [r, here, b]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_conversion_weights() {
        let rgb = RgbImage::new(2, 2, [1.0, 0.0, 0.0]);
        let g = rgb_to_gray(&rgb);
        assert!((g.get(0, 0) - 0.299).abs() < 1e-6);
    }

    #[test]
    fn mosaic_samples_correct_channel() {
        let rgb = RgbImage::from_fn(4, 4, |_, _| [0.9, 0.5, 0.1]);
        let raw = bayer_mosaic(&rgb);
        assert!((raw.get(0, 0) - 0.9).abs() < 1e-6); // R
        assert!((raw.get(1, 0) - 0.5).abs() < 1e-6); // G
        assert!((raw.get(1, 1) - 0.1).abs() < 1e-6); // B
    }

    #[test]
    fn demosaic_recovers_constant_image() {
        let rgb = RgbImage::new(8, 8, [0.6, 0.4, 0.2]);
        let raw = bayer_mosaic(&rgb);
        let back = demosaic_bilinear(&raw);
        for y in 1..7 {
            for x in 1..7 {
                let [r, g, b] = back.get(x, y);
                assert!((r - 0.6).abs() < 1e-5, "r at {x},{y}");
                assert!((g - 0.4).abs() < 1e-5, "g at {x},{y}");
                assert!((b - 0.2).abs() < 1e-5, "b at {x},{y}");
            }
        }
    }

    #[test]
    fn demosaic_approximates_smooth_gradient() {
        let rgb = RgbImage::from_fn(16, 16, |x, y| {
            let t = (x + y) as f32 / 30.0;
            [t, 1.0 - t, 0.5]
        });
        let back = demosaic_bilinear(&bayer_mosaic(&rgb));
        let mut max_err = 0.0f32;
        for y in 2..14 {
            for x in 2..14 {
                let a = rgb.get(x, y);
                let b = back.get(x, y);
                for c in 0..3 {
                    max_err = max_err.max((a[c] - b[c]).abs());
                }
            }
        }
        assert!(max_err < 0.08, "max interior error {max_err}");
    }

    #[test]
    fn bayer_tile_repeats() {
        assert_eq!(bayer_channel_at(2, 0), BayerChannel::Red);
        assert_eq!(bayer_channel_at(3, 3), BayerChannel::Blue);
        assert_eq!(bayer_channel_at(5, 2), BayerChannel::Green);
    }
}
