//! Image codecs for the *compression-as-an-optional-block* extension.
//!
//! The paper (§II) notes that "compression can be treated as an optional
//! block in in-camera processing pipelines" — with the tradeoff that
//! lossy compression early in the pipeline can degrade downstream
//! quality — but does not evaluate it. This module supplies the two
//! codecs that extension study needs:
//!
//! * a **lossless** predictive coder (left-neighbor delta + run-length +
//!   variable-length byte packing) whose measured ratio on sensor-like
//!   content feeds the communication model exactly;
//! * a **lossy** 8×8 DCT transform coder with a JPEG-style quality knob,
//!   so the rate/quality tradeoff of compressing *before* processing can
//!   be measured with the same MS-SSIM metric the depth study uses.

use crate::image::{GrayImage, Image};
use core::f32::consts::PI;
use core::fmt;

/// Error decoding a compressed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream does not start with the expected magic byte.
    BadMagic,
    /// The header is truncated or carries impossible dimensions.
    BadHeader,
    /// The stream ended before the pixel data did.
    Truncated,
    /// Bytes remain after the final pixel.
    TrailingData,
    /// A field holds an out-of-range value (e.g. a zero run length or an
    /// invalid quality).
    Corrupt,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            DecodeError::BadMagic => "stream does not start with the codec magic",
            DecodeError::BadHeader => "stream header is truncated or invalid",
            DecodeError::Truncated => "stream ended before the pixel data did",
            DecodeError::TrailingData => "stream has trailing bytes after the pixel data",
            DecodeError::Corrupt => "stream field holds an out-of-range value",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Lossless: delta + RLE
// ---------------------------------------------------------------------------

/// Losslessly compresses an 8-bit image.
///
/// Each row is delta-coded against the left neighbour (first column
/// against the pixel above); runs of a repeated delta are run-length
/// encoded with the escape sequence `0x80, delta, run_len`. The escape
/// byte 0x80 (delta −128, the rarest value on natural content) is itself
/// always escaped; every other delta — including the very common zero —
/// costs one literal byte. A 9-byte header carries dimensions.
///
/// # Examples
///
/// ```
/// use incam_imaging::codec::{compress_lossless, decompress_lossless};
/// use incam_imaging::image::Image;
///
/// let img = Image::from_fn(64, 48, |x, y| ((x / 7 + y / 5) % 13 * 19) as u8);
/// let bytes = compress_lossless(&img);
/// let back = decompress_lossless(&bytes).expect("valid stream");
/// assert_eq!(back.pixels(), img.pixels());
/// assert!(bytes.len() < 64 * 48); // piecewise-constant content compresses
/// ```
pub fn compress_lossless(img: &Image<u8>) -> Vec<u8> {
    let (w, h) = img.dims();
    let mut out = Vec::with_capacity(img.len() / 2 + 9);
    out.push(b'L');
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());

    // collect the delta stream, then run-length encode it
    let mut deltas = Vec::with_capacity(img.len());
    for y in 0..h {
        for x in 0..w {
            let predicted = if x > 0 {
                img.get(x - 1, y)
            } else if y > 0 {
                img.get(x, y - 1)
            } else {
                128
            };
            deltas.push(img.get(x, y).wrapping_sub(predicted)); // incam-lint: allow(unchecked-arith) — modular pixel delta; decode inverts it with wrapping_add
        }
    }

    const ESC: u8 = 0x80;
    let mut i = 0;
    while i < deltas.len() {
        let delta = deltas[i];
        let mut run = 1usize;
        while i + run < deltas.len() && deltas[i + run] == delta && run < 255 {
            run += 1;
        }
        // the escape byte must always be escaped; other deltas only when
        // the run amortizes the 3-byte sequence
        if delta == ESC || run >= 4 {
            out.push(ESC);
            out.push(delta);
            out.push(run as u8); // incam-lint: allow(lossy-cast) — run is capped at 255 by the loop condition
        } else {
            for _ in 0..run {
                out.push(delta);
            }
        }
        i += run;
    }
    out
}

/// Decompresses a [`compress_lossless`] stream.
///
/// # Errors
///
/// Returns a [`DecodeError`] describing the first malformation found
/// (wrong magic, truncated stream, zero run lengths, or trailing bytes).
pub fn decompress_lossless(bytes: &[u8]) -> Result<Image<u8>, DecodeError> {
    if bytes.is_empty() || bytes[0] != b'L' {
        return Err(DecodeError::BadMagic);
    }
    if bytes.len() < 9 {
        return Err(DecodeError::BadHeader);
    }
    let w = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize; // incam-lint: allow(fallible-unwrap) — slice length is fixed by the header guard above
    let h = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize;
    if w == 0 || h == 0 {
        return Err(DecodeError::BadHeader);
    }
    let len = w.checked_mul(h).ok_or(DecodeError::BadHeader)?;
    // an escape triple carries a run of at most 255, so no byte yields
    // more than 85 pixels: bound the header by the bytes before reserving
    if len > (bytes.len() - 9).saturating_mul(85) {
        return Err(DecodeError::Truncated);
    }
    let mut pixels = Vec::with_capacity(len);
    let mut i = 9;
    while pixels.len() < len {
        let byte = *bytes.get(i).ok_or(DecodeError::Truncated)?;
        i += 1;
        if byte == 0x80 {
            let delta = *bytes.get(i).ok_or(DecodeError::Truncated)?;
            let run = *bytes.get(i + 1).ok_or(DecodeError::Truncated)? as usize;
            i += 2;
            if run == 0 {
                return Err(DecodeError::Corrupt);
            }
            for _ in 0..run {
                if pixels.len() >= len {
                    return Err(DecodeError::Corrupt);
                }
                push_predicted(&mut pixels, w, delta);
            }
        } else {
            push_predicted(&mut pixels, w, byte);
        }
    }
    if i != bytes.len() {
        return Err(DecodeError::TrailingData);
    }
    Ok(Image::from_vec(w, h, pixels))
}

fn push_predicted(pixels: &mut Vec<u8>, w: usize, delta: u8) {
    let n = pixels.len();
    let predicted = if !n.is_multiple_of(w) {
        pixels[n - 1]
    } else if n >= w {
        pixels[n - w]
    } else {
        128
    };
    pixels.push(predicted.wrapping_add(delta)); // incam-lint: allow(unchecked-arith) — inverse of the encoder's wrapping_sub delta
}

/// Compression ratio (`original / compressed`) of the lossless coder on
/// an image.
pub fn lossless_ratio(img: &Image<u8>) -> f64 {
    img.len() as f64 / compress_lossless(img).len() as f64
}

// ---------------------------------------------------------------------------
// Lossy: 8x8 DCT transform coding
// ---------------------------------------------------------------------------

/// A JPEG-style lossy grayscale codec: 8×8 block DCT, quality-scaled
/// quantization, zig-zag + RLE entropy stage (reusing the lossless
/// backend on the coefficient stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DctCodec {
    quality: u8,
}

/// The JPEG luminance base quantization table.
const BASE_QUANT: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

impl DctCodec {
    /// Creates a codec with JPEG-style `quality` in `1..=100`.
    ///
    /// # Panics
    ///
    /// Panics if `quality` is outside `1..=100`.
    pub fn new(quality: u8) -> Self {
        assert!((1..=100).contains(&quality), "quality must be in 1..=100");
        Self { quality }
    }

    /// The quality setting.
    pub fn quality(&self) -> u8 {
        self.quality
    }

    fn quant_table(&self) -> [f32; 64] {
        // the standard JPEG quality-to-scale mapping
        let scale = if self.quality < 50 {
            5000.0 / self.quality as f32
        } else {
            200.0 - 2.0 * self.quality as f32
        };
        let mut table = [1.0f32; 64];
        for (t, &base) in table.iter_mut().zip(&BASE_QUANT) {
            *t = ((base as f32 * scale + 50.0) / 100.0)
                .clamp(1.0, 255.0)
                .floor();
        }
        table
    }

    /// Encodes a `[0, 1]` grayscale image, returning the byte stream.
    /// Dimensions are padded up to multiples of 8 internally.
    pub fn encode(&self, img: &GrayImage) -> Vec<u8> {
        let (w, h) = img.dims();
        let bw = w.div_ceil(8);
        let bh = h.div_ceil(8);
        let quant = self.quant_table();
        // coefficient plane stored as bytes (i8 zig-zag clamped), then
        // handed to the lossless backend for the entropy stage
        // DC coefficients span ±1024 at quant 1 and get a 16-bit side
        // channel; AC coefficients fit the i8 plane
        let mut coeff = Image::new(bw * 8, bh * 8, 0u8);
        let mut dc_values: Vec<i16> = Vec::with_capacity(bw * bh);
        for by in 0..bh {
            for bx in 0..bw {
                let mut block = [0.0f32; 64];
                for v in 0..8 {
                    for u in 0..8 {
                        let px = img.get_clamped((bx * 8 + u) as isize, (by * 8 + v) as isize);
                        block[v * 8 + u] = px * 255.0 - 128.0;
                    }
                }
                let freq = dct2d(&block);
                dc_values.push((freq[0] / quant[0]).round().clamp(-32767.0, 32767.0) as i16);
                coeff.set(bx * 8, by * 8, 128);
                for i in 1..64 {
                    let q = (freq[i] / quant[i]).round().clamp(-127.0, 127.0) as i8;
                    coeff.set(
                        bx * 8 + (i % 8),
                        by * 8 + (i / 8),
                        (q as u8).wrapping_add(128), // incam-lint: allow(unchecked-arith) — +128 bias shift into u8 range; the wrap is the codec's modular identity
                    );
                }
            }
        }
        let mut out = Vec::new();
        out.push(b'D');
        out.push(self.quality);
        out.extend_from_slice(&(w as u32).to_le_bytes());
        out.extend_from_slice(&(h as u32).to_le_bytes());
        for dc in &dc_values {
            out.extend_from_slice(&dc.to_le_bytes());
        }
        out.extend_from_slice(&compress_lossless(&coeff));
        out
    }

    /// Decodes a stream produced by [`DctCodec::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for malformed input.
    pub fn decode(bytes: &[u8]) -> Result<GrayImage, DecodeError> {
        if bytes.is_empty() || bytes[0] != b'D' {
            return Err(DecodeError::BadMagic);
        }
        if bytes.len() < 10 {
            return Err(DecodeError::BadHeader);
        }
        let quality = bytes[1];
        if !(1..=100).contains(&quality) {
            return Err(DecodeError::Corrupt);
        }
        let codec = DctCodec::new(quality);
        let w = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes")) as usize; // incam-lint: allow(fallible-unwrap) — slice length is fixed by the header guard above
        let h = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;
        if w == 0 || h == 0 {
            return Err(DecodeError::BadHeader);
        }
        let (bw, bh) = (w.div_ceil(8), h.div_ceil(8));
        let dc_bytes = 2 * bw * bh;
        if bytes.len() < 10 + dc_bytes {
            return Err(DecodeError::Truncated);
        }
        let dc_values: Vec<i16> = bytes[10..10 + dc_bytes]
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect();
        let coeff = decompress_lossless(&bytes[10 + dc_bytes..])?;
        let (cw, ch) = coeff.dims();
        if cw != bw * 8 || ch != bh * 8 {
            return Err(DecodeError::Corrupt);
        }
        let quant = codec.quant_table();
        let mut out = GrayImage::zeros(w, h);
        for by in 0..ch / 8 {
            for bx in 0..cw / 8 {
                let mut freq = [0.0f32; 64];
                freq[0] = dc_values[by * bw + bx] as f32 * quant[0];
                for i in 1..64 {
                    let q = coeff
                        .get(bx * 8 + (i % 8), by * 8 + (i / 8))
                        // incam-lint: allow(unchecked-arith) — inverse of the encoder's +128 bias shift
                        .wrapping_sub(128) as i8; // incam-lint: allow(lossy-cast) — quantized coefficients are biased into 0..=255 by encode
                    freq[i] = q as f32 * quant[i];
                }
                let block = idct2d(&freq);
                for v in 0..8 {
                    for u in 0..8 {
                        let (x, y) = (bx * 8 + u, by * 8 + v);
                        if x < w && y < h {
                            out.set(x, y, ((block[v * 8 + u] + 128.0) / 255.0).clamp(0.0, 1.0));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Round trip: encode then decode (infallible for valid images).
    pub fn transcode(&self, img: &GrayImage) -> (GrayImage, usize) {
        let bytes = self.encode(img);
        let len = bytes.len();
        (
            Self::decode(&bytes).expect("self-produced stream is valid"), // incam-lint: allow(fallible-unwrap) — round-trips a stream this encoder just produced
            len,
        )
    }

    /// Compression ratio against the 8-bit raw size.
    pub fn ratio(&self, img: &GrayImage) -> f64 {
        img.len() as f64 / self.encode(img).len() as f64
    }
}

fn dct_basis(u: usize, x: usize) -> f32 {
    ((2.0 * x as f32 + 1.0) * u as f32 * PI / 16.0).cos()
}

fn dct2d(block: &[f32; 64]) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for v in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for y in 0..8 {
                for x in 0..8 {
                    acc += block[y * 8 + x] * dct_basis(u, x) * dct_basis(v, y);
                }
            }
            let cu = if u == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
            let cv = if v == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
            out[v * 8 + u] = 0.25 * cu * cv * acc;
        }
    }
    out
}

fn idct2d(freq: &[f32; 64]) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0;
            for v in 0..8 {
                for u in 0..8 {
                    let cu = if u == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
                    let cv = if v == 0 { 1.0 / 2f32.sqrt() } else { 1.0 };
                    acc += cu * cv * freq[v * 8 + u] * dct_basis(u, x) * dct_basis(v, y);
                }
            }
            out[y * 8 + x] = 0.25 * acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::add_gaussian_noise;
    use crate::quality::psnr;
    use incam_rng::rngs::StdRng;
    use incam_rng::SeedableRng;

    fn textured(w: usize, h: usize) -> GrayImage {
        Image::from_fn(w, h, |x, y| {
            (0.5 + 0.3 * ((x as f32 * 0.2).sin() * (y as f32 * 0.13).cos())).clamp(0.0, 1.0)
        })
    }

    #[test]
    fn lossless_round_trips_exactly() {
        let mut rng = StdRng::seed_from_u64(55);
        for img in [
            Image::new(17, 9, 0u8),
            Image::from_fn(32, 32, |x, y| ((x * y) % 256) as u8),
            add_gaussian_noise(&textured(24, 24), 0.2, &mut rng).to_u8(),
        ] {
            let back = decompress_lossless(&compress_lossless(&img)).expect("valid");
            assert_eq!(back.pixels(), img.pixels());
        }
    }

    #[test]
    fn lossless_compresses_smooth_content() {
        let flat = Image::new(64, 64, 100u8);
        assert!(lossless_ratio(&flat) > 50.0);
        let smooth = Image::from_fn(64, 64, |x, _| (x * 2) as u8);
        assert!(lossless_ratio(&smooth) > 1.5);
    }

    #[test]
    fn lossless_rejects_malformed_streams() {
        assert_eq!(decompress_lossless(&[]), Err(DecodeError::BadMagic));
        assert_eq!(decompress_lossless(b"Xjunk"), Err(DecodeError::BadMagic));
        let mut truncated = compress_lossless(&Image::new(8, 8, 7u8));
        truncated.pop();
        assert_eq!(decompress_lossless(&truncated), Err(DecodeError::Truncated));
        let mut trailing = compress_lossless(&Image::new(8, 8, 7u8));
        trailing.push(0x42);
        assert_eq!(
            decompress_lossless(&trailing),
            Err(DecodeError::TrailingData)
        );
    }

    #[test]
    fn lossless_bounds_the_header_by_the_stream() {
        // 9-byte streams claiming 2^62 and (2^32 − 1)^2 pixels used to
        // abort the process reserving them; on 32-bit targets the first
        // product overflows instead
        for side in [1u32 << 31, u32::MAX] {
            let mut stream = vec![b'L'];
            stream.extend(side.to_le_bytes());
            stream.extend(side.to_le_bytes());
            assert!(matches!(
                decompress_lossless(&stream),
                Err(DecodeError::Truncated | DecodeError::BadHeader)
            ));
        }
        // long constant runs, the densest coding, still decode
        let flat = Image::new(255 * 4, 3, 200u8);
        let back = decompress_lossless(&compress_lossless(&flat)).expect("valid");
        assert_eq!(back.pixels(), flat.pixels());
    }

    #[test]
    fn dct_quality_monotone() {
        let img = textured(64, 48);
        let (lo_img, lo_len) = DctCodec::new(10).transcode(&img);
        let (hi_img, hi_len) = DctCodec::new(90).transcode(&img);
        assert!(hi_len > lo_len, "higher quality should spend more bytes");
        assert!(
            psnr(&img, &hi_img) > psnr(&img, &lo_img),
            "higher quality should reconstruct better"
        );
        assert!(psnr(&img, &hi_img) > 30.0);
    }

    #[test]
    fn dct_compresses_textured_content() {
        let img = textured(64, 64);
        let ratio = DctCodec::new(50).ratio(&img);
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn dct_handles_non_multiple_of_eight() {
        let img = textured(37, 21);
        let (back, _) = DctCodec::new(80).transcode(&img);
        assert_eq!(back.dims(), (37, 21));
        assert!(psnr(&img, &back) > 25.0);
    }

    #[test]
    fn dct_round_trip_is_near_lossless_at_q100() {
        let img = textured(32, 32);
        let (back, _) = DctCodec::new(100).transcode(&img);
        assert!(psnr(&img, &back) > 35.0);
    }

    #[test]
    fn dct_rejects_malformed() {
        assert_eq!(DctCodec::decode(&[]).unwrap_err(), DecodeError::BadMagic);
        assert!(DctCodec::decode(b"Dxxxxxxxxxxx").is_err());
    }

    #[test]
    #[should_panic(expected = "quality")]
    fn zero_quality_rejected() {
        let _ = DctCodec::new(0);
    }
}
