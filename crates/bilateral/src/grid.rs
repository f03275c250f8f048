//! The bilateral grid: a 3-D (x, y, intensity) resampling of an image in
//! which simple local filters are equivalent to costly global edge-aware
//! filters in pixel space — the data structure at the heart of
//! bilateral-space stereo (paper §IV-A).
//!
//! Values are *splatted* into grid vertices with trilinear weights,
//! processed in the grid (blurring, solver iterations), and *sliced* back
//! out at pixel locations. Pixels that are spatial neighbours but differ
//! strongly in intensity land in different grid cells along the third
//! axis, so grid-space smoothing never mixes across an image edge.
//!
//! The splat (a scatter into shared vertices), the fused blur (a rolling
//! ring of slabs) and the slice (independent pixel gathers) are
//! sequential sweeps. Splat and slice derive each guide row's intensity
//! taps in one pass before the per-pixel tap loop, and the blur's ring
//! and slab buffers are allocated once per call — or once per solve,
//! when the bilateral-space solver blurs its state's values alone. Each
//! fast path is bit-equal to its `*_reference` formulation.

use incam_imaging::image::GrayImage;

/// Grid resolution parameters.
///
/// `sigma_spatial` is the pixel extent of one grid cell (the paper's
/// "pixels per grid vertex", swept 4–64 in Fig. 7); `sigma_range` is the
/// intensity extent of one cell for images in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridParams {
    /// Pixels per grid cell in x and y.
    pub sigma_spatial: f32,
    /// Intensity units per grid cell.
    pub sigma_range: f32,
}

impl GridParams {
    /// Validates and creates parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_spatial < 1` or `sigma_range` is not in `(0, 1]`.
    pub fn new(sigma_spatial: f32, sigma_range: f32) -> Self {
        assert!(sigma_spatial >= 1.0, "sigma_spatial must be >= 1 pixel");
        assert!(
            sigma_range > 0.0 && sigma_range <= 1.0,
            "sigma_range must be in (0, 1]"
        );
        Self {
            sigma_spatial,
            sigma_range,
        }
    }

    /// Grid dimensions `(x, y, intensity)` for a `width × height` image
    /// in `[0, 1]`: the sizing every [`BilateralGrid`] is built with.
    pub fn dims(&self, width: usize, height: usize) -> (usize, usize, usize) {
        let gw = ((width - 1) as f32 / self.sigma_spatial).floor() as usize + 2;
        let gh = ((height - 1) as f32 / self.sigma_spatial).floor() as usize + 2;
        let gz = (1.0 / self.sigma_range).floor() as usize + 2;
        (gw, gh, gz)
    }
}

/// A homogeneous bilateral grid: per-vertex accumulated `value·weight` and
/// `weight`.
#[derive(Debug, Clone, PartialEq)]
pub struct BilateralGrid {
    gw: usize,
    gh: usize,
    gz: usize,
    values: Vec<f32>,
    weights: Vec<f32>,
    params: GridParams,
}

impl BilateralGrid {
    /// Creates an empty grid sized for a `width × height` image in
    /// `[0, 1]` under `params`.
    pub fn new(width: usize, height: usize, params: GridParams) -> Self {
        let (gw, gh, gz) = params.dims(width, height);
        let n = gw * gh * gz;
        Self {
            gw,
            gh,
            gz,
            values: vec![0.0; n],
            weights: vec![0.0; n],
            params,
        }
    }

    /// Grid dimensions `(x, y, intensity)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.gw, self.gh, self.gz)
    }

    /// Number of grid vertices.
    pub fn vertex_count(&self) -> usize {
        self.gw * self.gh * self.gz
    }

    /// The grid parameters.
    pub fn params(&self) -> GridParams {
        self.params
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.gh + y) * self.gw + x
    }

    /// Grid-space coordinates of a pixel.
    #[inline]
    fn coords(&self, x: usize, y: usize, intensity: f32) -> (f32, f32, f32) {
        (
            x as f32 / self.params.sigma_spatial,
            y as f32 / self.params.sigma_spatial,
            intensity.clamp(0.0, 1.0) / self.params.sigma_range,
        )
    }

    /// Splats `values` (weighted by `confidence`, or 1) into the grid,
    /// guided by `guide`'s intensities, with trilinear weights: one
    /// sequential scatter in row-major pixel order, so every vertex
    /// accumulates its taps in that order.
    ///
    /// Fast path: the spatial tap cells and weights depend only on the
    /// pixel column/row, so they are precomputed per coordinate
    /// (`spatial_taps`), and each row's intensity taps are derived in one
    /// pass over the guide row before its pixels scatter
    /// (`intensity_taps`). Tap order (`dz, dy, dx`), the `(wx·wy)·wz`
    /// association, and the zero-weight skips match
    /// [`BilateralGrid::splat_reference`] exactly, so the accumulators are
    /// bit-equal to it.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn splat(&mut self, guide: &GrayImage, values: &GrayImage, confidence: Option<&GrayImage>) {
        assert_eq!(guide.dims(), values.dims(), "guide/values must match");
        if let Some(c) = confidence {
            assert_eq!(guide.dims(), c.dims(), "guide/confidence must match");
        }
        let (gw, gh, gz) = (self.gw, self.gh, self.gz);
        let params = self.params;
        let xt = spatial_taps(guide.width(), params.sigma_spatial, gw);
        let yt = spatial_taps(guide.height(), params.sigma_spatial, gh);
        let (grid_values, grid_weights) = (&mut self.values[..], &mut self.weights[..]);
        let (mut z0s, mut tzs) = ([0usize; TAP_CHUNK], [0.0f32; TAP_CHUNK]);
        for (y, &(cy0, cy1, wy0, wy1)) in yt.iter().enumerate() {
            let grow = guide.row(y);
            let vrow = values.row(y);
            let crow = confidence.map(|c| c.row(y));
            for start in (0..grow.len()).step_by(TAP_CHUNK) {
                let end = (start + TAP_CHUNK).min(grow.len());
                intensity_taps(&grow[start..end], params.sigma_range, &mut z0s, &mut tzs);
                for (x, (&z0, &tz)) in (start..end).zip(z0s.iter().zip(&tzs)) {
                    let v = vrow[x];
                    let conf = crow.map_or(1.0, |r| r[x]);
                    if conf <= 0.0 {
                        continue;
                    }
                    let (cx0, cx1, wx0, wx1) = xt[x];
                    for dz in 0..2usize {
                        let wz = if dz == 0 { 1.0 - tz } else { tz };
                        let cz = (z0 + dz).min(gz - 1);
                        for (cy, wy) in [(cy0, wy0), (cy1, wy1)] {
                            let rb = (cz * gh + cy) * gw;
                            for (cx, wx) in [(cx0, wx0), (cx1, wx1)] {
                                let w = wx * wy * wz;
                                if w <= 0.0 {
                                    continue;
                                }
                                let tap_w = w * conf;
                                if tap_w <= 0.0 {
                                    continue;
                                }
                                grid_values[rb + cx] += tap_w * v;
                                grid_weights[rb + cx] += tap_w;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The original per-tap scatter (recomputing coordinates and weights
    /// for every pixel) — correctness oracle for [`BilateralGrid::splat`]
    /// and the "before" side of the kernel microbenchmarks.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn splat_reference(
        &mut self,
        guide: &GrayImage,
        values: &GrayImage,
        confidence: Option<&GrayImage>,
    ) {
        assert_eq!(guide.dims(), values.dims(), "guide/values must match");
        if let Some(c) = confidence {
            assert_eq!(guide.dims(), c.dims(), "guide/confidence must match");
        }
        let dims = (self.gw, self.gh, self.gz);
        let params = self.params;
        for y in 0..guide.height() {
            for x in 0..guide.width() {
                let v = values.get(x, y);
                let w = confidence.map_or(1.0, |c| c.get(x, y));
                if w <= 0.0 {
                    continue;
                }
                splat_taps(params, dims, (x, y, guide.get(x, y)), |i, tap_w| {
                    let tap_w = tap_w * w;
                    if tap_w <= 0.0 {
                        return;
                    }
                    self.values[i] += tap_w * v;
                    self.weights[i] += tap_w;
                });
            }
        }
    }

    /// Applies `iterations` of a separable `[1, 2, 1]/4` blur along each
    /// grid axis, to values and weights alike (homogeneous blur). Borders
    /// replicate, which preserves total mass.
    ///
    /// The three axis passes of one iteration are fused into a single
    /// sweep over the grid (`blur_xyz_into`), which streams the intensity
    /// slabs keeping a rolling ring of the three xy-blurred slabs the
    /// z-pass needs, so each iteration materializes the grid once per
    /// array instead of three times. The output grid, the ring and the
    /// x-pass slab are allocated once per call (`BlurScratch`). Every
    /// element-wise `(a + 2b + c)/4` expression is identical to the
    /// per-axis formulation (kept as [`BilateralGrid::blur_reference`]),
    /// so the result is byte-identical to it.
    pub fn blur(&mut self, iterations: usize) {
        if iterations == 0 {
            return;
        }
        let mut scratch = BlurScratch::new(self.dims());
        for _ in 0..iterations {
            scratch.blur_once(&mut self.values);
            scratch.blur_once(&mut self.weights);
        }
    }

    /// Blurs the values alone, `iterations` times, through the caller's
    /// `scratch` — for a grid whose weights are 1 at every vertex, which
    /// the blur maps to `(1 + 2·1 + 1)/4 = 1` exactly, so [`Self::blur`]
    /// would leave them bit-for-bit unchanged. The bilateral-space
    /// solver's state is such a grid.
    pub(crate) fn blur_values(&mut self, iterations: usize, scratch: &mut BlurScratch) {
        for _ in 0..iterations {
            scratch.blur_once(&mut self.values);
        }
    }

    /// The original unfused blur: three full-grid axis passes per
    /// iteration, ping-ponging one scratch buffer — correctness oracle
    /// for the fused [`BilateralGrid::blur`] and the "before" side of the
    /// kernel microbenchmarks.
    pub fn blur_reference(&mut self, iterations: usize) {
        if iterations == 0 {
            return;
        }
        let dims = (self.gw, self.gh, self.gz);
        let mut scratch = vec![0.0f32; self.values.len()];
        for _ in 0..iterations {
            for axis in 0..3 {
                blur_axis_into(dims, &self.values, &mut scratch, axis);
                core::mem::swap(&mut self.values, &mut scratch);
                blur_axis_into(dims, &self.weights, &mut scratch, axis);
                core::mem::swap(&mut self.weights, &mut scratch);
            }
        }
    }

    /// Reads the filtered value at every pixel of `guide` (trilinear
    /// interpolation of `value/weight`). Vertices with no support yield 0.
    ///
    /// Fast path: spatial tap cells/weights are precomputed per pixel
    /// coordinate (`spatial_taps`), and each row's intensity taps are
    /// derived in one pass over the guide row, a stack chunk at a time
    /// (`intensity_taps`). Tap order and the `(wx·wy)·wz` association
    /// match the per-pixel formulation (kept as
    /// [`BilateralGrid::slice_reference`]), so outputs are bit-equal.
    pub fn slice(&self, guide: &GrayImage) -> GrayImage {
        let (w, h) = guide.dims();
        let xt = spatial_taps(w, self.params.sigma_spatial, self.gw);
        let yt = spatial_taps(h, self.params.sigma_spatial, self.gh);
        let sigma_range = self.params.sigma_range;
        let mut data = vec![0.0f32; w * h];
        for (y, dst) in data.chunks_mut(w).enumerate() {
            let (cy0, cy1, wy0, wy1) = yt[y];
            let (mut z0s, mut tzs) = ([0usize; TAP_CHUNK], [0.0f32; TAP_CHUNK]);
            for ((dst, grow), xt) in dst
                .chunks_mut(TAP_CHUNK)
                .zip(guide.row(y).chunks(TAP_CHUNK))
                .zip(xt.chunks(TAP_CHUNK))
            {
                intensity_taps(grow, sigma_range, &mut z0s, &mut tzs);
                for ((out, (&z0, &tz)), &(cx0, cx1, wx0, wx1)) in
                    dst.iter_mut().zip(z0s.iter().zip(&tzs)).zip(xt)
                {
                    let mut num = 0.0f32;
                    let mut den = 0.0f32;
                    for dz in 0..2usize {
                        let wz = if dz == 0 { 1.0 - tz } else { tz };
                        let zb = (z0 + dz).min(self.gz - 1) * self.gh;
                        for (cy, wy) in [(cy0, wy0), (cy1, wy1)] {
                            let rb = (zb + cy) * self.gw;
                            for (cx, wx) in [(cx0, wx0), (cx1, wx1)] {
                                let tw = wx * wy * wz;
                                num += tw * self.values[rb + cx];
                                den += tw * self.weights[rb + cx];
                            }
                        }
                    }
                    *out = if den > 1e-8 { num / den } else { 0.0 };
                }
            }
        }
        GrayImage::from_vec(w, h, data)
    }

    /// The original per-pixel gather (recomputing all eight tap
    /// coordinates and weights per pixel) — correctness oracle for
    /// [`BilateralGrid::slice`] and the "before" side of the kernel
    /// microbenchmarks.
    pub fn slice_reference(&self, guide: &GrayImage) -> GrayImage {
        GrayImage::from_fn(guide.width(), guide.height(), |x, y| {
            self.slice_one(x, y, guide.get(x, y))
        })
    }

    fn slice_one(&self, x: usize, y: usize, intensity: f32) -> f32 {
        let (fx, fy, fz) = self.coords(x, y, intensity);
        let (x0, y0, z0) = (
            fx.floor() as usize,
            fy.floor() as usize,
            fz.floor() as usize,
        );
        let (tx, ty, tz) = (fx - x0 as f32, fy - y0 as f32, fz - z0 as f32);
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for dz in 0..2usize {
            let wz = if dz == 0 { 1.0 - tz } else { tz };
            for dy in 0..2usize {
                let wy = if dy == 0 { 1.0 - ty } else { ty };
                for dx in 0..2usize {
                    let wx = if dx == 0 { 1.0 - tx } else { tx };
                    let w = wx * wy * wz;
                    let i = self.idx(
                        (x0 + dx).min(self.gw - 1),
                        (y0 + dy).min(self.gh - 1),
                        (z0 + dz).min(self.gz - 1),
                    );
                    num += w * self.values[i];
                    den += w * self.weights[i];
                }
            }
        }
        if den > 1e-8 {
            num / den
        } else {
            0.0
        }
    }

    /// Total splatted weight (for conservation checks).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().map(|&w| w as f64).sum()
    }

    /// Raw per-vertex accumulators `(values, weights)` — used by the
    /// bilateral-space solver.
    pub fn raw(&self) -> (&[f32], &[f32]) {
        (&self.values, &self.weights)
    }

    /// Mutable raw accumulators.
    pub fn raw_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.values, &mut self.weights)
    }
}

/// Enumerates the (up to 8) trilinear taps of one pixel, invoking
/// `emit(flat_index, tap_weight)` in the same fixed `dz, dy, dx` order as
/// the original sequential scatter. Zero-weight taps are skipped, exactly
/// as before.
#[inline]
fn splat_taps(
    params: GridParams,
    (gw, gh, gz): (usize, usize, usize),
    (x, y, intensity): (usize, usize, f32),
    mut emit: impl FnMut(usize, f32),
) {
    let fx = x as f32 / params.sigma_spatial;
    let fy = y as f32 / params.sigma_spatial;
    let fz = intensity.clamp(0.0, 1.0) / params.sigma_range;
    let (x0, y0, z0) = (
        fx.floor() as usize,
        fy.floor() as usize,
        fz.floor() as usize,
    );
    let (tx, ty, tz) = (fx - x0 as f32, fy - y0 as f32, fz - z0 as f32);
    for dz in 0..2usize {
        let wz = if dz == 0 { 1.0 - tz } else { tz };
        for dy in 0..2usize {
            let wy = if dy == 0 { 1.0 - ty } else { ty };
            for dx in 0..2usize {
                let wx = if dx == 0 { 1.0 - tx } else { tx };
                let w = wx * wy * wz;
                if w <= 0.0 {
                    continue;
                }
                let cx = (x0 + dx).min(gw - 1);
                let cy = (y0 + dy).min(gh - 1);
                let cz = (z0 + dz).min(gz - 1);
                emit((cz * gh + cy) * gw + cx, w);
            }
        }
    }
}

/// Precomputed trilinear tap data along one spatial axis: for each pixel
/// coordinate, the two (clamped) grid cells it splats into / slices from
/// and their linear weights `(c0, c1, w0, w1)`. Exactly the per-pixel
/// computation of [`splat_taps`]/[`BilateralGrid::coords`], hoisted out of
/// the inner loops — the cells and weights depend only on the coordinate.
fn spatial_taps(n: usize, sigma: f32, gmax: usize) -> Vec<(usize, usize, f32, f32)> {
    (0..n)
        .map(|p| {
            let f = p as f32 / sigma;
            let p0 = f.floor() as usize;
            let t = f - p0 as f32;
            (p0.min(gmax - 1), (p0 + 1).min(gmax - 1), 1.0 - t, t)
        })
        .collect()
}

/// Pixels per intensity-tap pass: splat and slice derive a row's
/// intensity taps this many pixels at a time, into stack buffers.
const TAP_CHUNK: usize = 64;

/// Derives the intensity taps of a run of guide pixels in one pass: the
/// lower intensity cell `z0` (unclamped) and the fraction `tz` above it,
/// with the per-pixel expressions of [`splat_taps`] and
/// [`BilateralGrid::coords`]. `fz` is never negative (or is NaN, which
/// both map to cell 0), so truncating it with `as usize` gives the cell
/// `floor()` does, and the pass vectorizes without a libm call per pixel.
fn intensity_taps(guide: &[f32], sigma_range: f32, z0: &mut [usize], tz: &mut [f32]) {
    for ((z0, tz), &g) in z0.iter_mut().zip(tz).zip(guide) {
        let fz = g.clamp(0.0, 1.0) / sigma_range;
        let cell = fz as usize;
        *z0 = cell;
        *tz = fz - cell as f32;
    }
}

/// Reusable buffers of the fused grid blur: the output grid the sweep
/// writes before it is swapped in, the three-slab ring of xy-blurred
/// slabs and the x-pass slab. [`BilateralGrid::blur`] allocates one per
/// call; the bilateral-space solver keeps one per solve.
#[derive(Debug)]
pub(crate) struct BlurScratch {
    dims: (usize, usize, usize),
    next: Vec<f32>,
    ring: Vec<f32>,
    xtmp: Vec<f32>,
}

impl BlurScratch {
    /// Buffers for blurring grids of `dims` `(x, y, intensity)`.
    pub(crate) fn new(dims: (usize, usize, usize)) -> Self {
        let slab = dims.0 * dims.1;
        Self {
            dims,
            next: vec![0.0; slab * dims.2],
            ring: vec![0.0; 3 * slab],
            xtmp: vec![0.0; slab],
        }
    }

    /// One fused x→y→z blur of `data`, which ends up holding the result.
    fn blur_once(&mut self, data: &mut Vec<f32>) {
        blur_xyz_into(
            self.dims,
            data,
            &mut self.next,
            &mut self.ring,
            &mut self.xtmp,
        );
        core::mem::swap(data, &mut self.next);
    }
}

/// One `[1, 2, 1]/4` replicate-border blur of a contiguous row: clamped
/// first/last element around an interior fast path over 3-wide windows.
/// Element-wise identical to the clamped-index formulation in
/// [`blur_axis_into`].
fn blur_row_121(src: &[f32], dst: &mut [f32]) {
    let n = src.len();
    if n == 1 {
        dst[0] = (src[0] + 2.0 * src[0] + src[0]) / 4.0;
        return;
    }
    dst[0] = (src[0] + 2.0 * src[0] + src[1]) / 4.0;
    for (out, win) in dst[1..n - 1].iter_mut().zip(src.windows(3)) {
        *out = (win[0] + 2.0 * win[1] + win[2]) / 4.0;
    }
    dst[n - 1] = (src[n - 2] + 2.0 * src[n - 1] + src[n - 1]) / 4.0;
}

/// Blurs one `nx × ny` grid slab along x then y (`src` → `out`, using
/// `xtmp` as the x-pass intermediate). Each element-wise expression is
/// identical to the corresponding [`blur_axis_into`] axis pass.
fn blur_slab_xy(src: &[f32], xtmp: &mut [f32], out: &mut [f32], nx: usize, ny: usize) {
    for (trow, srow) in xtmp.chunks_mut(nx).zip(src.chunks(nx)) {
        blur_row_121(srow, trow);
    }
    for (y, orow) in out.chunks_mut(nx).enumerate() {
        let ym = y.saturating_sub(1);
        let yp = (y + 1).min(ny - 1);
        let a = &xtmp[ym * nx..ym * nx + nx];
        let b = &xtmp[y * nx..y * nx + nx];
        let c = &xtmp[yp * nx..yp * nx + nx];
        for (((o, &av), &bv), &cv) in orow.iter_mut().zip(a).zip(b).zip(c) {
            *o = (av + 2.0 * bv + cv) / 4.0;
        }
    }
}

/// One fused x→y→z `[1, 2, 1]/4` blur iteration over the whole grid,
/// `src` → `dst`. One sweep over the intensity slabs keeps a rolling ring
/// of the three xy-blurred slabs the z-pass of the current output slab
/// needs, so the grid is materialized once instead of once per axis. The
/// caller owns the ring (three slabs) and the x-pass slab `xtmp`.
///
/// Because every element-wise `(a + 2b + c)/4` expression — x pass, y
/// pass, z pass — is identical to the corresponding [`blur_axis_into`]
/// pass, the result is byte-identical to running the three axis passes
/// over the full grid.
fn blur_xyz_into(
    (nx, ny, nz): (usize, usize, usize),
    src: &[f32],
    dst: &mut [f32],
    ring: &mut [f32],
    xtmp: &mut [f32],
) {
    debug_assert_eq!(src.len(), nx * ny * nz);
    debug_assert_eq!(dst.len(), src.len());
    let slab = nx * ny;
    debug_assert_eq!(ring.len(), 3 * slab);
    debug_assert_eq!(xtmp.len(), slab);
    // Ring slot `z % 3` holds the xy-blurred slab `z`; the z-pass for
    // output slab z reads slabs [z-1, z+1] clamped — at most three
    // consecutive slabs, so slots never collide. The sweep stays one
    // slab ahead of the output.
    blur_slab_xy(&src[..slab], xtmp, &mut ring[..slab], nx, ny);
    for (z, oslab) in dst.chunks_mut(slab).enumerate() {
        let zp = (z + 1).min(nz - 1);
        if zp > z {
            let slot = (zp % 3) * slab;
            blur_slab_xy(
                &src[zp * slab..(zp + 1) * slab],
                xtmp,
                &mut ring[slot..slot + slab],
                nx,
                ny,
            );
        }
        let zm = z.saturating_sub(1) % 3;
        let zc = z % 3;
        let zp = zp % 3;
        let a = &ring[zm * slab..zm * slab + slab];
        let b = &ring[zc * slab..zc * slab + slab];
        let c = &ring[zp * slab..zp * slab + slab];
        for (((o, &av), &bv), &cv) in oslab.iter_mut().zip(a).zip(b).zip(c) {
            *o = (av + 2.0 * bv + cv) / 4.0;
        }
    }
}

/// One `[1, 2, 1]/4` blur pass along `axis` (0=x, 1=y, 2=intensity) with
/// replicated borders, `src` → `dst`, one output row at a time.
fn blur_axis_into((nx, ny, nz): (usize, usize, usize), src: &[f32], dst: &mut [f32], axis: usize) {
    debug_assert_eq!(src.len(), nx * ny * nz);
    debug_assert_eq!(dst.len(), src.len());
    let get = |x: isize, y: isize, z: isize| -> f32 {
        let cx = x.clamp(0, nx as isize - 1) as usize;
        let cy = y.clamp(0, ny as isize - 1) as usize;
        let cz = z.clamp(0, nz as isize - 1) as usize;
        src[(cz * ny + cy) * nx + cx]
    };
    let (dx, dy, dz) = match axis {
        0 => (1, 0, 0),
        1 => (0, 1, 0),
        _ => (0, 0, 1),
    };
    for (row, out_row) in dst.chunks_mut(nx).enumerate() {
        let z = (row / ny) as isize;
        let y = (row % ny) as isize;
        for (x, out) in out_row.iter_mut().enumerate() {
            let x = x as isize;
            *out = (get(x - dx, y - dy, z - dz) + 2.0 * get(x, y, z) + get(x + dx, y + dy, z + dz))
                / 4.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incam_imaging::image::Image;

    fn params() -> GridParams {
        GridParams::new(4.0, 0.1)
    }

    #[test]
    fn splat_weight_partitions_unity() {
        let guide = Image::from_fn(16, 12, |x, y| ((x * 7 + y * 3) % 10) as f32 / 10.0);
        let mut grid = BilateralGrid::new(16, 12, params());
        grid.splat(&guide, &guide, None);
        // each pixel contributes exactly weight 1 across its 8 vertices
        assert!((grid.total_weight() - (16.0 * 12.0)).abs() < 1e-3);
    }

    #[test]
    fn blur_preserves_total_mass() {
        let guide = Image::from_fn(16, 16, |x, _| (x % 5) as f32 / 5.0);
        let mut grid = BilateralGrid::new(16, 16, params());
        grid.splat(&guide, &guide, None);
        let before = grid.total_weight();
        grid.blur(3);
        assert!((grid.total_weight() - before).abs() < before * 1e-5);
    }

    #[test]
    fn constant_image_round_trips() {
        let guide = GrayImage::new(24, 24, 0.5);
        let values = GrayImage::new(24, 24, 0.7);
        let mut grid = BilateralGrid::new(24, 24, params());
        grid.splat(&guide, &values, None);
        grid.blur(2);
        let out = grid.slice(&guide);
        for &p in out.pixels() {
            assert!((p - 0.7).abs() < 1e-4, "got {p}");
        }
    }

    #[test]
    fn grid_smoothing_respects_intensity_edges() {
        // two flat regions with very different intensities; values follow
        // the regions. After grid blur, slicing must not leak across.
        let guide = Image::from_fn(32, 8, |x, _| if x < 16 { 0.1 } else { 0.9 });
        let values = Image::from_fn(32, 8, |x, _| if x < 16 { 0.0 } else { 1.0 });
        let mut grid = BilateralGrid::new(32, 8, GridParams::new(4.0, 0.2));
        grid.splat(&guide, &values, None);
        grid.blur(2);
        let out = grid.slice(&guide);
        // sample well inside each region and right at the edge
        assert!(out.get(4, 4) < 0.1, "left leaked: {}", out.get(4, 4));
        assert!(out.get(28, 4) > 0.9, "right leaked: {}", out.get(28, 4));
        assert!(out.get(14, 4) < 0.25, "edge-left {}", out.get(14, 4));
        assert!(out.get(17, 4) > 0.75, "edge-right {}", out.get(17, 4));
    }

    #[test]
    fn confidence_weights_bias_the_result() {
        let guide = GrayImage::new(16, 16, 0.5);
        let values = Image::from_fn(16, 16, |x, _| if x < 8 { 0.0 } else { 1.0 });
        // only trust the right half
        let conf = Image::from_fn(16, 16, |x, _| if x < 8 { 0.0 } else { 1.0 });
        let mut grid = BilateralGrid::new(16, 16, params());
        grid.splat(&guide, &values, Some(&conf));
        grid.blur(4);
        let out = grid.slice(&guide);
        // everything collapses toward the trusted value 1.0
        assert!(out.mean() > 0.9, "mean {}", out.mean());
    }

    #[test]
    fn coarser_grid_has_fewer_vertices() {
        let fine = BilateralGrid::new(128, 128, GridParams::new(4.0, 0.05));
        let coarse = BilateralGrid::new(128, 128, GridParams::new(16.0, 0.2));
        assert!(fine.vertex_count() > 20 * coarse.vertex_count());
    }

    #[test]
    #[should_panic(expected = "sigma_spatial")]
    fn sub_pixel_cells_rejected() {
        let _ = GridParams::new(0.5, 0.1);
    }

    #[test]
    fn fast_paths_match_references_bitwise() {
        let guide = Image::from_fn(33, 17, |x, y| ((x * 13 + y * 29) % 17) as f32 / 17.0);
        let values = Image::from_fn(33, 17, |x, y| ((x * 5 + y * 11) % 23) as f32 / 23.0);
        let conf = Image::from_fn(33, 17, |x, y| ((x + y) % 4) as f32 / 3.0);
        let p = GridParams::new(3.0, 0.15);
        let mut fast = BilateralGrid::new(33, 17, p);
        let mut refr = BilateralGrid::new(33, 17, p);
        fast.splat(&guide, &values, Some(&conf));
        refr.splat_reference(&guide, &values, Some(&conf));
        assert_eq!(fast, refr, "splat fast path diverged");
        fast.blur(3);
        refr.blur_reference(3);
        assert_eq!(fast, refr, "fused blur diverged");
        let sa = fast.slice(&guide);
        let sb = refr.slice_reference(&guide);
        assert_eq!(sa.pixels(), sb.pixels(), "slice fast path diverged");
    }
}
