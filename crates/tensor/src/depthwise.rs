//! Direct depthwise convolution: one `k x k` filter per channel, no lowering.
//!
//! Four of the eight DARTS candidate operations (Fig. 1 of the paper) spend
//! nearly all their FLOPs in a depthwise stage. Lowered through
//! [`im2col`](crate::im2col) that stage is a `1 x k² x positions` "GEMM" per
//! (sample, channel) — all copy, no reuse — so it gets kernels of its own.
//!
//! Both passes work on a [`Padded`] copy of one plane at a time: the input
//! with its zero border written out (forward, weight gradient), or the output
//! gradient spread `stride` apart inside a zero border (input gradient). On
//! such a plane every tap of every position is in bounds, and the plane's
//! column order is chosen so that what neighbouring positions (forward,
//! input gradient) or neighbouring taps (weight gradient) read is contiguous
//! whatever the stride and dilation. The loops therefore carry no range
//! logic and run in fixed-width lanes.
//!
//! # Numerics
//!
//! The kernels add the terms the lowering added, in the order the
//! small-problem GEMM ([`gemm_naive`](crate::gemm_naive)) added them, so a
//! depthwise layer's outputs and gradients are bit-identical to the lowered
//! ones whenever `k² · positions` is within that GEMM's range:
//!
//! * every product is a multiply then an add, never a fused multiply-add;
//! * forward: `out = bias`, then taps in `(ky, kx)` order, a tap whose
//!   weight is `0.0` skipped;
//! * input gradient: `dx = 0`, then taps in `(ky, kx)` order, a tap whose
//!   weight is `0.0` skipped;
//! * weight gradient: one running sum per tap per channel over
//!   `(sample, oy, ox)` in lexicographic order, a term whose input is `0.0`
//!   skipped, added to the gradient once after the batch. The sums of
//!   different taps are independent, so they advance together: `k²` chains
//!   in flight instead of one `positions`-long chain at a time;
//! * bias gradient: per (sample, channel) the sequential sum over positions.
//!
//! Where the lowering left a term out (a padded tap of the input gradient, a
//! zero input of the weight gradient) these kernels may add `±0.0` instead.
//! A sum that starts at `+0.0` is never `-0.0`, so that changes no bit.

use crate::conv::Conv2dGeometry;

/// Positions computed per step along a row; one SSE register of `f32`.
const LANES: usize = 4;

/// A zeroed plane of `rows x cols` logical elements holding a smaller image
/// at a fixed place: image element `(y, x)` is logical element
/// `(origin + y · step, origin + x · step)`. Everything [`Padded::load`] does
/// not write stays `0.0`.
///
/// A stored row keeps its columns in `phases` segments: segment `p` holds the
/// columns `c ≡ p (mod phases)` in ascending order, so columns `phases`
/// apart are neighbours in memory.
struct Padded<'a> {
    buf: &'a mut [f32],
    /// Elements per stored row (`phases · segment`).
    width: usize,
    segment: usize,
    phases: usize,
    origin: usize,
    step: usize,
    /// Per segment: the first image column that lands in it, and where.
    deal: Vec<(usize, usize)>,
}

impl<'a> Padded<'a> {
    /// Sizes `store` for the plane plus `overrun` elements a lane may read
    /// past its end, and clears it.
    fn new(
        store: &'a mut Vec<f32>,
        (rows, cols): (usize, usize),
        phases: usize,
        origin: usize,
        step: usize,
        overrun: usize,
    ) -> Self {
        debug_assert!(phases == 1 || step == 1, "load handles one of the two");
        let segment = cols.div_ceil(phases);
        let width = phases * segment;
        // The store may hold another geometry's plane: clear all of it.
        store.clear();
        store.resize(rows * width + overrun, 0.0);
        let deal = (0..phases)
            .map(|p| {
                let x0 = (p + phases - origin % phases) % phases;
                (x0, p * segment + (origin + x0) / phases)
            })
            .collect();
        Padded {
            buf: &mut store[..],
            width,
            segment,
            phases,
            origin,
            step,
            deal,
        }
    }

    /// Where logical column `c` sits in a stored row.
    fn column(&self, c: usize) -> usize {
        (c % self.phases) * self.segment + c / self.phases
    }

    fn load(&mut self, image: &[f32], image_w: usize) {
        let (origin, step, phases) = (self.origin, self.step, self.phases);
        for (y, src) in image.chunks_exact(image_w).enumerate() {
            let row = &mut self.buf[(origin + y * step) * self.width..][..self.width];
            if phases > 1 {
                for &(x0, at) in &self.deal {
                    let mut x = x0;
                    for d in &mut row[at..] {
                        if x >= src.len() {
                            break;
                        }
                        *d = src[x];
                        x += phases;
                    }
                }
            } else if step > 1 {
                for (d, &v) in row[origin..].iter_mut().step_by(step).zip(src) {
                    *d = v;
                }
            } else {
                row[origin..origin + image_w].copy_from_slice(src);
            }
        }
    }
}

/// One channel's `k x k` filter laid over a [`Padded`] plane. Output `(y, x)`
/// has the place `y · row_step + x` in the plane, and tap `ky · k + kx` reads
/// `offsets[ky · k + kx]` elements past that place — so the same tap of
/// neighbouring outputs reads neighbouring elements.
struct Filter<'w> {
    k: usize,
    row_step: usize,
    offsets: Vec<usize>,
    weight: &'w [f32],
    /// The non-zero taps in `(ky, kx)` order as `(offset, weight)`.
    taps: Vec<(usize, f32)>,
}

impl<'w> Filter<'w> {
    fn new(k: usize, row_step: usize, offset_of: impl Fn(usize, usize) -> usize) -> Self {
        Filter {
            k,
            row_step,
            offsets: (0..k * k).map(|t| offset_of(t / k, t % k)).collect(),
            weight: &[],
            taps: Vec::with_capacity(k * k),
        }
    }

    fn set_weight(&mut self, weight: &'w [f32]) {
        self.weight = weight;
        self.taps.clear();
        for (&off, &w) in self.offsets.iter().zip(weight) {
            if w != 0.0 {
                self.taps.push((off, w));
            }
        }
    }

    /// `dst[y, x] = init + Σ_taps w · src[place(y, x) + offset]`, the non-zero
    /// taps added in `(ky, kx)` order, [`LANES`] positions of a row at a
    /// time. A short last chunk of a row still computes every lane (the
    /// plane's overrun keeps the reads in bounds) and stores what it needs.
    fn correlate(&self, src: &Padded, init: f32, dst: &mut [f32], dst_w: usize) {
        match (self.k, self.taps.len() == self.k * self.k) {
            (3, true) => self.correlate_unrolled::<3>(src, init, dst, dst_w),
            (5, true) => self.correlate_unrolled::<5>(src, init, dst, dst_w),
            _ => self.correlate_listed(src, init, dst, dst_w),
        }
    }

    /// Any subset of taps of any kernel: walks the tap list.
    fn correlate_listed(&self, src: &Padded, init: f32, dst: &mut [f32], dst_w: usize) {
        for (y, drow) in dst.chunks_exact_mut(dst_w).enumerate() {
            let row = &src.buf[y * self.row_step..];
            for (c, chunk) in drow.chunks_mut(LANES).enumerate() {
                let mut acc = [init; LANES];
                for &(off, w) in &self.taps {
                    let first = c * LANES + off;
                    for (a, v) in acc.iter_mut().zip(&row[first..first + LANES]) {
                        *a += w * v;
                    }
                }
                chunk.copy_from_slice(&acc[..chunk.len()]);
            }
        }
    }

    /// All `K x K` taps: the tap loops unroll and nothing but the arithmetic
    /// is left in them.
    fn correlate_unrolled<const K: usize>(
        &self,
        src: &Padded,
        init: f32,
        dst: &mut [f32],
        dst_w: usize,
    ) {
        let weight: &[f32] = &self.weight[..K * K];
        let offsets: &[usize] = &self.offsets[..K * K];
        let max_offset = offsets.iter().copied().max().unwrap_or(0);
        // The last lane of the last chunk of the last row, before any offset.
        let last_lane = (dst.len() / dst_w - 1) * self.row_step + dst_w.next_multiple_of(LANES) - 1;
        assert!(
            last_lane + max_offset < src.buf.len(),
            "depthwise: padded plane too small for the filter"
        );
        let lanes_at = |at: usize| {
            let mut acc = [init; LANES];
            for (&off, &w) in offsets.iter().zip(weight) {
                // SAFETY: every caller's `at + LANES - 1 <= last_lane` (row
                // and chunk are at most the last ones) and `off <=
                // max_offset`, so the assert above puts `at + off + LANES - 1`
                // inside `src.buf`.
                let lanes = unsafe { src.buf.get_unchecked(at + off..at + off + LANES) };
                for (a, v) in acc.iter_mut().zip(lanes) {
                    *a += w * v;
                }
            }
            acc
        };
        for (y, drow) in dst.chunks_exact_mut(dst_w).enumerate() {
            let mut at = y * self.row_step;
            let mut chunks = drow.chunks_exact_mut(LANES);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&lanes_at(at));
                at += LANES;
            }
            let rest = chunks.into_remainder();
            if !rest.is_empty() {
                rest.copy_from_slice(&lanes_at(at)[..rest.len()]);
            }
        }
    }
}

/// The running weight-gradient sums of one channel. For the DARTS kernels
/// each kernel row is a fixed array of `L >= K` lanes that stays in registers
/// across a plane (lanes past `K` sum garbage nobody reads); any other kernel
/// keeps a flat `k x k` in memory.
enum TapSums {
    K3([[f32; 4]; 3]),
    K5([[f32; 8]; 5]),
    Any(Vec<f32>),
}

impl TapSums {
    /// Most lanes a variant reads from a tap row's first element on.
    const MAX_LANES: usize = 8;

    fn new(k: usize) -> Self {
        match k {
            3 => TapSums::K3([[0.0; 4]; 3]),
            5 => TapSums::K5([[0.0; 8]; 5]),
            _ => TapSums::Any(vec![0.0; k * k]),
        }
    }

    /// Advances every sum over one plane's output positions in `(oy, ox)`
    /// order — `sum[ky][kx] += x · go`, a term whose `x` is `0.0` left out —
    /// and returns the sequential sum of `go` (the plane's bias gradient).
    ///
    /// `x` is the padded input with `dilation` phases, so the `k` taps of a
    /// kernel row are neighbours; `starts[ox]` is where output column `ox`
    /// finds the first of them. `go_finite` says no `go` is infinite or NaN:
    /// then a zero `x` contributes `±0.0`, which changes no sum, and the test
    /// for it can go.
    fn advance(
        &mut self,
        x: &Padded,
        geom: &Conv2dGeometry,
        starts: &[usize],
        go: &[f32],
        go_finite: bool,
    ) -> f32 {
        match (self, go_finite) {
            (TapSums::K3(s), true) => tap_sums::<3, 4, false>(x, geom, starts, go, s),
            (TapSums::K3(s), false) => tap_sums::<3, 4, true>(x, geom, starts, go, s),
            (TapSums::K5(s), true) => tap_sums::<5, 8, false>(x, geom, starts, go, s),
            (TapSums::K5(s), false) => tap_sums::<5, 8, true>(x, geom, starts, go, s),
            (TapSums::Any(sums), _) => {
                let k = geom.kernel;
                let mut total = -0.0f32;
                for (oy, go_row) in go.chunks_exact(geom.out_w).enumerate() {
                    let rows = &x.buf[oy * geom.stride * x.width..];
                    for (&at, &g) in starts.iter().zip(go_row) {
                        total += g;
                        for (t, s) in sums.iter_mut().enumerate() {
                            let v = rows[at + (t / k) * geom.dilation * x.width + t % k];
                            if v != 0.0 {
                                *s += v * g;
                            }
                        }
                    }
                }
                total
            }
        }
    }

    /// Adds the sums to `dweight` (`k x k`, row-major) and clears them.
    fn drain_into(&mut self, dweight: &mut [f32]) {
        fn drain<const K: usize, const L: usize>(sums: &mut [[f32; L]; K], dweight: &mut [f32]) {
            for (row, dw_row) in sums.iter().zip(dweight.chunks_exact_mut(K)) {
                for (dw, s) in dw_row.iter_mut().zip(row) {
                    *dw += s;
                }
            }
            *sums = [[0.0; L]; K];
        }
        match self {
            TapSums::K3(s) => drain(s, dweight),
            TapSums::K5(s) => drain(s, dweight),
            TapSums::Any(sums) => {
                for (dw, s) in dweight.iter_mut().zip(sums.iter_mut()) {
                    *dw += *s;
                    *s = 0.0;
                }
            }
        }
    }
}

/// [`TapSums::advance`] for `K` kernel rows of `L` lanes; `SKIP_ZERO` keeps
/// the test for a zero input.
fn tap_sums<const K: usize, const L: usize, const SKIP_ZERO: bool>(
    x: &Padded,
    geom: &Conv2dGeometry,
    starts: &[usize],
    go: &[f32],
    sums: &mut [[f32; L]; K],
) -> f32 {
    let (tap_row_step, out_row_step) = (geom.dilation * x.width, geom.stride * x.width);
    let mut acc = *sums;
    // `Iterator::sum` of `f32` starts from -0.0 too.
    let mut total = -0.0f32;
    for (oy, go_row) in go.chunks_exact(geom.out_w).enumerate() {
        let rows = &x.buf[oy * out_row_step..];
        for (&at, &g) in starts.iter().zip(go_row) {
            total += g;
            for (ky, sums_row) in acc.iter_mut().enumerate() {
                let lanes: &[f32; L] = rows[at + ky * tap_row_step..][..L]
                    .try_into()
                    .expect("slice of L");
                for (s, &v) in sums_row.iter_mut().zip(lanes) {
                    *s += if SKIP_ZERO && v == 0.0 { 0.0 } else { v * g };
                }
            }
        }
    }
    *sums = acc;
    total
}

std::thread_local! {
    /// Per-thread backing stores of the two [`Padded`] planes, grow-only, so
    /// steady-state training does not allocate for them.
    static PLANES: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Checks the slice lengths shared by both passes and returns the number of
/// samples.
fn batch_size(
    what: &str,
    x_len: usize,
    out_len: usize,
    channels: usize,
    geom: &Conv2dGeometry,
    weight: &[f32],
) -> usize {
    let image = channels * geom.in_h * geom.in_w;
    assert!(channels > 0, "{what}: no channels");
    assert_eq!(
        x_len % image,
        0,
        "{what}: input is not a whole number of images"
    );
    let n = x_len / image;
    assert_eq!(
        out_len,
        n * channels * geom.out_positions(),
        "{what}: output length does not match the input's"
    );
    assert_eq!(
        weight.len(),
        channels * geom.kernel * geom.kernel,
        "{what}: weight length"
    );
    n
}

/// The input inside its zero border — every tap of every output position is
/// an element of this plane — with its columns in `phases` segments.
fn padded_input<'a>(store: &'a mut Vec<f32>, geom: &Conv2dGeometry, phases: usize) -> Padded<'a> {
    let pad = geom.padding;
    Padded::new(
        store,
        (geom.in_h + 2 * pad, geom.in_w + 2 * pad),
        phases,
        pad,
        1,
        LANES.max(TapSums::MAX_LANES),
    )
}

/// Depthwise forward over an NCHW batch: `out[i, c] = bias[c] + x[i, c] ⋆
/// weight[c]`, with `weight` laid out `[channels, k * k]`.
///
/// `out` is overwritten. See the [module docs](self) for the summation order.
///
/// # Panics
///
/// Panics if a slice length disagrees with `channels` and `geom`.
pub fn depthwise_forward(
    x: &[f32],
    channels: usize,
    geom: &Conv2dGeometry,
    weight: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let n = batch_size(
        "depthwise_forward",
        x.len(),
        out.len(),
        channels,
        geom,
        weight,
    );
    assert_eq!(bias.len(), channels, "depthwise_forward: bias length");
    let (in_plane, positions) = (geom.in_h * geom.in_w, geom.out_positions());
    let (kk, d) = (geom.kernel * geom.kernel, geom.dilation);
    PLANES.with(|stores| {
        let stores = &mut *stores.borrow_mut();
        // Output x reads column `x · stride + kx · d`: with `stride` phases
        // that is `x` elements past where column `kx · d` sits.
        let mut xp = padded_input(&mut stores.0, geom, geom.stride);
        let mut filter = Filter::new(geom.kernel, geom.stride * xp.width, |ky, kx| {
            ky * d * xp.width + xp.column(kx * d)
        });
        for ch in 0..channels {
            filter.set_weight(&weight[ch * kk..(ch + 1) * kk]);
            for plane in (ch..n * channels).step_by(channels) {
                xp.load(&x[plane * in_plane..(plane + 1) * in_plane], geom.in_w);
                filter.correlate(
                    &xp,
                    bias[ch],
                    &mut out[plane * positions..(plane + 1) * positions],
                    geom.out_w,
                );
            }
        }
    });
}

/// Depthwise backward over an NCHW batch. Given the forward input `x` and
/// the output gradient `grad_out`, **accumulates** the weight gradient into
/// `dweight` (`[channels, k * k]`) and the bias gradient into `dbias`, and
/// **overwrites** `dx` with the input gradient.
///
/// See the [module docs](self) for the summation order.
///
/// # Panics
///
/// Panics if a slice length disagrees with `channels` and `geom`.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_backward(
    x: &[f32],
    channels: usize,
    geom: &Conv2dGeometry,
    weight: &[f32],
    grad_out: &[f32],
    dweight: &mut [f32],
    dbias: &mut [f32],
    dx: &mut [f32],
) {
    let n = batch_size(
        "depthwise_backward",
        x.len(),
        grad_out.len(),
        channels,
        geom,
        weight,
    );
    assert_eq!(dx.len(), x.len(), "depthwise_backward: dx length");
    assert_eq!(
        dweight.len(),
        weight.len(),
        "depthwise_backward: dweight length"
    );
    assert_eq!(dbias.len(), channels, "depthwise_backward: dbias length");
    let (in_plane, positions) = (geom.in_h * geom.in_w, geom.out_positions());
    let (k, kk, d) = (geom.kernel, geom.kernel * geom.kernel, geom.dilation);
    // dx[y] = Σ_ky w[ky] · go[(y + padding - ky · d) / stride]: with `go`
    // spread `stride` apart from row `lead` of a zeroed plane, tap `ky` of
    // dx row `y` reads row `y + flip - ky · d`, never negative.
    let lead = ((k - 1) * d).saturating_sub(geom.padding);
    let flip = geom.padding + lead;
    // Rows dx reads, or rows `go` fills when `padding > (k - 1) · d` gives
    // outputs that see no input at all.
    let extent =
        |input: usize, output: usize| (input + flip).max(lead + (output - 1) * geom.stride + 1);
    let go_finite = !grad_out.iter().fold(false, |bad, g| bad | !g.is_finite());
    PLANES.with(|stores| {
        let stores = &mut *stores.borrow_mut();
        let mut xp = padded_input(&mut stores.0, geom, d);
        let starts: Vec<usize> = (0..geom.out_w)
            .map(|ox| xp.column(ox * geom.stride))
            .collect();
        let mut sums = TapSums::new(k);
        let mut gp = Padded::new(
            &mut stores.1,
            (extent(geom.in_h, geom.out_h), extent(geom.in_w, geom.out_w)),
            1,
            lead,
            geom.stride,
            LANES,
        );
        let mut filter = Filter::new(k, gp.width, |ky, kx| {
            (flip - ky * d) * gp.width + flip - kx * d
        });
        for ch in 0..channels {
            filter.set_weight(&weight[ch * kk..(ch + 1) * kk]);
            // The tap sums run over the whole batch before they touch the
            // gradient, hence channel by channel.
            for plane in (ch..n * channels).step_by(channels) {
                let go = &grad_out[plane * positions..(plane + 1) * positions];
                xp.load(&x[plane * in_plane..(plane + 1) * in_plane], geom.in_w);
                dbias[ch] += sums.advance(&xp, geom, &starts, go, go_finite);
                gp.load(go, geom.out_w);
                filter.correlate(
                    &gp,
                    0.0,
                    &mut dx[plane * in_plane..(plane + 1) * in_plane],
                    geom.in_w,
                );
            }
            sums.drain_into(&mut dweight[ch * kk..(ch + 1) * kk]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_phases_keep_every_element_and_put_strided_columns_side_by_side() {
        // 2 x 5 image at origin 3 of a 5 x 9 plane, three phases.
        let image: Vec<f32> = (1..=10).map(|v| v as f32).collect();
        let mut store = Vec::new();
        let mut p = Padded::new(&mut store, (5, 9), 3, 3, 1, 2);
        p.load(&image, 5);
        assert_eq!(p.width, 9);
        for y in 0..2 {
            for x in 0..5 {
                let at = (3 + y) * p.width + p.column(3 + x);
                assert_eq!(p.buf[at], image[y * 5 + x]);
            }
        }
        assert_eq!(p.buf.iter().filter(|v| **v != 0.0).count(), 10);
        // columns 3 apart are neighbours
        assert_eq!(p.column(3 + 3), p.column(3) + 1);
    }

    #[test]
    fn padded_step_spreads_the_image() {
        let image = [1.0, 2.0, 3.0, 4.0];
        let mut store = vec![9.0; 3]; // stale contents must not survive
        let mut p = Padded::new(&mut store, (4, 4), 1, 1, 2, 0);
        p.load(&image, 2);
        #[rustfmt::skip]
        assert_eq!(p.buf, [
            0.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 0.0, 2.0,
            0.0, 0.0, 0.0, 0.0,
            0.0, 3.0, 0.0, 4.0,
        ]);
    }

    #[test]
    fn known_values_3x3_same_padding() {
        // One channel, all-ones 3x3 filter, bias 0.5: each output is 0.5
        // plus the sum of its in-bounds neighbourhood.
        let g = Conv2dGeometry::new(3, 3, 3, 1, 1, 1);
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut out = vec![f32::NAN; 9];
        depthwise_forward(&x, 1, &g, &[1.0; 9], &[0.5], &mut out);
        assert_eq!(out, [12.5, 21.5, 16.5, 27.5, 45.5, 33.5, 24.5, 39.5, 28.5]);
        // grad_out of ones: dW[ky][kx] sums the inputs that tap saw, db
        // counts positions, dx counts the outputs that saw each input.
        let (mut dw, mut db, mut dx) = (vec![0.0; 9], vec![0.0], vec![f32::NAN; 9]);
        depthwise_backward(&x, 1, &g, &[1.0; 9], &[1.0; 9], &mut dw, &mut db, &mut dx);
        assert_eq!(dw, [12.0, 21.0, 16.0, 27.0, 45.0, 33.0, 24.0, 39.0, 28.0]);
        assert_eq!(db, [9.0]);
        assert_eq!(dx, [4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn channels_do_not_mix() {
        let g = Conv2dGeometry::new(2, 2, 1, 1, 0, 1);
        let x = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let mut out = [0.0; 8];
        depthwise_forward(&x, 2, &g, &[2.0, -1.0], &[0.0, 1.0], &mut out);
        assert_eq!(out, [2.0, 4.0, 6.0, 8.0, -9.0, -19.0, -29.0, -39.0]);
    }

    #[test]
    #[should_panic(expected = "depthwise_forward: output length")]
    fn forward_rejects_a_wrong_output_length() {
        let g = Conv2dGeometry::new(4, 4, 3, 1, 1, 1);
        depthwise_forward(&[0.0; 32], 2, &g, &[0.0; 18], &[0.0; 2], &mut [0.0; 31]);
    }

    #[test]
    #[should_panic(expected = "depthwise_backward: weight length")]
    fn backward_rejects_a_wrong_weight_length() {
        let g = Conv2dGeometry::new(4, 4, 3, 1, 1, 1);
        let (mut dw, mut db, mut dx) = ([0.0; 17], [0.0; 2], [0.0; 32]);
        depthwise_backward(
            &[0.0; 32], 2, &g, &[0.0; 17], &[0.0; 32], &mut dw, &mut db, &mut dx,
        );
    }
}
