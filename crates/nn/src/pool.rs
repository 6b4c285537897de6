//! Pooling layers: max, average and global average pooling.
//!
//! Max and average pooling copy every plane of the batch inside a border
//! (of `-inf` or of zeros) into one store, planes back to back, and scan
//! each tap of the window against the window at every place of all planes
//! in one flat run; `stride` only picks which places are outputs. Every
//! place still sees its taps in `(ky, kx)` order, so the outputs are
//! bit-identical to a loop over windows.
//!
//! Average pooling sums its windows with the depthwise convolution's flat
//! correlation, [`fedrlnas_tensor::correlate_flat`], at unit weights (`1 ·
//! v` is `v`, bit for bit). The max scan is the one scan of its own: it
//! keeps four vectors of places in flight, their running maxima and the
//! flat input index of each (for the backward pass) in registers across
//! the taps. It has one generic body, instantiated on eight-lane vectors
//! under AVX2 and on four-lane ones portably, chosen once per process by
//! [`fedrlnas_tensor::has_avx2`]. The scratch is per thread and grow-only.

use crate::layer::{Layer, Mode};
use fedrlnas_tensor::{correlate_flat, Conv2dGeometry, Tensor};

/// 2-D max pooling over NCHW tensors.
///
/// `max_pool_3x3` is one of the eight DARTS candidate operations; reduction
/// cells use `stride = 2`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    padding: usize,
    // backward cache: flat input index of the max per output element
    argmax: Vec<u32>,
    in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0 && stride > 0);
        MaxPool2d {
            kernel,
            stride,
            padding,
            argmax: Vec::new(),
            in_dims: Vec::new(),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(h, w, self.kernel, self.stride, self.padding, 1)
    }
}

/// Elements a scan may read past the last plane: a vector's lanes past the
/// last window.
const OVERRUN: usize = 16;

/// Most bordered elements a scan covers at once.
const CHUNK: usize = 1024;

/// Marks a window position that no tap has claimed yet in a max scan's
/// `winner`.
const UNCLAIMED: u32 = u32::MAX;

/// How the planes of a batch are laid out for a scan: each `rows x cols`
/// with a border, back to back, `plane` elements apart.
#[derive(Clone, Copy)]
struct Planes {
    count: usize,
    rows: usize,
    cols: usize,
}

impl Planes {
    fn plane(&self) -> usize {
        self.rows * self.cols
    }

    /// The batch's planes in runs of at most [`CHUNK`] elements (one plane
    /// at least), as `(first plane, planes)`: the scratch stays small
    /// whatever the batch.
    fn chunks(&self) -> impl Iterator<Item = (usize, Planes)> {
        let per = (CHUNK / self.plane()).max(1);
        let all = *self;
        (0..all.count).step_by(per).map(move |first| {
            let count = per.min(all.count - first);
            (first, Planes { count, ..all })
        })
    }

    /// Window positions a scan computes: every place of every plane up to
    /// the last plane's last output, rounded up to whole eight-lane vectors
    /// (the widest an instantiation uses).
    fn run(&self, last_row: usize, last_col: usize) -> usize {
        ((self.count - 1) * self.plane() + last_row * self.cols + last_col + 1).next_multiple_of(8)
    }

    /// Sizes `store` for the planes (and the overrun) filled with `border`,
    /// then writes each `h x w` image of `images` at `(origin + y · step,
    /// origin + x · step)` of its plane.
    fn fill(
        &self,
        store: &mut Vec<f32>,
        border: f32,
        images: &[f32],
        (h, w): (usize, usize),
        origin: usize,
        step: usize,
    ) {
        store.clear();
        store.resize(self.count * self.plane() + OVERRUN, border);
        for (dst, image) in store
            .chunks_exact_mut(self.plane())
            .zip(images.chunks_exact(h * w))
        {
            for (y, src) in image.chunks_exact(w).enumerate() {
                let row = &mut dst[(origin + y * step) * self.cols + origin..];
                if step == 1 {
                    row[..w].copy_from_slice(src);
                } else {
                    for (d, &v) in row.iter_mut().step_by(step).zip(src) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// The scratch of the pooling layers, per thread and grow-only, so a
/// steady-state call allocates nothing.
struct Scratch {
    /// The bordered planes.
    planes: Vec<f32>,
    /// Per bordered element, the flat input index it holds (a max scan's
    /// winner).
    index: Vec<u32>,
    /// Per window position: the maximum or sum, and the winner.
    best: Vec<f32>,
    winner: Vec<u32>,
    /// Where tap `t` of a window reads, past the window's place (max
    /// pooling), and with a unit weight (average pooling).
    offsets: Vec<usize>,
    taps: Vec<(usize, f32)>,
    /// What each output of a plane is divided by, and each output's share
    /// of its window's gradient (average pooling).
    divisor: Vec<f32>,
    shares: Vec<f32>,
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            planes: Vec::new(),
            index: Vec::new(),
            best: Vec::new(),
            winner: Vec::new(),
            offsets: Vec::new(),
            taps: Vec::new(),
            divisor: Vec::new(),
            shares: Vec::new(),
        })
    };
}

/// The max scan on `W`-lane vectors, four vectors of positions in flight:
/// every running maximum and winner stays in a register across the taps and
/// is written once. Each position still sees its taps in the order of
/// `offsets`.
mod scan {
    use super::UNCLAIMED;

    /// `best[q]` = the maximum of `vals[q + off]` over `offsets` in order,
    /// `winner[q]` = `index[q + off]` of the tap that set it (`UNCLAIMED`
    /// if none did). A value takes over if it beats the running maximum or
    /// is NaN, so NaN propagates (as in PyTorch) and nothing but a later NaN
    /// beats it. The take is a select on the bits, not a branch: which
    /// neighbour holds the maximum is not something a predictor learns.
    #[inline(always)]
    pub(super) fn max<const W: usize>(
        vals: &[f32],
        index: &[u32],
        offsets: &[usize],
        best: &mut [f32],
        winner: &mut [u32],
    ) {
        let max_off = offsets.iter().copied().max().unwrap_or(0);
        assert!(best.len().is_multiple_of(W) && winner.len() == best.len());
        assert!(best.len() + max_off <= vals.len().min(index.len()));
        let mut q = 0;
        let mut quads = best
            .chunks_exact_mut(4 * W)
            .zip(winner.chunks_exact_mut(4 * W));
        for (b, w) in &mut quads {
            max_block::<W, 4>(vals, index, offsets, q, b, w);
            q += 4 * W;
        }
        let rest = best.len() / (4 * W) * (4 * W);
        let singles = best[rest..]
            .chunks_exact_mut(W)
            .zip(winner[rest..].chunks_exact_mut(W));
        for (b, w) in singles {
            max_block::<W, 1>(vals, index, offsets, q, b, w);
            q += W;
        }
    }

    #[inline(always)]
    fn max_block<const W: usize, const NV: usize>(
        vals: &[f32],
        index: &[u32],
        offsets: &[usize],
        q: usize,
        best: &mut [f32],
        winner: &mut [u32],
    ) {
        let mut b = [[f32::NEG_INFINITY; W]; NV];
        let mut w = [[UNCLAIMED; W]; NV];
        for &off in offsets {
            let v = &vals[q + off..][..NV * W];
            let i = &index[q + off..][..NV * W];
            for (((b, w), v), i) in b
                .iter_mut()
                .zip(&mut w)
                .zip(v.chunks_exact(W))
                .zip(i.chunks_exact(W))
            {
                for (((b, w), &v), &i) in b.iter_mut().zip(w.iter_mut()).zip(v).zip(i) {
                    // all ones if `v` takes over
                    let take = (((v > *b) | v.is_nan()) as u32).wrapping_neg();
                    *b = f32::from_bits((v.to_bits() & take) | (b.to_bits() & !take));
                    *w = (i & take) | (*w & !take);
                }
            }
        }
        for (b, out) in b.iter().zip(best.chunks_exact_mut(W)) {
            out.copy_from_slice(b);
        }
        for (w, out) in w.iter().zip(winner.chunks_exact_mut(W)) {
            out.copy_from_slice(w);
        }
    }

    /// [`max`] as an instantiation: `(vals, index, offsets, best, winner)`.
    pub(super) type MaxScan = unsafe fn(&[f32], &[u32], &[usize], &mut [f32], &mut [u32]);

    /// # Safety
    ///
    /// None beyond the signature's: the pointer type is shared with
    /// [`AVX2`].
    unsafe fn max_portable(v: &[f32], i: &[u32], o: &[usize], b: &mut [f32], w: &mut [u32]) {
        max::<4>(v, i, o, b, w)
    }

    pub(super) const PORTABLE: MaxScan = max_portable;

    /// # Safety
    ///
    /// The CPU supports `avx2`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn max_avx2(v: &[f32], i: &[u32], o: &[usize], b: &mut [f32], w: &mut [u32]) {
        max::<8>(v, i, o, b, w)
    }

    #[cfg(target_arch = "x86_64")]
    pub(super) const AVX2: MaxScan = max_avx2;

    /// The instantiation this CPU runs, by the tensor crate's
    /// once-per-process check.
    pub(super) fn select() -> MaxScan {
        #[cfg(target_arch = "x86_64")]
        {
            if fedrlnas_tensor::has_avx2() {
                return AVX2;
            }
        }
        PORTABLE
    }
}

/// `dst[x] = src[x · stride]`: one output row out of a scan's places.
fn pick<T: Copy>(dst: &mut [T], src: &[T], stride: usize) {
    if stride == 1 {
        dst.copy_from_slice(&src[..dst.len()]);
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = v;
        }
    }
}

/// Runs the max scan instantiation `scan`.
fn max_scan(
    scan: scan::MaxScan,
    vals: &[f32],
    index: &[u32],
    offsets: &[usize],
    best: &mut [f32],
    winner: &mut [u32],
) {
    // SAFETY: `scan` is the portable instantiation or one whose CPU feature
    // `scan::select` checked; the scan checks its own bounds.
    unsafe { scan(vals, index, offsets, best, winner) }
}

impl MaxPool2d {
    fn forward_on(&mut self, scan: scan::MaxScan, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "maxpool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert!(
            x.len() <= UNCLAIMED as usize,
            "maxpool: input too large for u32 indices"
        );
        let geom = self.geometry(h, w);
        let (out_h, out_w) = (geom.out_h, geom.out_w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        // Every plane is copied inside a border of -inf, which no comparison
        // lets win, so a tap needs no bounds test; the planes lie back to
        // back, and each tap is scanned against the window at *every* place
        // of all of them in one flat run (`stride` only picks which places
        // are outputs). Every output still sees its taps in (ky, kx) order.
        let planes = Planes {
            count: n * c,
            rows: h + 2 * pad,
            cols: w + 2 * pad,
        };
        let mut out = vec![0.0f32; n * c * out_h * out_w];
        // Reuse the argmax cache allocation across steps; only Train mode
        // records it (Eval forwards leave the previous cache untouched).
        let track = mode == Mode::Train;
        if track {
            self.argmax.resize(out.len(), 0);
        }
        let (in_plane, out_plane) = (h * w, out_h * out_w);
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.offsets.clear();
            s.offsets
                .extend((0..k * k).map(|t| (t / k) * planes.cols + t % k));
            for (first, chunk) in planes.chunks() {
                let images = &x.as_slice()[first * in_plane..][..chunk.count * in_plane];
                chunk.fill(&mut s.planes, f32::NEG_INFINITY, images, (h, w), pad, 1);
                // Each element's flat input index, for the winner (the
                // border's never wins).
                s.index.clear();
                s.index.resize(s.planes.len(), 0);
                let image_rows = s.index.chunks_exact_mut(chunk.cols).skip(pad);
                for (r, row) in image_rows.take(chunk.count * chunk.rows).enumerate() {
                    let (plane, y) = (r / chunk.rows, r % chunk.rows);
                    if y < h {
                        let at = ((first + plane) * h + y) * w;
                        for (i, d) in row[pad..pad + w].iter_mut().enumerate() {
                            *d = (at + i) as u32;
                        }
                    }
                }
                let run = chunk.run((out_h - 1) * stride, (out_w - 1) * stride);
                s.best.clear();
                s.best.resize(run, 0.0);
                s.winner.clear();
                s.winner.resize(run, 0);
                max_scan(
                    scan,
                    &s.planes,
                    &s.index,
                    &s.offsets,
                    &mut s.best,
                    &mut s.winner,
                );
                let rows =
                    out[first * out_plane..][..chunk.count * out_plane].chunks_exact_mut(out_w);
                for (p, orow) in rows.enumerate() {
                    let (plane, oy) = (p / out_h, p % out_h);
                    let q = plane * chunk.plane() + oy * stride * chunk.cols;
                    pick(orow, &s.best[q..], stride);
                    if track {
                        let arg = &mut self.argmax[(first * out_plane + p * out_w)..][..out_w];
                        pick(arg, &s.winner[q..], stride);
                        // A window nothing claimed (all -inf) keeps the index
                        // 0 it has always reported.
                        for a in arg {
                            *a = if *a == UNCLAIMED { 0 } else { *a };
                        }
                    }
                }
            }
        });
        if track {
            self.in_dims.clear();
            self.in_dims.extend_from_slice(dims);
        }
        Tensor::from_vec(out, &[n, c, out_h, out_w]).expect("one output per window")
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_on(scan::select(), x, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "maxpool backward called before forward or shape mismatch"
        );
        let mut dx = Tensor::zeros(&self.in_dims);
        let dxs = dx.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(&self.argmax) {
            dxs[idx as usize] += g;
        }
        dx
    }

    fn release(&mut self) {
        self.argmax = Vec::new();
        self.in_dims = Vec::new();
    }

    fn cache_bytes(&self) -> usize {
        self.argmax.capacity() * std::mem::size_of::<u32>()
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let geom = self.geometry(input[1], input[2]);
        (input[0] * geom.out_positions() * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[1], input[2]);
        vec![input[0], geom.out_h, geom.out_w]
    }
}

/// 2-D average pooling over NCHW tensors, excluding padded cells from the
/// divisor (PyTorch `count_include_pad=False`, as used by DARTS).
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    padding: usize,
    in_dims: Vec<usize>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0 && stride > 0);
        AvgPool2d {
            kernel,
            stride,
            padding,
            in_dims: Vec::new(),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(h, w, self.kernel, self.stride, self.padding, 1)
    }

    /// Kernel offsets whose input coordinate is in bounds for the window at
    /// output position `o` along one axis of extent `extent`.
    fn axis_range(&self, extent: usize, o: usize) -> std::ops::Range<usize> {
        let start = o * self.stride; // input coord = start + k - padding
        let lo = self.padding.saturating_sub(start);
        let hi = (extent + self.padding)
            .saturating_sub(start)
            .min(self.kernel);
        lo..hi.max(lo)
    }

    /// What each output's window sum is divided by: its in-bounds cells (1
    /// for a window that lies in the padding altogether).
    fn divisors(&self, h: usize, w: usize, geom: &Conv2dGeometry, divisor: &mut Vec<f32>) {
        divisor.clear();
        for oy in 0..geom.out_h {
            let rows = self.axis_range(h, oy).len();
            divisor.extend(
                (0..geom.out_w).map(|ox| (rows * self.axis_range(w, ox).len()).max(1) as f32),
            );
        }
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "avgpool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geom = self.geometry(h, w);
        let (out_h, out_w) = (geom.out_h, geom.out_w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        // As in `MaxPool2d::forward`: the planes inside a border (of zeros —
        // a sum that starts at +0.0 is never -0.0, so adding them changes no
        // bit), each tap added to the window sum at every place in one flat
        // run, taps in (ky, kx) order: the depthwise correlation with unit
        // weights.
        let planes = Planes {
            count: n * c,
            rows: h + 2 * pad,
            cols: w + 2 * pad,
        };
        let mut out = vec![0.0f32; n * c * out_h * out_w];
        let (in_plane, out_plane) = (h * w, out_h * out_w);
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            s.taps.clear();
            s.taps
                .extend((0..k * k).map(|t| ((t / k) * planes.cols + t % k, 1.0)));
            self.divisors(h, w, &geom, &mut s.divisor);
            for (first, chunk) in planes.chunks() {
                let images = &x.as_slice()[first * in_plane..][..chunk.count * in_plane];
                chunk.fill(&mut s.planes, 0.0, images, (h, w), pad, 1);
                let run = chunk.run((out_h - 1) * stride, (out_w - 1) * stride);
                s.best.clear();
                s.best.resize(run, 0.0);
                correlate_flat(&s.planes, &s.taps, &mut s.best);
                let rows =
                    out[first * out_plane..][..chunk.count * out_plane].chunks_exact_mut(out_w);
                for (p, (orow, drow)) in rows.zip(s.divisor.chunks_exact(out_w).cycle()).enumerate()
                {
                    let (plane, oy) = (p / out_h, p % out_h);
                    let q = plane * chunk.plane() + oy * stride * chunk.cols;
                    pick(orow, &s.best[q..], stride);
                    for (o, &d) in orow.iter_mut().zip(drow) {
                        *o /= d;
                    }
                }
            }
        });
        if mode == Mode::Train {
            self.in_dims.clear();
            self.in_dims.extend_from_slice(dims);
        }
        Tensor::from_vec(out, &[n, c, out_h, out_w]).expect("one output per window")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.in_dims.is_empty(),
            "avgpool backward called before forward"
        );
        let (h, w) = (self.in_dims[2], self.in_dims[3]);
        let geom = self.geometry(h, w);
        let (out_h, out_w) = (geom.out_h, geom.out_w);
        let (k, stride, pad) = (self.kernel, self.stride, self.padding);
        // dx[y] = Σ_ky share[(y + pad - ky) / stride]: with each output's
        // share spread `stride` apart from row `lead` of a zeroed plane, tap
        // `ky` of dx row `y` reads row `y + flip - ky`, never negative. An
        // input collects its shares in (oy, ox) order, i.e. taps descending.
        let lead = (k - 1).saturating_sub(pad);
        let flip = pad + lead;
        let extent =
            |input: usize, output: usize| (input + flip).max(lead + (output - 1) * stride + 1);
        let planes = Planes {
            count: grad_out.len() / geom.out_positions(),
            rows: extent(h, out_h),
            cols: extent(w, out_w),
        };
        let (in_plane, out_plane) = (h * w, out_h * out_w);
        let mut dx = vec![0.0f32; planes.count * in_plane];
        SCRATCH.with(|s| {
            let s = &mut *s.borrow_mut();
            self.divisors(h, w, &geom, &mut s.divisor);
            s.taps.clear();
            s.taps.extend(
                (0..k * k)
                    .rev()
                    .map(|t| ((flip - t / k) * planes.cols + flip - t % k, 1.0)),
            );
            for (first, chunk) in planes.chunks() {
                let go = &grad_out.as_slice()[first * out_plane..][..chunk.count * out_plane];
                s.shares.clear();
                s.shares.resize(go.len(), 0.0);
                for (sh, go) in s
                    .shares
                    .chunks_exact_mut(out_plane)
                    .zip(go.chunks_exact(out_plane))
                {
                    for ((sh, g), d) in sh.iter_mut().zip(go).zip(&s.divisor) {
                        *sh = g / d;
                    }
                }
                chunk.fill(&mut s.planes, 0.0, &s.shares, (out_h, out_w), lead, stride);
                let run = chunk.run(h - 1, w - 1);
                s.best.clear();
                s.best.resize(run, 0.0);
                correlate_flat(&s.planes, &s.taps, &mut s.best);
                let rows = dx[first * in_plane..][..chunk.count * in_plane].chunks_exact_mut(w);
                for (p, drow) in rows.enumerate() {
                    let (plane, y) = (p / h, p % h);
                    let q = plane * chunk.plane() + y * chunk.cols;
                    drow.copy_from_slice(&s.best[q..q + w]);
                }
            }
        });
        Tensor::from_vec(dx, &self.in_dims).expect("one gradient per input")
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let geom = self.geometry(input[1], input[2]);
        (input[0] * geom.out_positions() * self.kernel * self.kernel) as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[1], input[2]);
        vec![input[0], geom.out_h, geom.out_w]
    }
}

/// Global average pooling: NCHW → NC, used before the final classifier.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    in_dims: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "global avg pool expects NCHW");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let plane = h * w;
        let mut out = Tensor::zeros(&[n, c]);
        for i in 0..n {
            for ch in 0..c {
                let base = (i * c + ch) * plane;
                out.as_mut_slice()[i * c + ch] =
                    x.as_slice()[base..base + plane].iter().sum::<f32>() / plane as f32;
            }
        }
        if mode == Mode::Train {
            self.in_dims = dims.to_vec();
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.in_dims.is_empty(),
            "global avg pool backward called before forward"
        );
        let (n, c, h, w) = (
            self.in_dims[0],
            self.in_dims[1],
            self.in_dims[2],
            self.in_dims[3],
        );
        let plane = h * w;
        let mut dx = Tensor::zeros(&self.in_dims);
        for i in 0..n {
            for ch in 0..c {
                let g = grad_out.as_slice()[i * c + ch] / plane as f32;
                let base = (i * c + ch) * plane;
                dx.as_mut_slice()[base..base + plane].fill(g);
            }
        }
        dx
    }

    fn flops(&self, input: &[usize]) -> u64 {
        input.iter().product::<usize>() as u64
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn maxpool_known_values() {
        let mut pool = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_release_drops_the_argmax() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = (
            Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng),
            Tensor::randn(&[2, 3, 5, 5], 1.0, &mut rng),
        );
        crate::check_release(MaxPool2d::new(3, 2, 1), &x, &y, |pool| {
            assert_eq!(pool.argmax.capacity(), 0);
            assert!(pool.in_dims.is_empty());
        });
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn avgpool_same_stride1_keeps_shape() {
        let mut pool = AvgPool2d::new(3, 1, 1);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        // with count_include_pad=false, averaging ones gives ones everywhere
        for v in y.as_slice() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn avgpool_grad_check() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut pool = AvgPool2d::new(3, 2, 1);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let err = crate::grad_check_input(&mut pool, &x, 1e-3);
        assert!(err < 1e-2, "avgpool grad error {err}");
    }

    #[test]
    fn global_avg_pool_and_grad() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 3]);
        let err = crate::grad_check_input(&mut pool, &x, 1e-3);
        assert!(err < 1e-2, "gap grad error {err}");
    }

    #[test]
    fn every_scan_instantiation_equals_the_portable_one_bit_for_bit() {
        let mut all = vec![("portable", scan::PORTABLE)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(("avx2", scan::AVX2));
            }
        }
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(3);
        for (n, c, h, w) in [(1, 1, 1, 1), (3, 5, 7, 9), (17, 2, 6, 5), (2, 17, 3, 8)] {
            let mut x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
            for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                match i % 11 {
                    0 => *v = f32::NAN,
                    1 => *v = f32::NEG_INFINITY,
                    2 => *v = 0.25, // ties
                    _ => {}
                }
            }
            for (k, stride, pad) in [(3, 1, 1), (3, 2, 1), (2, 2, 0), (5, 1, 2)] {
                if h.min(w) + 2 * pad < k {
                    continue;
                }
                let mut outs = Vec::new();
                for (_, scan) in &all {
                    let mut max = MaxPool2d::new(k, stride, pad);
                    let y = max.forward_on(*scan, &x, Mode::Train);
                    let dx = max.backward(&Tensor::ones(y.dims()));
                    outs.push([bits(&y), bits(&dx)]);
                }
                for ((name, _), got) in all.iter().zip(&outs).skip(1) {
                    assert!(
                        *got == outs[0],
                        "{name}: k{k} s{stride} p{pad} on {n}x{c}x{h}x{w}"
                    );
                }
            }
        }
    }

    #[test]
    fn strided_output_shapes() {
        let pool = MaxPool2d::new(3, 2, 1);
        assert_eq!(pool.output_shape(&[8, 8, 8]), vec![8, 4, 4]);
        let pool = AvgPool2d::new(3, 2, 1);
        assert_eq!(pool.output_shape(&[8, 7, 7]), vec![8, 4, 4]);
    }
}
