//! Direct window kernels: depthwise convolution (one `k x k` filter per
//! channel, no lowering) and the pooling windows, on one machinery.
//!
//! Four of the eight DARTS candidate operations (Fig. 1 of the paper) spend
//! nearly all their FLOPs in a depthwise stage. Lowered through
//! [`im2col`](crate::im2col) that stage is a `1 x k² x positions` "GEMM" per
//! (sample, channel) — all copy, no reuse — so it gets kernels of its own.
//! Two more are 3x3 pooling. Average pooling is the depthwise forward at
//! unit weights and zero bias, and its backward is the input gradient at
//! unit weights ([`window_sum_backward`]); max pooling is the forward with a
//! maximum in place of the sum ([`window_max`]).
//!
//! Every pass works on a [`Padded`] copy of one channel's planes across the
//! batch: the input inside a border — of zeros, or of `-inf` for the maximum,
//! which no comparison lets win — (forward, maximum, weight gradient), or the
//! output gradient spread `stride` apart inside a zero border (input
//! gradient). On such a plane every tap of every position is in bounds, so
//! the loops carry no range logic. A plane may be stored in phases —
//! sub-planes of the rows and columns `≡ p (mod phases)` — chosen so that
//! what the loops read side by side is contiguous whatever the stride and
//! dilation.
//!
//! # Chains and lanes
//!
//! Every output element and every weight-gradient sum is one chain of
//! dependent adds (or compares). The kernels keep several independent chains
//! in flight at once, so no chain waits out the latency alone:
//!
//! * **forward, maximum and input gradient** — each tap is run across the
//!   whole padded plane as one flat run: output `(y, x)` sits at `y · row +
//!   x`, tap `(ky, kx)` reads a fixed offset past it, so neighbouring outputs
//!   read neighbouring elements. Up to four vectors of outputs advance
//!   together through the taps; the positions of the run that are not
//!   outputs (the border columns between rows) are computed and thrown away.
//!   At stride 2 the input is stored in two row and two column phases, which
//!   packs the outputs of a row side by side with nothing between them. The
//!   maximum keeps, per lane, the running maximum and the number of the tap
//!   that set it; the flat input index is derived from the output's place
//!   and that tap afterwards;
//! * **weight gradient** — a channel's `k²` tap sums are packed into vectors,
//!   a kernel row's taps side by side (the input is stored in `dilation`
//!   column phases for that), two kernel rows to an eight-lane vector at `k =
//!   3`; and several channels' sums advance together over the batch, each
//!   channel reading its own plane of the same sample.
//!
//! One generic body per pass is instantiated per instruction set — eight-lane
//! vectors under AVX2, four-lane ones portably — and the instantiation is
//! chosen once per process by [`has_avx2`](crate::has_avx2). The bodies are
//! written in plain arrays; the compiler maps a lane to a vector lane and
//! moves no bit between lanes.
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
//!   weight is `0.0` skipped; at unit weights ([`window_sum_backward`]) in
//!   descending order, which adds the windows that hold an input in `(oy,
//!   ox)` order;
//! * weight gradient: one running sum per tap per channel over
//!   `(sample, oy, ox)` in lexicographic order, a term whose input is `0.0`
//!   skipped, added to the gradient once after the batch;
//! * bias gradient: per (sample, channel) the sequential sum over positions;
//! * maximum: `-inf`, then taps in `(ky, kx)` order, a value taking over if
//!   it beats the running maximum or is NaN, so the first of equal maxima
//!   wins and NaN propagates (as in PyTorch). A window nothing took over
//!   (all `-inf`, or all border) reports input index 0.
//!
//! Where the lowering left a term out (a padded tap of the input gradient, a
//! zero input of the weight gradient) these kernels may add `±0.0` instead.
//! A sum that starts at `+0.0` is never `-0.0`, so that changes no bit. The
//! zero test of the weight gradient is therefore made only when the output
//! gradient holds an infinity or a NaN, where `0 · inf` would be visible.

use crate::conv::Conv2dGeometry;

/// Elements a kernel may read past a plane's end: the lanes of a vector past
/// the last output, or of a tap row past the kernel's last tap.
const OVERRUN: usize = 16;

/// The winner of a window no tap has taken over yet.
const UNCLAIMED: u32 = u32::MAX;

/// A store of `count` planes of `rows x cols` logical elements, each holding
/// a smaller image at a fixed place: image element `(y, x)` is logical
/// element `(origin + y · step, origin + x · step)`. Everything
/// [`Padded::load`] does not write holds the border value.
///
/// A plane is kept in `phases = (row phases, column phases)` sub-planes:
/// sub-plane `(pr, pc)` holds the logical elements `(r, c)` with `r ≡ pr` and
/// `c ≡ pc`, row-major, so rows and columns `phases` apart are neighbours in
/// memory.
struct Padded<'a> {
    buf: &'a mut [f32],
    /// Stored elements per row of a sub-plane.
    seg: usize,
    /// Stored elements per sub-plane.
    sub: usize,
    /// Stored elements per plane.
    plane: usize,
    phases: (usize, usize),
    origin: usize,
    step: usize,
}

impl<'a> Padded<'a> {
    /// Sizes `store` for the planes plus [`OVERRUN`] and fills it with
    /// `border`.
    fn new(
        store: &'a mut Vec<f32>,
        count: usize,
        (rows, cols): (usize, usize),
        phases: (usize, usize),
        origin: usize,
        step: usize,
        border: f32,
    ) -> Self {
        debug_assert!(phases.1 == 1 || step == 1, "load handles one of the two");
        let seg = cols.div_ceil(phases.1);
        let sub = rows.div_ceil(phases.0) * seg;
        let plane = phases.0 * phases.1 * sub;
        // The store may hold another geometry's planes: refill all of it.
        store.clear();
        store.resize(count * plane + OVERRUN, border);
        Padded {
            buf: &mut store[..],
            seg,
            sub,
            plane,
            phases,
            origin,
            step,
        }
    }

    /// Where logical element `(r, c)` of the first plane is stored.
    fn at(&self, r: usize, c: usize) -> usize {
        /// `(a / b, a % b)` without a divide for the usual one or two
        /// phases: `load` asks once per image row, and with a divide there
        /// `bench_kernels`' `small` forward rows ran ~14 % slower.
        fn div_rem(a: usize, b: usize) -> (usize, usize) {
            match b {
                1 => (a, 0),
                2 => (a >> 1, a & 1),
                _ => (a / b, a % b),
            }
        }
        let ((rq, rr), (cq, cr)) = (div_rem(r, self.phases.0), div_rem(c, self.phases.1));
        (rr * self.phases.1 + cr) * self.sub + rq * self.seg + cq
    }

    /// Writes the `h x w` `image` into plane `index`.
    #[inline(always)]
    fn load(&mut self, index: usize, image: &[f32], (h, w): (usize, usize)) {
        let (origin, step, cp) = (self.origin, self.step, self.phases.1);
        let base = index * self.plane;
        for (y, src) in image[..h * w].chunks_exact(w).enumerate() {
            let r = origin + y * step;
            if cp == 1 && step == 1 {
                let at = base + self.at(r, origin);
                copy_row(&mut self.buf[at..at + w], src);
                continue;
            }
            if cp == 2 && step == 1 {
                // Stride 2: image columns 0, 2, … and 1, 3, … pairwise. With
                // the general loop below the stride-2 forward on the `small`
                // stages' maps ran 1.5–1.9x slower.
                let (a, b) = (base + self.at(r, origin), base + self.at(r, origin + 1));
                for (j, pair) in src.chunks_exact(2).enumerate() {
                    self.buf[a + j] = pair[0];
                    self.buf[b + j] = pair[1];
                }
                if w % 2 == 1 {
                    self.buf[a + w / 2] = src[w - 1];
                }
                continue;
            }
            // One run per column phase: its image columns are `cp` apart and
            // its stored elements `step` apart.
            for x0 in 0..cp.min(w) {
                let mut at = base + self.at(r, origin + x0 * step);
                let mut x = x0;
                while x < w {
                    self.buf[at] = src[x];
                    at += step;
                    x += cp;
                }
            }
        }
    }
}

/// The scratch of every pass, per thread and grow-only, so a steady-state
/// call allocates nothing.
struct Scratch {
    /// The padded input planes.
    x: Vec<f32>,
    /// The padded output gradient planes.
    go: Vec<f32>,
    /// Flat runs of outputs, one per plane, for rows narrower than a vector.
    run: Vec<f32>,
    /// The winning taps of the maximum's runs.
    wins: Vec<u32>,
    /// Where each vector of a plane's outputs is computed from and stored.
    vectors: Vec<(usize, usize)>,
    /// Where each tap reads, past the position it serves, `(ky, kx)` order.
    offsets: Vec<usize>,
    /// The non-zero taps of one filter as `(offset, weight)`.
    taps: Vec<(usize, f32)>,
    /// Where output column `ox` finds its first tap, for the weight gradient.
    starts: Vec<usize>,
    /// One channel's tap sums for a kernel without an unrolled body.
    sums: Vec<f32>,
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            x: Vec::new(),
            go: Vec::new(),
            run: Vec::new(),
            wins: Vec::new(),
            vectors: Vec::new(),
            offsets: Vec::new(),
            taps: Vec::new(),
            starts: Vec::new(),
            sums: Vec::new(),
        })
    };
}

/// Rebuilds `taps` from `offsets` and one filter's weights (unit weights for
/// `None`): the taps whose weight is not `0.0`, in `(ky, kx)` order or, if
/// `descending`, in the reverse.
fn set_taps(
    taps: &mut Vec<(usize, f32)>,
    offsets: &[usize],
    weight: Option<&[f32]>,
    descending: bool,
) {
    taps.clear();
    let all = offsets
        .iter()
        .enumerate()
        .map(|(t, &off)| (off, weight.map_or(1.0, |w| w[t])));
    taps.extend(all.filter(|&(_, w)| w != 0.0));
    if descending {
        taps.reverse();
    }
}

/// Where each `W`-lane vector of the `out_h x out_w` outputs of `count`
/// planes is computed from (its first output's place in padded planes
/// `plane` elements apart, whose output rows are `row` apart) and stored to.
///
/// Rows at least a vector wide are stored straight into output planes
/// `stride` elements apart, the last vector of a row overlapping the one
/// before it (it stores the same values again); returns `None`. Narrower
/// rows are computed as one flat run per plane, border columns included,
/// into a scratch of runs `Some(run)` elements apart that [`pick_rows`]
/// copies the outputs out of.
fn plan_vectors<const W: usize>(
    vectors: &mut Vec<(usize, usize)>,
    (count, plane, row): (usize, usize, usize),
    (out_h, out_w): (usize, usize),
    stride: usize,
) -> Option<usize> {
    vectors.clear();
    if out_w >= W {
        for j in 0..count {
            for y in 0..out_h {
                let xs = (0..out_w - W).step_by(W).chain([out_w - W]);
                vectors.extend(xs.map(|x| (j * plane + y * row + x, j * stride + y * out_w + x)));
            }
        }
        None
    } else {
        let run = ((out_h - 1) * row + out_w).next_multiple_of(W);
        for j in 0..count {
            vectors.extend((0..run).step_by(W).map(|q| (j * plane + q, j * run + q)));
        }
        Some(run)
    }
}

/// For every `(from, to)` of `vectors` and lane `l < W`, folds
/// `src[from + l + off]` over `taps` in order into `dst[to + l]`: `init +
/// Σ w · src`, or with `MAX` the maximum (from `init`) and, in `wins[to +
/// l]` unless `wins` is empty, the number in `taps` of the tap that set it
/// ([`UNCLAIMED`] if none did). Four vectors in flight, then two, then one.
#[inline(always)]
fn correlate<const W: usize, const MAX: bool>(
    src: &[f32],
    taps: &[(usize, f32)],
    init: f32,
    vectors: &[(usize, usize)],
    dst: &mut [f32],
    wins: &mut [u32],
) {
    let max_off = taps.iter().map(|&(off, _)| off).max().unwrap_or(0);
    let (max_from, max_to) = vectors
        .iter()
        .fold((0, 0), |(f, t), &(from, to)| (f.max(from), t.max(to)));
    assert!(
        max_from + max_off + W <= src.len()
            && max_to + W <= dst.len()
            && (!MAX || wins.is_empty() || max_to + W <= wins.len()),
        "depthwise: padded plane too small for the filter"
    );
    let mut quads = vectors.chunks_exact(4);
    for at in &mut quads {
        // SAFETY: the assert above bounds every read and write.
        unsafe { correlate_block::<W, 4, MAX>(src, taps, init, at, dst, wins) };
    }
    let rest = quads.remainder();
    let (two, one) = rest.split_at(rest.len() / 2 * 2);
    if !two.is_empty() {
        // SAFETY: as above.
        unsafe { correlate_block::<W, 2, MAX>(src, taps, init, two, dst, wins) };
    }
    if !one.is_empty() {
        // SAFETY: as above.
        unsafe { correlate_block::<W, 1, MAX>(src, taps, init, one, dst, wins) };
    }
}

/// [`correlate`] for `NV` vectors: every chain (and winner) stays in a
/// register across the taps, and one tap advances all `NV · W` of them.
///
/// # Safety
///
/// `at` holds `NV` vectors, each `from + off + W <= src.len()` for every
/// tap and `to + W <= dst.len()`, and with `MAX` `to + W <= wins.len()`
/// unless `wins` is empty.
#[inline(always)]
unsafe fn correlate_block<const W: usize, const NV: usize, const MAX: bool>(
    src: &[f32],
    taps: &[(usize, f32)],
    init: f32,
    at: &[(usize, usize)],
    dst: &mut [f32],
    wins: &mut [u32],
) {
    let from: [usize; NV] = std::array::from_fn(|v| at[v].0);
    let mut acc = [[init; W]; NV];
    let mut win = [[UNCLAIMED; W]; NV];
    for (t, &(off, w)) in taps.iter().enumerate() {
        for ((chains, win), &from) in acc.iter_mut().zip(&mut win).zip(&from) {
            let vals = src.get_unchecked(from + off..from + off + W);
            for ((a, b), &v) in chains.iter_mut().zip(win).zip(vals) {
                if MAX {
                    // All ones if `v` takes over: a select on the bits, not
                    // a branch, since which neighbour holds the maximum is
                    // not something a predictor learns.
                    let take = (((v > *a) | v.is_nan()) as u32).wrapping_neg();
                    *a = f32::from_bits((v.to_bits() & take) | (a.to_bits() & !take));
                    *b = (t as u32 & take) | (*b & !take);
                } else {
                    *a += w * v;
                }
            }
        }
    }
    for ((chains, win), &(_, to)) in acc.iter().zip(&win).zip(at) {
        dst.get_unchecked_mut(to..to + W).copy_from_slice(chains);
        if MAX && !wins.is_empty() {
            wins.get_unchecked_mut(to..to + W).copy_from_slice(win);
        }
    }
}

/// `dst.copy_from_slice(&src[..dst.len()])` for a plane's short rows: in
/// eight- and four-wide moves (the last overlapping the one before) rather
/// than a call to `memcpy` per row, with which `bench_kernels`' forward on
/// 6x6 maps ran ~1.4x slower.
#[inline(always)]
fn copy_row<T: Copy>(dst: &mut [T], src: &[T]) {
    fn moves<T: Copy, const N: usize>(dst: &mut [T], src: &[T]) {
        let n = dst.len();
        let mut at = 0;
        while at + N < n {
            let v: [T; N] = src[at..at + N].try_into().expect("N elements");
            dst[at..at + N].copy_from_slice(&v);
            at += N;
        }
        let v: [T; N] = src[n - N..n].try_into().expect("N elements");
        dst[n - N..].copy_from_slice(&v);
    }
    match dst.len() {
        n if n >= 8 => moves::<T, 8>(dst, src),
        n if n >= 4 => moves::<T, 4>(dst, src),
        n => {
            // at most three: element by element, which the compiler would
            // otherwise turn back into a call
            for at in [0, 1, 2] {
                if at < n {
                    dst[at] = src[at];
                }
            }
        }
    }
}

/// Copies the outputs out of a flat run whose rows are `row` apart.
fn pick_rows<T: Copy>(run: &[T], row: usize, dst: &mut [T], dst_w: usize) {
    for (y, d) in dst.chunks_exact_mut(dst_w).enumerate() {
        copy_row(d, &run[y * row..]);
    }
}

/// Checks the slice lengths shared by the passes (and the filter's, if it
/// has one) and returns the number of samples.
fn batch_size(
    what: &str,
    (x_len, out_len): (usize, usize),
    channels: usize,
    geom: &Conv2dGeometry,
    weight: Option<&[f32]>,
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
    if let Some(weight) = weight {
        assert_eq!(
            weight.len(),
            channels * geom.kernel * geom.kernel,
            "{what}: weight length"
        );
    }
    n
}

/// The arguments of [`depthwise_forward`] and [`window_max`], checked.
struct Forward<'a> {
    x: &'a [f32],
    channels: usize,
    geom: Conv2dGeometry,
    /// The weights and bias of a convolution, or `None` for the maximum.
    filter: Option<(&'a [f32], &'a [f32])>,
    out: &'a mut [f32],
    /// Where the maximum keeps each output's winner, if the caller asks.
    argmax: Option<&'a mut [u32]>,
}

/// The forward pass on `W`-lane vectors: a correlation with the filter, or
/// with `MAX` the maximum.
#[inline(always)]
fn forward<const W: usize, const MAX: bool>(s: &mut Scratch, p: Forward<'_>) {
    let geom = p.geom;
    let (in_plane, positions) = (geom.in_h * geom.in_w, geom.out_positions());
    let (k, d, stride, pad) = (geom.kernel, geom.dilation, geom.stride, geom.padding);
    let kk = k * k;
    let n = p.x.len() / (p.channels * in_plane);
    // Output (y, x) reads logical (y · stride + ky · d, x · stride + kx · d):
    // with `stride` row and column phases that is `y · seg + x` plus where
    // logical (ky · d, kx · d) is stored.
    let border = if MAX { f32::NEG_INFINITY } else { 0.0 };
    let mut xp = Padded::new(
        &mut s.x,
        n,
        (geom.in_h + 2 * pad, geom.in_w + 2 * pad),
        (stride, stride),
        pad,
        1,
        border,
    );
    s.offsets.clear();
    s.offsets
        .extend((0..kk).map(|t| xp.at(t / k * d, t % k * d)));
    // A channel's planes are one correlation: all samples' vectors in one
    // list, so four of them are in flight even where a plane has fewer.
    let (row, planes) = (xp.seg, (n, xp.plane, xp.seg));
    let stride_out = p.channels * positions;
    let narrow = plan_vectors::<W>(&mut s.vectors, planes, (geom.out_h, geom.out_w), stride_out);
    let run = narrow.map_or(0, |run| n * run);
    s.run.clear();
    s.run.resize(run, 0.0);
    // The maximum's winning taps, if the caller keeps them: the narrow rows'
    // runs in scratch.
    let keep = MAX && p.argmax.is_some();
    s.wins.clear();
    s.wins.resize(if keep { run } else { 0 }, UNCLAIMED);
    let wins = p.argmax.unwrap_or_default();
    for ch in 0..p.channels {
        // The maximum reads every tap, its weights unused.
        let (weight, init) = match p.filter {
            Some((weight, bias)) => (Some(&weight[ch * kk..][..kk]), bias[ch]),
            None => (None, f32::NEG_INFINITY),
        };
        set_taps(&mut s.taps, &s.offsets, weight, false);
        for i in 0..n {
            let image = &p.x[(i * p.channels + ch) * in_plane..][..in_plane];
            xp.load(i, image, (geom.in_h, geom.in_w));
        }
        let out = &mut p.out[ch * positions..];
        let wins: &mut [u32] = if keep {
            &mut wins[ch * positions..]
        } else {
            &mut []
        };
        match narrow {
            None => correlate::<W, MAX>(xp.buf, &s.taps, init, &s.vectors, out, wins),
            Some(run) => {
                correlate::<W, MAX>(xp.buf, &s.taps, init, &s.vectors, &mut s.run, &mut s.wins);
                for i in 0..n {
                    let to = i * stride_out..i * stride_out + positions;
                    pick_rows(&s.run[i * run..], row, &mut out[to.clone()], geom.out_w);
                    if keep {
                        pick_rows(&s.wins[i * run..], row, &mut wins[to], geom.out_w);
                    }
                }
            }
        }
    }
    if keep {
        taps_to_inputs(wins, &geom, &mut s.offsets);
    }
}

/// Turns each output's winning tap into the flat index of the input it read:
/// tap `(ky, kx)` of output `(oy, ox)` read input `(oy · stride + ky · d -
/// pad, ox · stride + kx · d - pad)` of its plane, inside the image whenever
/// it won, because the border never wins. A window no tap took over reports
/// index 0.
fn taps_to_inputs(wins: &mut [u32], geom: &Conv2dGeometry, offsets: &mut Vec<usize>) {
    let (k, d, w) = (geom.kernel, geom.dilation, geom.in_w);
    offsets.clear();
    offsets.extend((0..k * k).map(|t| t / k * d * w + t % k * d));
    let corner = geom.padding * (w + 1);
    for (plane, wins) in wins.chunks_exact_mut(geom.out_positions()).enumerate() {
        for (oy, row) in wins.chunks_exact_mut(geom.out_w).enumerate() {
            let first = (plane * geom.in_h + oy * geom.stride) * w;
            for (ox, win) in row.iter_mut().enumerate() {
                *win = match *win {
                    UNCLAIMED => 0,
                    t => (first + ox * geom.stride + offsets[t as usize] - corner) as u32,
                };
            }
        }
    }
}

/// The arguments of [`depthwise_backward`], checked.
struct Backward<'a> {
    x: &'a [f32],
    channels: usize,
    geom: Conv2dGeometry,
    weight: &'a [f32],
    grad_out: &'a [f32],
    dweight: &'a mut [f32],
    dbias: &'a mut [f32],
    dx: &'a mut [f32],
}

/// Where one sample's weight-gradient terms come from: the padded input
/// planes of a group of channels (plane `c` for the group's channel `c`),
/// and how outputs and taps step through them.
struct Terms<'p> {
    planes: &'p [f32],
    plane: usize,
    /// Elements between output rows, and between kernel rows.
    out_row: usize,
    tap_row: usize,
    /// Where output column `ox` finds its kernel row's first tap.
    starts: &'p [usize],
}
/// Advances `G` channels' tap sums over one sample's output positions in
/// `(oy, ox)` order — `sum[ky][kx] += x · go`, a term whose `x` is `0.0` left
/// out when `SKIP_ZERO` — and returns each channel's sequential sum of `go`
/// (its bias gradient for the sample).
///
/// A channel's sums are `V` vectors of `W` lanes: lane `f` is tap `(f / L,
/// f % L)`, a kernel row padded to `L > K` lanes, and lanes past the last
/// row repeat it. Lane `K`, the first past the first kernel row, is the
/// bias gradient's chain: its input is `1.0`. Other lanes that are no tap
/// sum what nobody reads.
#[inline(always)]
fn tap_sums<
    const W: usize,
    const K: usize,
    const L: usize,
    const V: usize,
    const G: usize,
    const SKIP_ZERO: bool,
>(
    terms: &Terms<'_>,
    go: [&[f32]; G],
    sums: &mut [[[f32; W]; V]; G],
) -> [f32; G] {
    debug_assert!(V * W >= K * L && L > K);
    let out_w = terms.starts.len();
    let max_start = terms.starts.iter().copied().max().unwrap_or(0);
    let out_h = go[0].len() / out_w.max(1);
    // The furthest element any lane reads (a plane's last output row, its
    // right-most start, the last kernel row's last lane).
    let last = (G - 1) * terms.plane
        + (out_h.max(1) - 1) * terms.out_row
        + max_start
        + (K - 1) * terms.tap_row
        + L
        - 1;
    assert!(
        last < terms.planes.len() && go.iter().all(|g| g.len() == out_h * out_w),
        "depthwise: padded planes too small for the weight gradient"
    );
    let mut acc = *sums;
    // The bias lane's chain is per sample, and `Iterator::sum` of `f32`
    // starts from -0.0 too.
    for chains in &mut acc {
        chains[K / W][K % W] = -0.0;
    }
    for oy in 0..out_h {
        for (ox, &start) in terms.starts.iter().enumerate() {
            let pos = oy * out_w + ox;
            let at = oy * terms.out_row + start;
            for (c, chains) in acc.iter_mut().enumerate() {
                // SAFETY: `pos < out_h · out_w`, each `go[c]`'s length, by
                // the assert above.
                let g = unsafe { *go[c].get_unchecked(pos) };
                let base = c * terms.plane + at;
                for (v, chain) in chains.iter_mut().enumerate() {
                    let x: [f32; W] = std::array::from_fn(|j| {
                        let f = v * W + j;
                        if f == K {
                            // the bias lane: `1 · g` is `g`, bit for bit
                            return 1.0;
                        }
                        let ky = (f / L).min(K - 1);
                        // SAFETY: `c < G`, `oy < out_h`, `start <=
                        // max_start`, `ky <= K - 1` and `f % L < L`, so the
                        // index is at most `last`, inside the planes by the
                        // assert above.
                        unsafe {
                            *terms
                                .planes
                                .get_unchecked(base + ky * terms.tap_row + f % L)
                        }
                    });
                    for (s, v) in chain.iter_mut().zip(x) {
                        *s += if SKIP_ZERO && v == 0.0 { 0.0 } else { v * g };
                    }
                }
            }
        }
    }
    *sums = acc;
    std::array::from_fn(|c| acc[c][K / W][K % W])
}

/// Adds `G` channels' tap sums (lane layout as in [`tap_sums`]) to their
/// `K x K` rows of `dweight`, each sum once.
fn drain<const W: usize, const K: usize, const L: usize, const V: usize, const G: usize>(
    sums: &[[[f32; W]; V]; G],
    dweight: &mut [f32],
) {
    for (chains, dw) in sums.iter().zip(dweight.chunks_exact_mut(K * K)) {
        for (f, &s) in chains.iter().flatten().enumerate().take(K * L) {
            if f % L < K {
                dw[f / L * K + f % L] += s;
            }
        }
    }
}

/// The weight and bias gradients of every channel, `G` at a time (the rest
/// one by one), for the unrolled `K`.
#[inline(always)]
fn weight_grad<const W: usize, const K: usize, const L: usize, const V: usize, const G: usize>(
    s: &mut Scratch,
    p: &mut Backward<'_>,
    n: usize,
    go_finite: bool,
) {
    let mut first = 0;
    while first < p.channels {
        if first + G <= p.channels {
            weight_grad_group::<W, K, L, V, G>(s, p, n, first, go_finite);
            first += G;
        } else {
            weight_grad_group::<W, K, L, V, 1>(s, p, n, first, go_finite);
            first += 1;
        }
    }
}

/// [`weight_grad`] for the `G` channels from `first` on.
#[inline(always)]
fn weight_grad_group<
    const W: usize,
    const K: usize,
    const L: usize,
    const V: usize,
    const G: usize,
>(
    s: &mut Scratch,
    p: &mut Backward<'_>,
    n: usize,
    first: usize,
    go_finite: bool,
) {
    let geom = p.geom;
    let (in_plane, positions) = (geom.in_h * geom.in_w, geom.out_positions());
    let (d, pad) = (geom.dilation, geom.padding);
    // Tap (ky, kx) of output (oy, ox) reads logical (oy · stride + ky · d,
    // ox · stride + kx · d): with `d` column phases the `K` taps of a kernel
    // row are neighbours.
    let mut xp = Padded::new(
        &mut s.x,
        G,
        (geom.in_h + 2 * pad, geom.in_w + 2 * pad),
        (1, d),
        pad,
        1,
        0.0,
    );
    s.starts.clear();
    s.starts
        .extend((0..geom.out_w).map(|ox| xp.at(0, ox * geom.stride)));
    let mut sums = [[[0.0f32; W]; V]; G];
    for i in 0..n {
        let plane_of = |c: usize| (i * p.channels + first + c) * in_plane;
        for c in 0..G {
            xp.load(c, &p.x[plane_of(c)..][..in_plane], (geom.in_h, geom.in_w));
        }
        let terms = Terms {
            planes: xp.buf,
            plane: xp.plane,
            out_row: geom.stride * xp.seg,
            tap_row: d * xp.seg,
            starts: &s.starts,
        };
        let go: [&[f32]; G] = std::array::from_fn(|c| {
            &p.grad_out[(i * p.channels + first + c) * positions..][..positions]
        });
        let totals = if go_finite {
            tap_sums::<W, K, L, V, G, false>(&terms, go, &mut sums)
        } else {
            tap_sums::<W, K, L, V, G, true>(&terms, go, &mut sums)
        };
        for (db, t) in p.dbias[first..first + G].iter_mut().zip(totals) {
            *db += t;
        }
    }
    drain::<W, K, L, V, G>(&sums, &mut p.dweight[first * K * K..][..G * K * K]);
}

/// The weight and bias gradients for a kernel without an unrolled body: one
/// channel at a time, one scalar chain per tap.
fn weight_grad_any(s: &mut Scratch, p: &mut Backward<'_>, n: usize) {
    let geom = p.geom;
    let (in_plane, positions) = (geom.in_h * geom.in_w, geom.out_positions());
    let (k, d, pad) = (geom.kernel, geom.dilation, geom.padding);
    let mut xp = Padded::new(
        &mut s.x,
        1,
        (geom.in_h + 2 * pad, geom.in_w + 2 * pad),
        (1, d),
        pad,
        1,
        0.0,
    );
    let (out_row, tap_row) = (geom.stride * xp.seg, d * xp.seg);
    s.starts.clear();
    s.starts
        .extend((0..geom.out_w).map(|ox| xp.at(0, ox * geom.stride)));
    for ch in 0..p.channels {
        s.sums.clear();
        s.sums.resize(k * k, 0.0);
        for plane in (ch..n * p.channels).step_by(p.channels) {
            xp.load(
                0,
                &p.x[plane * in_plane..][..in_plane],
                (geom.in_h, geom.in_w),
            );
            let go = &p.grad_out[plane * positions..][..positions];
            let mut total = -0.0f32;
            for (oy, go_row) in go.chunks_exact(geom.out_w).enumerate() {
                let rows = &xp.buf[oy * out_row..];
                for (&at, &g) in s.starts.iter().zip(go_row) {
                    total += g;
                    for (t, sum) in s.sums.iter_mut().enumerate() {
                        let v = rows[at + t / k * tap_row + t % k];
                        if v != 0.0 {
                            *sum += v * g;
                        }
                    }
                }
            }
            p.dbias[ch] += total;
        }
        for (dw, sum) in p.dweight[ch * k * k..][..k * k].iter_mut().zip(&s.sums) {
            *dw += sum;
        }
    }
}

/// The backward pass on `W`-lane vectors.
#[inline(always)]
fn backward<const W: usize>(s: &mut Scratch, mut p: Backward<'_>) {
    let n = p.x.len() / (p.channels * p.geom.in_h * p.geom.in_w);
    let go_finite = !p.grad_out.iter().fold(false, |bad, g| bad | !g.is_finite());
    // `<lanes per vector, K, lanes per kernel row, vectors per channel,
    // channels in flight>`: a 3x3 kernel's rows are four lanes wide on
    // either instruction set (two rows to an eight-lane vector cost a
    // shuffle per term, more than they save), and as many chains stay in
    // flight as the sixteen vector registers hold without spilling.
    match (p.geom.kernel, W) {
        (3, _) => weight_grad::<4, 3, 4, 3, 2>(s, &mut p, n, go_finite),
        (5, 8) => weight_grad::<8, 5, 8, 5, 1>(s, &mut p, n, go_finite),
        (5, _) => weight_grad::<4, 5, 8, 10, 1>(s, &mut p, n, go_finite),
        _ => weight_grad_any(s, &mut p, n),
    }
    let p = InputGrad {
        grad_out: p.grad_out,
        channels: p.channels,
        geom: p.geom,
        weight: Some(p.weight),
        descending: false,
        dx: p.dx,
    };
    input_grad::<W>(s, p);
}

/// The arguments of the input-gradient pass, checked.
struct InputGrad<'a> {
    grad_out: &'a [f32],
    channels: usize,
    geom: Conv2dGeometry,
    /// `[channels, k * k]`, or `None` for unit weights.
    weight: Option<&'a [f32]>,
    /// Whether the taps are added in descending `(ky, kx)` order.
    descending: bool,
    dx: &'a mut [f32],
}

/// The input gradient on `W`-lane vectors: `dx` overwritten with the output
/// gradient correlated with each channel's flipped filter.
#[inline(always)]
fn input_grad<const W: usize>(s: &mut Scratch, p: InputGrad<'_>) {
    let geom = p.geom;
    let (in_plane, positions) = (geom.in_h * geom.in_w, geom.out_positions());
    let (k, d) = (geom.kernel, geom.dilation);
    let kk = k * k;
    let n = p.dx.len() / (p.channels * in_plane);
    // dx[y] = Σ_ky w[ky] · go[(y + padding - ky · d) / stride]: with `go`
    // spread `stride` apart from row `lead` of a zeroed plane, tap `ky` of
    // dx row `y` reads row `y + flip - ky · d`, never negative.
    let lead = ((k - 1) * d).saturating_sub(geom.padding);
    let flip = geom.padding + lead;
    // Rows dx reads, or rows `go` fills when `padding > (k - 1) · d` gives
    // outputs that see no input at all.
    let extent =
        |input: usize, output: usize| (input + flip).max(lead + (output - 1) * geom.stride + 1);
    let mut gp = Padded::new(
        &mut s.go,
        n,
        (extent(geom.in_h, geom.out_h), extent(geom.in_w, geom.out_w)),
        (1, 1),
        lead,
        geom.stride,
        0.0,
    );
    let (row, planes) = (gp.seg, (n, gp.plane, gp.seg));
    s.offsets.clear();
    s.offsets
        .extend((0..kk).map(|t| (flip - t / k * d) * row + flip - t % k * d));
    let stride_dx = p.channels * in_plane;
    let narrow = plan_vectors::<W>(&mut s.vectors, planes, (geom.in_h, geom.in_w), stride_dx);
    s.run.clear();
    s.run.resize(narrow.map_or(0, |run| n * run), 0.0);
    for ch in 0..p.channels {
        let weight = p.weight.map(|w| &w[ch * kk..][..kk]);
        set_taps(&mut s.taps, &s.offsets, weight, p.descending);
        for i in 0..n {
            let go = &p.grad_out[(i * p.channels + ch) * positions..][..positions];
            gp.load(i, go, (geom.out_h, geom.out_w));
        }
        let dx = &mut p.dx[ch * in_plane..];
        match narrow {
            None => correlate::<W, false>(gp.buf, &s.taps, 0.0, &s.vectors, dx, &mut []),
            Some(run) => {
                correlate::<W, false>(gp.buf, &s.taps, 0.0, &s.vectors, &mut s.run, &mut []);
                for (i, run) in s.run.chunks_exact(run).enumerate() {
                    let dx = &mut dx[i * stride_dx..][..in_plane];
                    pick_rows(run, row, dx, geom.in_w);
                }
            }
        }
    }
}

/// One pass and its checked arguments.
enum Pass<'a> {
    Forward(Forward<'a>),
    Backward(Backward<'a>),
    InputGrad(InputGrad<'a>),
}

/// Every pass on `W`-lane vectors.
#[inline(always)]
fn run<const W: usize>(s: &mut Scratch, pass: Pass<'_>) {
    match pass {
        Pass::Forward(p) if p.filter.is_some() => forward::<W, false>(s, p),
        Pass::Forward(p) => forward::<W, true>(s, p),
        Pass::Backward(p) => backward::<W>(s, p),
        Pass::InputGrad(p) => input_grad::<W>(s, p),
    }
}

/// One instantiation of every pass.
type Kernels = unsafe fn(&mut Scratch, Pass<'_>);

/// # Safety
///
/// None beyond the signature's: the pointer type is shared with [`AVX2`].
unsafe fn portable(s: &mut Scratch, pass: Pass<'_>) {
    run::<4>(s, pass)
}

const PORTABLE: Kernels = portable;

/// # Safety
///
/// The CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2(s: &mut Scratch, pass: Pass<'_>) {
    run::<8>(s, pass)
}

#[cfg(target_arch = "x86_64")]
const AVX2: Kernels = avx2;

/// The instantiation this CPU runs.
fn kernels() -> Kernels {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::has_avx2() {
            return AVX2;
        }
    }
    PORTABLE
}

/// Runs `pass` on `kernels` in this thread's scratch.
fn run_on(kernels: Kernels, pass: Pass<'_>) {
    SCRATCH.with(|s| {
        // SAFETY: `kernels` is the portable instantiation or one whose CPU
        // feature `kernels()` checked; the caller checked the slices.
        unsafe { kernels(&mut s.borrow_mut(), pass) }
    });
}

/// Depthwise forward over an NCHW batch: `out[i, c] = bias[c] + x[i, c] ⋆
/// weight[c]`, with `weight` laid out `[channels, k * k]`.
///
/// `out` is overwritten. See the module docs for the summation order.
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
    let p = Forward {
        x,
        channels,
        geom: *geom,
        filter: Some((weight, bias)),
        out,
        argmax: None,
    };
    forward_on(kernels(), p);
}

/// Max pooling over an NCHW batch: `out[i, c, oy, ox]` is the maximum of
/// the window of output `(oy, ox)` in `x[i, c]` (`geom`'s kernel, stride,
/// padding and dilation; the padding is never the maximum). If given,
/// `argmax` gets the flat index into `x` of each output's maximum: the first
/// of equal maxima in `(ky, kx)` order, a NaN over any number, and 0 for a
/// window with none (all `-inf`, or all padding).
///
/// `out` and `argmax` are overwritten.
///
/// # Panics
///
/// Panics if a slice length disagrees with `channels` and `geom`, or if `x`
/// has more elements than a `u32` counts.
pub fn window_max(
    x: &[f32],
    channels: usize,
    geom: &Conv2dGeometry,
    out: &mut [f32],
    argmax: Option<&mut [u32]>,
) {
    let p = Forward {
        x,
        channels,
        geom: *geom,
        filter: None,
        out,
        argmax,
    };
    forward_on(kernels(), p);
}

fn forward_on(kernels: Kernels, p: Forward<'_>) {
    let what = match p.filter {
        Some(_) => "depthwise_forward",
        None => "window_max",
    };
    let weight = p.filter.map(|(weight, _)| weight);
    let lens = (p.x.len(), p.out.len());
    let n = batch_size(what, lens, p.channels, &p.geom, weight);
    if let Some((_, bias)) = p.filter {
        assert_eq!(bias.len(), p.channels, "{what}: bias length");
    }
    if let Some(argmax) = &p.argmax {
        assert_eq!(argmax.len(), p.out.len(), "{what}: argmax length");
    }
    assert!(
        p.filter.is_some() || p.x.len() <= UNCLAIMED as usize,
        "{what}: input too large for u32 indices"
    );
    if n > 0 {
        run_on(kernels, Pass::Forward(p));
    }
}

/// Depthwise backward over an NCHW batch. Given the forward input `x` and
/// the output gradient `grad_out`, **accumulates** the weight gradient into
/// `dweight` (`[channels, k * k]`) and the bias gradient into `dbias`, and
/// **overwrites** `dx` with the input gradient.
///
/// See the module docs for the summation order.
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
    let p = Backward {
        x,
        channels,
        geom: *geom,
        weight,
        grad_out,
        dweight,
        dbias,
        dx,
    };
    backward_on(kernels(), p);
}

fn backward_on(kernels: Kernels, p: Backward<'_>) {
    let what = "depthwise_backward";
    let lens = (p.x.len(), p.grad_out.len());
    let n = batch_size(what, lens, p.channels, &p.geom, Some(p.weight));
    assert_eq!(p.dx.len(), p.x.len(), "{what}: dx length");
    assert_eq!(p.dweight.len(), p.weight.len(), "{what}: dweight length");
    assert_eq!(p.dbias.len(), p.channels, "{what}: dbias length");
    if n > 0 {
        run_on(kernels, Pass::Backward(p));
    }
}

/// The backward pass of a window sum over an NCHW batch (average pooling
/// before its divide): **overwrites** `dx[i, c]` with, at each input, the
/// sum of `grad_out[i, c]` over the windows that hold it, in `(oy, ox)`
/// order. It is the depthwise input gradient at unit weights, its taps in
/// descending order.
///
/// # Panics
///
/// Panics if a slice length disagrees with `channels` and `geom`.
pub fn window_sum_backward(
    grad_out: &[f32],
    channels: usize,
    geom: &Conv2dGeometry,
    dx: &mut [f32],
) {
    let p = InputGrad {
        grad_out,
        channels,
        geom: *geom,
        weight: None,
        descending: true,
        dx,
    };
    input_grad_on(kernels(), p);
}

fn input_grad_on(kernels: Kernels, p: InputGrad<'_>) {
    let lens = (p.dx.len(), p.grad_out.len());
    let n = batch_size("window_sum_backward", lens, p.channels, &p.geom, p.weight);
    if n > 0 {
        run_on(kernels, Pass::InputGrad(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn padded_phases_keep_every_element_and_put_strided_columns_side_by_side() {
        // 2 x 5 image at origin 3 of a 5 x 9 plane, three column phases.
        let image: Vec<f32> = (1..=10).map(|v| v as f32).collect();
        let mut store = Vec::new();
        let mut p = Padded::new(&mut store, 1, (5, 9), (1, 3), 3, 1, 0.0);
        p.load(0, &image, (2, 5));
        assert_eq!(p.seg, 3);
        for y in 0..2 {
            for x in 0..5 {
                assert_eq!(p.buf[p.at(3 + y, 3 + x)], image[y * 5 + x]);
            }
        }
        assert_eq!(p.buf.iter().filter(|v| **v != 0.0).count(), 10);
        // columns 3 apart are neighbours
        assert_eq!(p.at(3, 3 + 3), p.at(3, 3) + 1);
        // and with row phases too, rows 2 apart are a stored row apart
        let mut p = Padded::new(&mut store, 2, (5, 9), (2, 2), 1, 1, 0.0);
        p.load(1, &image, (2, 5));
        for y in 0..2 {
            for x in 0..5 {
                assert_eq!(p.buf[p.plane + p.at(1 + y, 1 + x)], image[y * 5 + x]);
            }
        }
        assert_eq!(p.buf.iter().filter(|v| **v != 0.0).count(), 10);
        assert_eq!(p.at(1 + 2, 1), p.at(1, 1) + p.seg);
    }

    #[test]
    fn padded_step_spreads_the_image() {
        let image = [1.0, 2.0, 3.0, 4.0];
        let mut store = vec![9.0; 3]; // stale contents must not survive
        let mut p = Padded::new(&mut store, 1, (4, 4), (1, 1), 1, 2, 0.0);
        p.load(0, &image, (2, 2));
        #[rustfmt::skip]
        assert_eq!(p.buf[..16], [
            0.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 0.0, 2.0,
            0.0, 0.0, 0.0, 0.0,
            0.0, 3.0, 0.0, 4.0,
        ]);
        // a border of -inf fills every element the image does not, the
        // overrun included
        let mut p = Padded::new(&mut store, 1, (4, 4), (1, 1), 1, 2, f32::NEG_INFINITY);
        p.load(0, &image, (2, 2));
        assert_eq!(p.buf.len(), 16 + OVERRUN);
        assert_eq!(
            p.buf.iter().filter(|v| **v == f32::NEG_INFINITY).count(),
            12 + OVERRUN
        );
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

    /// Every instantiation this CPU can run, the portable one first.
    fn instantiations() -> Vec<(&'static str, Kernels)> {
        let mut all = vec![("portable", PORTABLE)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(("avx2", AVX2));
            }
        }
        all
    }

    /// `len` draws from `-1..1`, with exact zeros (and, if asked, infinities
    /// and NaN) mixed in.
    fn draws(rng: &mut StdRng, len: usize, special: &[f32]) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..6) {
                0 => special[rng.gen_range(0..special.len())],
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    /// Every output and gradient of one instantiation — forward, then a
    /// backward that accumulates into non-zero gradients, the maximum of
    /// `xm` with its argmax, and the window-sum backward — by its bits, any
    /// NaN counting as one: which of two NaNs an add that meets both hands
    /// on depends on the order the compiler put its operands in (as in
    /// `gemm_small`'s test), and is outside the contract.
    fn run_all(
        kernels: Kernels,
        (n, c, g): (usize, usize, &Conv2dGeometry),
        (x, w, b, go): (&[f32], &[f32], &[f32], &[f32]),
        xm: &[f32],
    ) -> Vec<Vec<u32>> {
        let positions = n * c * g.out_positions();
        let mut out = vec![f32::NAN; positions];
        let filter = Some((w, b));
        forward_on(kernels, forward_args(x, c, g, filter, &mut out, None));
        let (mut dw, mut db) = (vec![0.5f32; w.len()], vec![0.25f32; c]);
        let mut dx = vec![f32::NAN; x.len()];
        let p = Backward {
            x,
            channels: c,
            geom: *g,
            weight: w,
            grad_out: go,
            dweight: &mut dw,
            dbias: &mut db,
            dx: &mut dx,
        };
        backward_on(kernels, p);
        let (mut max, mut argmax) = (vec![f32::NAN; positions], vec![7u32; positions]);
        forward_on(
            kernels,
            forward_args(xm, c, g, None, &mut max, Some(&mut argmax)),
        );
        // without an argmax, the same maxima
        let mut unkept = vec![f32::NAN; positions];
        forward_on(kernels, forward_args(xm, c, g, None, &mut unkept, None));
        assert_eq!(canonical(&unkept), canonical(&max));
        let mut sum_dx = vec![f32::NAN; x.len()];
        let p = InputGrad {
            grad_out: go,
            channels: c,
            geom: *g,
            weight: None,
            descending: true,
            dx: &mut sum_dx,
        };
        input_grad_on(kernels, p);
        let mut all: Vec<Vec<u32>> = [out, dw, db, dx, max]
            .iter()
            .map(|v| canonical(v))
            .collect();
        all.push(argmax);
        all.push(canonical(&sum_dx));
        all
    }

    fn forward_args<'a>(
        x: &'a [f32],
        channels: usize,
        geom: &Conv2dGeometry,
        filter: Option<(&'a [f32], &'a [f32])>,
        out: &'a mut [f32],
        argmax: Option<&'a mut [u32]>,
    ) -> Forward<'a> {
        Forward {
            x,
            channels,
            geom: *geom,
            filter,
            out,
            argmax,
        }
    }

    /// The bits of `v`, every NaN as one.
    fn canonical(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|f| if f.is_nan() { f32::NAN } else { *f }.to_bits())
            .collect()
    }

    /// The maximum with its argmax, and the window-sum backward, as loops
    /// over each window's in-image taps in `(ky, kx)` order: the first of
    /// equal maxima and any NaN win, a window with no winner reports 0, and
    /// an input adds its windows' gradients in `(oy, ox)` order.
    fn window_loops(g: &Conv2dGeometry, x: &[f32], go: &[f32]) -> Vec<Vec<u32>> {
        let (k, s, d, pad) = (g.kernel, g.stride, g.dilation, g.padding as isize);
        let (mut max, mut arg, mut dx) = (Vec::new(), Vec::new(), vec![0.0f32; x.len()]);
        for plane in 0..x.len() / (g.in_h * g.in_w) {
            for (oy, ox) in (0..g.out_h).flat_map(|oy| (0..g.out_w).map(move |ox| (oy, ox))) {
                let (mut best, mut at) = (f32::NEG_INFINITY, 0);
                for (ky, kx) in (0..k).flat_map(|ky| (0..k).map(move |kx| (ky, kx))) {
                    let iy = (oy * s + ky * d) as isize - pad;
                    let ix = (ox * s + kx * d) as isize - pad;
                    if iy < 0 || ix < 0 || iy >= g.in_h as isize || ix >= g.in_w as isize {
                        continue;
                    }
                    let i = (plane * g.in_h + iy as usize) * g.in_w + ix as usize;
                    if x[i] > best || x[i].is_nan() {
                        (best, at) = (x[i], i as u32);
                    }
                    dx[i] += go[max.len()];
                }
                max.push(best);
                arg.push(at);
            }
        }
        vec![canonical(&max), arg, canonical(&dx)]
    }

    #[test]
    fn every_instantiation_equals_the_portable_one_bit_for_bit() {
        // Off every lane edge: channels around the groups in flight, maps
        // whose padded rows are a vector short and a vector long, strides
        // and dilations together, kernels wider than the map, windows all in
        // the padding; zero weights, zero inputs against a non-finite output
        // gradient. The maximum sees ties, infinities, NaN and (in a third
        // of the cases, mostly `-inf` inputs) windows with no winner, and the
        // portable instantiation's maximum and window-sum backward equal
        // loops over the windows.
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..160 {
            let k = [1, 3, 5, 3, 5, 2][case % 6];
            let (stride, dilation) = [(1, 1), (2, 1), (1, 2), (2, 2)][case / 6 % 4];
            let all_border = if case % 7 == 0 { dilation * k } else { 0 };
            let pad = dilation * (k - 1) / 2 + case % 2 + all_border;
            let (h, w) = (rng.gen_range(1..=13), rng.gen_range(1..=13));
            let (n, c) = (rng.gen_range(1..=5), rng.gen_range(1..=9));
            let eff = dilation * (k - 1) + 1;
            if h.min(w) + 2 * pad < eff {
                continue;
            }
            let g = Conv2dGeometry::new(h, w, k, stride, pad, dilation);
            let x = draws(&mut rng, n * c * h * w, &[0.0, -0.0]);
            let wt = draws(&mut rng, c * k * k, &[0.0]);
            let b = draws(&mut rng, c, &[-0.0]);
            let special: &[f32] = if case % 3 == 0 {
                &[f32::INFINITY, f32::NAN, 0.0]
            } else {
                &[0.0]
            };
            let go = draws(&mut rng, n * c * g.out_positions(), special);
            let inf = f32::INFINITY;
            let mut xm = draws(&mut rng, x.len(), &[0.5, 0.5, -inf, inf, f32::NAN]);
            if case % 3 == 1 {
                for v in xm.iter_mut().filter(|v| **v < 0.5) {
                    *v = -inf;
                }
            }
            let all = instantiations();
            let want = run_all(all[0].1, (n, c, &g), (&x, &wt, &b, &go), &xm);
            let shape = format!("k{k} s{stride} d{dilation} p{pad} {n}x{c}x{h}x{w}");
            assert!(
                want[4..] == window_loops(&g, &xm, &go)[..],
                "loops: {shape}"
            );
            for (name, kernels) in &all[1..] {
                let got = run_all(*kernels, (n, c, &g), (&x, &wt, &b, &go), &xm);
                let what = ["out", "dw", "db", "dx", "max", "argmax", "sum dx"];
                for (what, (got, want)) in what.iter().zip(got.iter().zip(&want)) {
                    assert!(got == want, "{name} {what}: {shape}");
                }
            }
        }
    }
}
