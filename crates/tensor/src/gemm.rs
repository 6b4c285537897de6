//! Packed, register-tiled single-precision GEMM.
//!
//! The convolution layers lower to matrix multiplication via
//! [`im2col`](crate::im2col), so this kernel dominates training time. The
//! implementation follows the classic BLIS/GotoBLAS decomposition:
//!
//! * `k` is split into depth blocks of [`KC`]; for each block, `b` is packed
//!   once into contiguous column panels of width [`NR`] and `a` into row
//!   panels of height [`MR`] (both zero-padded at the edges so the
//!   microkernel never branches on tile shape);
//! * an [`MR`]`x`[`NR`] register-tiled microkernel accumulates over the
//!   packed panels with a fully unrolled inner loop the optimizer
//!   auto-vectorizes.
//!
//! It runs on the calling thread: the largest convolution GEMM of any
//! preset (`--scale paper`, forward and backward of the supernet and of a
//! sub-model) is 2²¹ multiply-adds, far below what pays for spawning
//! threads, and a search already trains its participants on
//! [`crate::num_threads`] threads.
//!
//! Small problems skip packing entirely and run the register-blocked kernel
//! of [`crate::gemm_small`], which is bit-identical to the scalar loop
//! [`gemm_naive`] — the reference for property tests and the baseline of
//! `BENCH_kernels.json`.

use crate::gemm_small::{gemm_small, Rhs};

/// Microkernel tile height (rows of `c` per register tile). Packed row
/// panels are always MR tall; narrower ISAs process the tile in row halves
/// or quarters to stay within their register budget.
const MR: usize = 8;
/// Microkernel tile width (columns of `c` per register tile); one AVX-512
/// register or two AVX2 registers of `f32` lanes.
const NR: usize = 16;
/// Depth blocking: packed panels cover `KC` values of `k` at a time.
const KC: usize = 256;
/// Problems with `m*n*k` at or below this run the unpacked kernel; packing
/// traffic (`m*k + k*n` extra writes+reads) isn't amortized below it.
pub(crate) const SMALL: usize = 16 * 1024;
/// Computes `c += a * b` for row-major matrices where `a` is `m x k`,
/// `b` is `k x n` and `c` is `m x n`.
///
/// `c` is **accumulated into**, not overwritten; callers wanting a plain
/// product should zero `c` first (as [`Tensor::matmul`](crate::Tensor::matmul)
/// does).
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm: a too short");
    assert!(b.len() >= k * n, "gemm: b too short");
    assert!(c.len() >= m * n, "gemm: c too short");
    gemm_dispatch(m, n, k, a, Rhs::Plain(b), None, c);
}

/// Computes `c += a * bt^T` where `a` is `m x k`, `bt` is `n x k` and `c` is
/// `m x n`, all row-major: [`gemm`] with its right operand read transposed as
/// it lies — same result, bit for bit, as transposing `bt` into a `k x n`
/// buffer first.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], bt: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm_nt: a too short");
    assert!(bt.len() >= n * k, "gemm_nt: bt too short");
    assert!(c.len() >= m * n, "gemm_nt: c too short");
    gemm_dispatch(m, n, k, a, Rhs::Transposed(bt), None, c);
}

/// Computes `c = a * b + bias_broadcast` where `bias` has length `m` and is
/// broadcast across each output row (one bias per output row/channel).
///
/// Unlike [`gemm`] this **overwrites** `c`. The bias is fused into the packed
/// kernel's epilogue (the first depth-block's tile writeback adds it), so
/// there is no separate fill-then-accumulate pass over `c`.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn gemm_bias(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], bias: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm_bias: a too short");
    assert!(b.len() >= k * n, "gemm_bias: b too short");
    assert!(bias.len() >= m, "gemm_bias: bias too short");
    assert!(c.len() >= m * n, "gemm_bias: c too short");
    gemm_dispatch(m, n, k, a, Rhs::Plain(b), Some(bias), c);
}

/// The seed's cache-blocked scalar kernel: `c += a * b`.
///
/// On no path [`gemm`] takes: kept as the definition of the
/// small-problem kernel's numerics (its property tests compare bits against
/// this loop) and as the "before" baseline of `BENCH_kernels.json`.
///
/// # Panics
///
/// Panics if any slice is shorter than its implied extent.
pub fn gemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm: a too short");
    assert!(b.len() >= k * n, "gemm: b too short");
    assert!(c.len() >= m * n, "gemm: c too short");
    const MC: usize = 32;
    const KCN: usize = 128;
    let mut i0 = 0;
    while i0 < m {
        let i_max = (i0 + MC).min(m);
        let mut k0 = 0;
        while k0 < k {
            let k_max = (k0 + KCN).min(k);
            for i in i0..i_max {
                let arow = &a[i * k..i * k + k];
                let crow = &mut c[i * n..i * n + n];
                for p in k0..k_max {
                    let av = arow[p];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n..p * n + n];
                    // Innermost loop: contiguous over both `brow` and `crow`;
                    // the optimizer auto-vectorizes this axpy.
                    for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                        *cv += av * *bv;
                    }
                }
            }
            k0 = k_max;
        }
        i0 = i_max;
    }
}

fn gemm_dispatch(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Rhs<'_>,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    if m == 0 || n == 0 {
        return;
    }
    if m * n * k <= SMALL {
        gemm_small(m, n, k, a, b, bias, c);
    } else {
        gemm_packed(m, n, k, a, b, bias, c);
    }
}

fn ensure_len(v: &mut Vec<f32>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// Packs `kc` rows (`k0..k0+kc`) of `b` into NR-wide column panels:
/// `out[panel][p][0..NR] = b[k0+p, panel*NR ..]`, zero-padded past `n`.
/// Every lane of the used prefix is written, so stale scratch is fine.
fn pack_b(b: Rhs<'_>, k0: usize, kc: usize, n: usize, k: usize, out: &mut Vec<f32>) {
    let b = match b {
        Rhs::Plain(b) => b,
        // `b[p, j]` lies at `bt[j, p]`: the row-panel packing of `a`, NR tall
        Rhs::Transposed(bt) => return pack_rows::<NR>(bt, n, k0, kc, k, out),
    };
    let n_panels = n.div_ceil(NR);
    ensure_len(out, n_panels * kc * NR);
    for panel in 0..n_panels {
        let j0 = panel * NR;
        let width = NR.min(n - j0);
        let dst_base = panel * kc * NR;
        for p in 0..kc {
            let src = &b[(k0 + p) * n + j0..(k0 + p) * n + j0 + width];
            out[dst_base + p * NR..dst_base + p * NR + width].copy_from_slice(src);
            if width < NR {
                out[dst_base + p * NR + width..dst_base + (p + 1) * NR].fill(0.0);
            }
        }
    }
}

/// Packs the first `rows` rows of the row-major `a` (row length `k`, depth
/// `k0..k0+kc`) into W-tall row panels:
/// `out[panel][p][0..W] = a[(panel*W+i) * k + k0+p]`, zero-padded past
/// `rows`. Every lane of the used prefix is written.
fn pack_rows<const W: usize>(
    a: &[f32],
    rows: usize,
    k0: usize,
    kc: usize,
    k: usize,
    out: &mut Vec<f32>,
) {
    let m_panels = rows.div_ceil(W);
    ensure_len(out, m_panels * kc * W);
    for panel in 0..m_panels {
        let i0 = panel * W;
        let height = W.min(rows - i0);
        let dst_base = panel * kc * W;
        if height < W {
            out[dst_base..dst_base + kc * W].fill(0.0);
        }
        for i in 0..height {
            let src = &a[(i0 + i) * k + k0..(i0 + i) * k + k0 + kc];
            for (p, &v) in src.iter().enumerate() {
                out[dst_base + p * W + i] = v;
            }
        }
    }
}

/// Accumulates `ROWS` rows of an `MR x NR` tile over packed panels.
///
/// `a_panel` is `kc * MR` (k-major, stride `MR`), `b_panel` is `kc * NR`
/// (k-major); `row_off` selects which rows of the tile this pass covers.
/// The fixed-size accumulator array lives in registers. `ROWS` is the
/// register-budget knob. Every step is fused (`mul_add`, one rounding) —
/// the chain the AVX2 and AVX-512 microkernels compute with `vfmadd`, so a
/// packed-path result does not depend on which of the three the CPU
/// selects; without hardware FMA `mul_add` is a library call, which is
/// the price of being the fallback.
#[inline(always)]
fn microkernel_rows<const ROWS: usize>(
    kc: usize,
    a_panel: &[f32],
    row_off: usize,
    b_panel: &[f32],
    acc: &mut [[f32; NR]; ROWS],
) {
    debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
    debug_assert!(row_off + ROWS <= MR);
    for (ap, bp) in a_panel
        .chunks_exact(MR)
        .zip(b_panel.chunks_exact(NR))
        .take(kc)
    {
        let ap: &[f32; MR] = ap.try_into().expect("chunks_exact stride");
        let bp: &[f32; NR] = bp.try_into().expect("chunks_exact stride");
        for i in 0..ROWS {
            let ai = ap[row_off + i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(bp[j], acc[i][j]);
            }
        }
    }
}

/// Splits the MR-tall accumulator into `MR / ROWS` register-sized passes.
#[inline(always)]
fn microkernel_split<const ROWS: usize>(
    kc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for (half, chunk) in acc.chunks_exact_mut(ROWS).enumerate() {
        let chunk: &mut [[f32; NR]; ROWS] = chunk.try_into().expect("MR divisible by ROWS");
        microkernel_rows::<ROWS>(kc, a_panel, half * ROWS, b_panel, chunk);
    }
}

/// Baseline-ISA instantiation (SSE2 on x86-64): two rows per pass keeps the
/// 4-lane accumulator set inside the 16 xmm registers.
fn microkernel_generic(kc: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    microkernel_split::<2>(kc, a_panel, b_panel, acc);
}

/// AVX2+FMA instantiation, explicit intrinsics. NR = 16 is two ymm vectors
/// per row; doing all 8 rows at once would need 16 accumulator registers
/// (the whole file), so the tile is processed in two 4-row passes: 8 ymm
/// accumulators + 2 b-vectors + 1 broadcast stays within the 16 registers.
/// The b panel is read twice but is L1-resident (`KC * NR * 4` = 16 KiB).
///
/// # Safety
///
/// Caller must ensure the CPU supports `avx2` and `fma` (checked once in
/// [`select_microkernel`] via `is_x86_feature_detected!`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(kc: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;
    debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
    for half in 0..2 {
        let row0 = half * 4;
        let mut acc_lo = [_mm256_setzero_ps(); 4];
        let mut acc_hi = [_mm256_setzero_ps(); 4];
        let mut ap = a_panel.as_ptr();
        let mut bp = b_panel.as_ptr();
        for _ in 0..kc {
            // SAFETY: panels hold `kc` groups of MR / NR lanes (debug-asserted
            // above, guaranteed by pack_rows/pack_b).
            let b_lo = _mm256_loadu_ps(bp);
            let b_hi = _mm256_loadu_ps(bp.add(8));
            for i in 0..4 {
                let av = _mm256_broadcast_ss(&*ap.add(row0 + i));
                acc_lo[i] = _mm256_fmadd_ps(av, b_lo, acc_lo[i]);
                acc_hi[i] = _mm256_fmadd_ps(av, b_hi, acc_hi[i]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for i in 0..4 {
            let dst = acc[row0 + i].as_mut_ptr();
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), acc_lo[i]));
            _mm256_storeu_ps(
                dst.add(8),
                _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), acc_hi[i]),
            );
        }
    }
}

/// AVX-512 instantiation, explicit intrinsics: the full 8 x 16 tile in one
/// pass — 8 zmm accumulators (one register per row), enough independent FMA
/// chains to hide the FMA latency at 2 issues/cycle.
///
/// Intrinsics rather than the autovectorized body: at 8 rows LLVM's loop
/// vectorizer flips to vectorizing *across rows* with gather/scatter on the
/// in-memory accumulator, which is ~4x slower than the scalar baseline.
///
/// # Safety
///
/// Caller must ensure the CPU supports `avx512f` (checked once in
/// [`select_microkernel`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn microkernel_avx512(
    kc: usize,
    a_panel: &[f32],
    b_panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR);
    let mut acc_v = [_mm512_setzero_ps(); MR];
    let mut ap = a_panel.as_ptr();
    let mut bp = b_panel.as_ptr();
    for _ in 0..kc {
        // SAFETY: panels hold `kc` groups of MR / NR lanes (debug-asserted
        // above, guaranteed by pack_rows/pack_b).
        let bv = _mm512_loadu_ps(bp);
        for (i, accv) in acc_v.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(i));
            *accv = _mm512_fmadd_ps(av, bv, *accv);
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    for (row, accv) in acc.iter_mut().zip(acc_v) {
        let dst = row.as_mut_ptr();
        _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), accv));
    }
}

/// The resolved microkernel. The pointee is either the safe generic build or
/// a `#[target_feature]` build whose requirements were verified at selection
/// time, so calling through the pointer is sound everywhere in this process.
type Microkernel = fn(usize, &[f32], &[f32], &mut [[f32; NR]; MR]);

fn select_microkernel() -> Microkernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature verified on this CPU for the process lifetime.
            return |kc, a, b, acc| unsafe { microkernel_avx512(kc, a, b, acc) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: features verified on this CPU for the process lifetime.
            return |kc, a, b, acc| unsafe { microkernel_avx2(kc, a, b, acc) };
        }
    }
    microkernel_generic
}

/// Process-wide cached microkernel choice (function pointers are tiny; an
/// `OnceLock` avoids re-running cpuid per call).
fn microkernel() -> Microkernel {
    static KERNEL: std::sync::OnceLock<Microkernel> = std::sync::OnceLock::new();
    *KERNEL.get_or_init(select_microkernel)
}

/// Writes one microtile back into `c` at rows `row..row + height`. The
/// bias selects the epilogue: on the first depth block a fused-bias kernel
/// overwrites `c` with `acc + bias`, later blocks (and plain
/// accumulate-GEMM) add into it.
#[inline]
#[allow(clippy::too_many_arguments)]
fn store_tile(
    c: &mut [f32],
    n: usize,
    row: usize,
    height: usize,
    j0: usize,
    width: usize,
    acc: &[[f32; NR]; MR],
    bias_row0: Option<&[f32]>,
) {
    for i in 0..height {
        let dst = &mut c[(row + i) * n + j0..(row + i) * n + j0 + width];
        match bias_row0 {
            Some(bias) => {
                let bv = bias[i];
                for (d, &v) in dst.iter_mut().zip(acc[i][..width].iter()) {
                    *d = v + bv;
                }
            }
            None => {
                for (d, &v) in dst.iter_mut().zip(acc[i][..width].iter()) {
                    *d += v;
                }
            }
        }
    }
}

/// Computes every row panel of `c` for one packed depth block.
#[allow(clippy::too_many_arguments)]
fn compute_rows(
    a: &[f32],
    b_packed: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    k0: usize,
    kc: usize,
    bias: Option<&[f32]>,
    a_buf: &mut Vec<f32>,
) {
    let kernel = microkernel();
    pack_rows::<MR>(a, m, k0, kc, k, a_buf);
    let m_panels = m.div_ceil(MR);
    let n_panels = n.div_ceil(NR);
    for ip in 0..m_panels {
        let row = ip * MR;
        let height = MR.min(m - row);
        let a_panel = &a_buf[ip * kc * MR..(ip + 1) * kc * MR];
        let tile_bias = bias.map(|bs| &bs[row..row + height]);
        for jp in 0..n_panels {
            let j0 = jp * NR;
            let width = NR.min(n - j0);
            let b_panel = &b_packed[jp * kc * NR..(jp + 1) * kc * NR];
            let mut acc = [[0.0f32; NR]; MR];
            kernel(kc, a_panel, b_panel, &mut acc);
            store_tile(c, n, row, height, j0, width, &acc, tile_bias);
        }
    }
}

std::thread_local! {
    /// Per-thread packing scratch `(a_buf, b_buf)`, grow-only, reused across
    /// calls so steady-state GEMM does not allocate.
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

fn gemm_packed(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Rhs<'_>,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    PACK_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (a_buf, b_buf) = &mut *scratch;
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_b(b, k0, kc, n, k, b_buf);
            // the bias rides on the first depth block's writeback only
            let block_bias = if k0 == 0 { bias } else { None };
            compute_rows(a, b_buf, c, m, n, k, k0, kc, block_bias, a_buf);
            k0 += kc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn random_mats(m: usize, n: usize, k: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (a, b)
    }

    #[test]
    fn matches_naive_various_sizes() {
        // Spans both dispatch paths (small-scalar and packed) and edge tiles
        // (m, n, k not multiples of MR/NR/KC).
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (33, 17, 129),
            (64, 64, 64),
            (2, 200, 3),
            (41, 67, 300),
            (128, 96, 257),
        ] {
            let (a, b) = random_mats(m, n, k, 42);
            let mut c = vec![0.0; m * n];
            gemm(m, n, k, &a, &b, &mut c);
            let want = reference(m, n, k, &a, &b);
            for (x, y) in c.iter().zip(want.iter()) {
                assert!((x - y).abs() < 1e-3, "mismatch {x} vs {y} at ({m},{n},{k})");
            }
        }
    }

    /// Every packed-path microkernel this CPU can run computes the chain
    /// the portable one does, bit for bit: per element, from a zero
    /// accumulator, `p` ascending, every step fused. (The packed path's
    /// block structure around it — one such chain per `KC` block, block
    /// sums added to `c` in block order — is the same code for all three.)
    #[test]
    fn every_microkernel_matches_the_portable_one_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut kernels: Vec<(&str, Microkernel)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: features verified on this CPU just above.
                kernels.push(("avx2", |kc, a, b, acc| unsafe {
                    microkernel_avx2(kc, a, b, acc)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: feature verified on this CPU just above.
                kernels.push(("avx512", |kc, a, b, acc| unsafe {
                    microkernel_avx512(kc, a, b, acc)
                }));
            }
        }
        let mut rng = StdRng::seed_from_u64(4);
        for kc in [1, 2, 7, 64, KC] {
            // magnitudes spread over ten binades, so a product's low bits
            // are lost or kept depending on whether the step is fused
            let mut draw = |len: usize| -> Vec<f32> {
                (0..len)
                    .map(|_| rng.gen_range(-1.0f32..1.0) * 2f32.powi(rng.gen_range(-5..5)))
                    .collect()
            };
            let (a_panel, b_panel) = (draw(kc * MR), draw(kc * NR));
            let mut want = [[0.0f32; NR]; MR];
            microkernel_generic(kc, &a_panel, &b_panel, &mut want);
            let mut unfused = [[0.0f32; NR]; MR];
            for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
                for (row, &ai) in unfused.iter_mut().zip(ap) {
                    for (c, &bj) in row.iter_mut().zip(bp) {
                        *c += ai * bj;
                    }
                }
            }
            if kc >= 7 {
                assert_ne!(want, unfused, "kc {kc}: the inputs tell fused from unfused");
            }
            for (name, kernel) in &kernels {
                let mut got = [[0.0f32; NR]; MR];
                kernel(kc, &a_panel, &b_panel, &mut got);
                for (i, (g, w)) in got.iter().flatten().zip(want.iter().flatten()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name}, kc {kc}, element {i}: {g:e} vs portable {w:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_path_matches_reference_directly() {
        // Bypass the dispatcher so the packed kernel is exercised even for
        // shapes the dispatcher would route to the scalar loop.
        for &(m, n, k) in &[(1, 1, 1), (4, 8, 16), (5, 9, 17), (7, 3, 301), (12, 40, 64)] {
            let (a, b) = random_mats(m, n, k, 7);
            let mut c = vec![0.0; m * n];
            gemm_packed(m, n, k, &a, Rhs::Plain(&b), None, &mut c);
            let want = reference(m, n, k, &a, &b);
            for (x, y) in c.iter().zip(want.iter()) {
                assert!((x - y).abs() < 1e-3, "mismatch {x} vs {y} at ({m},{n},{k})");
            }
        }
    }

    #[test]
    fn transposed_operand_gives_the_same_bits_on_the_packed_path() {
        // the last one through the public entry point: 16 * 16 * 1024 is the
        // weight gradient of a `paper`-scale pointwise convolution
        for &(m, n, k) in &[(5, 9, 17), (33, 40, 300), (16, 16, 1024)] {
            let (a, b) = random_mats(m, n, k, 13);
            let bt: Vec<f32> = (0..n * k).map(|at| b[at % k * n + at / k]).collect();
            let mut plain = vec![0.5; m * n];
            gemm_packed(m, n, k, &a, Rhs::Plain(&b), None, &mut plain);
            let mut transposed = vec![0.5; m * n];
            gemm_packed(m, n, k, &a, Rhs::Transposed(&bt), None, &mut transposed);
            assert_eq!(plain, transposed, "({m},{n},{k})");
            if m * n * k > SMALL {
                let mut public = vec![0.5; m * n];
                gemm_nt(m, n, k, &a, &bt, &mut public);
                assert_eq!(plain, public, "gemm_nt ({m},{n},{k})");
            }
        }
    }

    #[test]
    fn accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 0.0, 0.0, 2.0];
        let mut c = vec![1.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![3.0, 1.0, 1.0, 3.0]);
    }

    #[test]
    fn bias_broadcast_per_row() {
        let a = [1.0, 1.0]; // 2x1
        let b = [1.0, 2.0, 3.0]; // 1x3
        let bias = [10.0, 20.0];
        let mut c = vec![0.0; 6];
        gemm_bias(2, 3, 1, &a, &b, &bias, &mut c);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    fn bias_fusion_matches_two_pass() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for &(m, n, k) in &[(5, 9, 17), (33, 40, 300), (17, 129, 64)] {
            let (a, b) = random_mats(m, n, k, 11);
            let mut rng = StdRng::seed_from_u64(99);
            let bias: Vec<f32> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
            // fused epilogue, forced through the packed path
            let mut fused = vec![f32::NAN; m * n]; // NAN: proves overwrite
            gemm_packed(m, n, k, &a, Rhs::Plain(&b), Some(&bias), &mut fused);
            // two-pass reference: fill rows then accumulate
            let mut two_pass = vec![0.0; m * n];
            for i in 0..m {
                two_pass[i * n..(i + 1) * n].fill(bias[i]);
            }
            gemm_naive(m, n, k, &a, &b, &mut two_pass);
            for (x, y) in fused.iter().zip(two_pass.iter()) {
                assert!((x - y).abs() < 1e-3, "({m},{n},{k}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_bias_overwrites_stale_c() {
        // Large enough for the packed path via the public entry point.
        let (m, n, k) = (16, 64, 64);
        let (a, b) = random_mats(m, n, k, 5);
        let bias = vec![0.25f32; m];
        let mut c1 = vec![123.0f32; m * n];
        let mut c2 = vec![-55.0f32; m * n];
        gemm_bias(m, n, k, &a, &b, &bias, &mut c1);
        gemm_bias(m, n, k, &a, &b, &bias, &mut c2);
        assert_eq!(c1, c2, "gemm_bias must not depend on prior c contents");
    }

    #[test]
    fn multiple_k_blocks_accumulate_once() {
        // k > KC exercises the multi-depth-block path; bias must be applied
        // exactly once.
        let (m, n, k) = (9, 21, 2 * KC + 37);
        let (a, b) = random_mats(m, n, k, 21);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.5 - 2.0).collect();
        let mut fused = vec![0.0; m * n];
        gemm_packed(m, n, k, &a, Rhs::Plain(&b), Some(&bias), &mut fused);
        let mut want = reference(m, n, k, &a, &b);
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] += bias[i];
            }
        }
        for (x, y) in fused.iter().zip(want.iter()) {
            assert!((x - y).abs() < 2e-3, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "gemm: a too short")]
    fn panics_on_short_input() {
        let mut c = vec![0.0; 4];
        gemm(2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }
}
