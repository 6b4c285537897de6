//! Register-blocked GEMM for problems too small to pack.
//!
//! At `m * n * k <=` `SMALL` — every pointwise convolution of
//! the `tiny` and `small` presets — packing costs more than it saves, and the
//! scalar loop it used to fall back to ([`gemm_naive`](crate::gemm_naive))
//! leaves the vector units idle. This kernel computes what that loop computes,
//! **bit for bit**, with the work laid out for them.
//!
//! # The contract
//!
//! Every element of `c` is one chain of dependent operations, and the kernel
//! may not touch a chain's order or its roundings:
//!
//! * the chain starts from the bias (for [`gemm_bias`](crate::gemm_bias)) or
//!   from the element's prior contents;
//! * `p` ascends from `0` to `k`;
//! * each step is a multiply rounded to `f32`, *then* an add rounded to `f32`
//!   — never a fused multiply-add, whose single rounding gives other bits;
//! * a step whose `a[i, p]` equals `0.0` (either sign) is skipped, not
//!   computed: `0 * inf` is NaN and `-0.0 + 0 * x` is `+0.0`, so computing it
//!   is visible.
//!
//! What is free is which chains advance together. A tile holds `R` rows by
//! `NV` vectors of `c` in registers for the whole `k` loop, so `c` is read and
//! written once and the `R * NV` chains hide each other's add latency; one
//! load of a `b` vector serves all `R` rows. The `n` tail is a narrower vector
//! (masked), never a scalar loop, and the zero test selects per (row, `p`)
//! between the old and the new accumulator instead of branching: the inputs
//! of a pointwise convolution are often the output of a ReLU, about half
//! zeros in no order a predictor could learn.
//!
//! One generic body, instantiated per instruction set behind [`Lanes`] and
//! chosen once at run time; the portable instantiation is the same chains on
//! four-wide arrays and is what the other is tested against.
//!
//! There is no 512-bit instantiation, on purpose. One existed (sixteen
//! lanes, the skip as the add's write mask) and was two to three times
//! faster than the AVX2 one in a loop of nothing but GEMMs. But these
//! products are microseconds long and sit between scalar code, and there it
//! lost: a search over a thousand `tiny` participants ran no faster with it
//! than with AVX2 and, unlike with AVX2, at a speed that differed from one
//! run to the next on a quiet machine (DESIGN §4k has the runs). The likely
//! cause is the clock change a core makes on entering and leaving 512-bit
//! arithmetic; the virtual machine this was measured on exposes no counter
//! to confirm it.

/// Where `b[p, j]` lives: row-major `k x n`, or row-major `n x k` — the
/// transposed operand of [`gemm_nt`](crate::gemm_nt), read as it lies.
#[derive(Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// `b[p * n + j]`.
    Plain(&'a [f32]),
    /// `b[j * k + p]`.
    Transposed(&'a [f32]),
}

/// One instruction set's vector of `N` neighbouring columns of `c`.
///
/// # Safety
///
/// The methods of an implementation may only be called where its
/// instructions are available: from inside a `#[target_feature]` function
/// selected by [`select`] after checking the CPU.
trait Lanes: Copy {
    /// Columns per vector.
    const N: usize;
    /// Selects the first `len` lanes of a load or store.
    type Mask: Copy;
    /// One `a[i, p]`, ready to multiply a vector and to be tested for zero.
    type Scale: Copy;

    /// The mask of the first `len <= N` lanes.
    unsafe fn mask(len: usize) -> Self::Mask;
    /// `v` in every lane.
    unsafe fn splat(v: f32) -> Self;
    /// Lane `l` = `ptr[l]` under the mask, `0.0` elsewhere; masked-out
    /// addresses are not accessed.
    unsafe fn load(ptr: *const f32, mask: Self::Mask) -> Self;
    /// Lane `l` = `ptr[l * stride]` under the mask, `0.0` elsewhere.
    unsafe fn load_strided(ptr: *const f32, stride: usize, mask: Self::Mask) -> Self;
    /// Writes the masked lanes to `ptr[l]`.
    unsafe fn store(self, ptr: *mut f32, mask: Self::Mask);
    /// Prepares `a` for [`Lanes::step`].
    unsafe fn scale(a: f32) -> Self::Scale;
    /// One step of the chains in `self`: `self + a * b`, the product rounded
    /// before the sum — or `self` untouched when `a == 0.0`.
    unsafe fn step(self, a: Self::Scale, b: Self) -> Self;
}

/// Any target: four-wide arrays the optimizer keeps in whatever registers
/// there are. The skip is a branch here.
impl Lanes for [f32; 4] {
    const N: usize = 4;
    type Mask = usize;
    type Scale = f32;

    #[inline(always)]
    unsafe fn mask(len: usize) -> usize {
        len
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; 4]
    }
    #[inline(always)]
    unsafe fn load(ptr: *const f32, len: usize) -> Self {
        Self::load_strided(ptr, 1, len)
    }
    #[inline(always)]
    unsafe fn load_strided(ptr: *const f32, stride: usize, len: usize) -> Self {
        // SAFETY: the caller guarantees `len` strided elements at `ptr`.
        std::array::from_fn(|l| if l < len { *ptr.add(l * stride) } else { 0.0 })
    }
    #[inline(always)]
    unsafe fn store(self, ptr: *mut f32, len: usize) {
        for (l, v) in self.into_iter().enumerate().take(len) {
            // SAFETY: the caller guarantees `len` writable elements at `ptr`.
            *ptr.add(l) = v;
        }
    }
    #[inline(always)]
    unsafe fn scale(a: f32) -> f32 {
        a
    }
    #[inline(always)]
    unsafe fn step(self, a: f32, b: Self) -> Self {
        if a == 0.0 {
            return self;
        }
        std::array::from_fn(|l| self[l] + a * b[l])
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// `-1` in the lanes to keep, `0` in the rest: `mask(len)` is the eight
    /// entries from `8 - len` on.
    static WINDOW: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// AVX2: 8 lanes, 16 registers. The skip is a blend on a compare of the
    /// broadcast `a` — all ones or all zeros across the vector.
    impl Lanes for __m256 {
        const N: usize = 8;
        type Mask = __m256i;
        type Scale = (__m256, __m256);

        #[inline(always)]
        unsafe fn mask(len: usize) -> __m256i {
            debug_assert!(len <= 8);
            // SAFETY: `8 - len ..` leaves eight entries of the sixteen.
            _mm256_loadu_si256(WINDOW.as_ptr().add(8 - len).cast())
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(ptr: *const f32, mask: __m256i) -> Self {
            _mm256_maskload_ps(ptr, mask)
        }
        #[inline(always)]
        unsafe fn load_strided(ptr: *const f32, stride: usize, mask: __m256i) -> Self {
            let at = _mm256_mullo_epi32(
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                _mm256_set1_epi32(stride as i32),
            );
            _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), ptr, at, _mm256_castsi256_ps(mask))
        }
        #[inline(always)]
        unsafe fn store(self, ptr: *mut f32, mask: __m256i) {
            _mm256_maskstore_ps(ptr, mask, self)
        }
        #[inline(always)]
        unsafe fn scale(a: f32) -> Self::Scale {
            let a = _mm256_set1_ps(a);
            // unordered-or-unequal: NaN is not zero, as in `a == 0.0`
            (a, _mm256_cmp_ps::<_CMP_NEQ_UQ>(a, _mm256_setzero_ps()))
        }
        #[inline(always)]
        unsafe fn step(self, (a, nonzero): Self::Scale, b: Self) -> Self {
            _mm256_blendv_ps(self, _mm256_add_ps(self, _mm256_mul_ps(a, b)), nonzero)
        }
    }
}

/// One problem: the dimensions and the four operands as raw parts. `bias` is
/// null for an accumulating product.
#[derive(Clone, Copy)]
struct Problem {
    m: usize,
    n: usize,
    k: usize,
    a: *const f32,
    b: *const f32,
    bias: *const f32,
    c: *mut f32,
}

/// The `R x (NV * V::N)` tile of `c` at `(i0, j0)`, `cols` columns wide:
/// preload, run every chain over the whole of `k`, store.
///
/// # Safety
///
/// `V`'s instructions are available, the problem's pointers cover its
/// dimensions, `i0 + R <= m` and `j0 + cols <= n` with
/// `(NV - 1) * V::N < cols <= NV * V::N`.
#[inline(always)]
unsafe fn tile<V: Lanes, const R: usize, const NV: usize, const BT: bool>(
    q: Problem,
    i0: usize,
    j0: usize,
    cols: usize,
) {
    let masks: [V::Mask; NV] = std::array::from_fn(|v| V::mask((cols - v * V::N).min(V::N)));
    let mut acc: [[V; NV]; R] = std::array::from_fn(|r| {
        std::array::from_fn(|v| {
            if q.bias.is_null() {
                V::load(q.c.add((i0 + r) * q.n + j0 + v * V::N), masks[v])
            } else {
                V::splat(*q.bias.add(i0 + r))
            }
        })
    });
    for p in 0..q.k {
        let b: [V; NV] = std::array::from_fn(|v| {
            let j = j0 + v * V::N;
            if BT {
                V::load_strided(q.b.add(j * q.k + p), q.k, masks[v])
            } else {
                V::load(q.b.add(p * q.n + j), masks[v])
            }
        });
        for (r, row) in acc.iter_mut().enumerate() {
            let a = V::scale(*q.a.add((i0 + r) * q.k + p));
            for (chain, bv) in row.iter_mut().zip(b) {
                *chain = chain.step(a, bv);
            }
        }
    }
    for (r, row) in acc.into_iter().enumerate() {
        for (v, chain) in row.into_iter().enumerate() {
            chain.store(q.c.add((i0 + r) * q.n + j0 + v * V::N), masks[v]);
        }
    }
}

/// All rows of the column panel at `j0`: tiles of four rows, then of two,
/// then a single row — a short tile has fewer chains to
/// overlap, so the remainder is taken in the fewest pieces.
///
/// # Safety
///
/// As [`tile`], for every row.
#[inline(always)]
unsafe fn panel<V: Lanes, const NV: usize, const BT: bool>(q: Problem, j0: usize, cols: usize) {
    let mut i0 = 0;
    while i0 + 4 <= q.m {
        tile::<V, 4, NV, BT>(q, i0, j0, cols);
        i0 += 4;
    }
    if i0 + 2 <= q.m {
        tile::<V, 2, NV, BT>(q, i0, j0, cols);
        i0 += 2;
    }
    if i0 < q.m {
        tile::<V, 1, NV, BT>(q, i0, j0, cols);
    }
}

/// The whole of `c`, in column panels of two vectors (one for the last,
/// when that is all that is left).
///
/// # Safety
///
/// `V`'s instructions are available and the problem's pointers cover its
/// dimensions.
#[inline(always)]
unsafe fn run<V: Lanes, const BT: bool>(q: Problem) {
    let mut j0 = 0;
    while j0 < q.n {
        let cols = (q.n - j0).min(2 * V::N);
        if cols > V::N {
            panel::<V, 2, BT>(q, j0, cols);
        } else {
            panel::<V, 1, BT>(q, j0, cols);
        }
        j0 += cols;
    }
}

/// A [`run`] instantiation: `(problem, b is transposed)`.
type Kernel = unsafe fn(Problem, bool);

/// # Safety
///
/// The problem's pointers cover its dimensions.
unsafe fn run_portable(q: Problem, transposed: bool) {
    if transposed {
        run::<[f32; 4], true>(q)
    } else {
        run::<[f32; 4], false>(q)
    }
}

/// # Safety
///
/// The CPU supports `avx2`, and the problem's pointers cover its dimensions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_avx2(q: Problem, transposed: bool) {
    use std::arch::x86_64::__m256;
    if transposed {
        run::<__m256, true>(q)
    } else {
        run::<__m256, false>(q)
    }
}

/// Whether this CPU runs the AVX2 instantiations of the dispatched kernels
/// — the small-problem GEMM, the depthwise convolution and the pooling
/// windows — rather than their portable ones. Checked once per process, so
/// every kernel makes the same choice for the whole run.
pub fn has_avx2() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The instantiation this CPU runs.
fn select() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if has_avx2() {
            return run_avx2;
        }
    }
    run_portable
}

/// `c = bias (or c) + a x b` for a problem at or below `SMALL`, on the
/// kernel [`select`] chose (cached for the process).
pub(crate) fn gemm_small(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Rhs<'_>,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    static KERNEL: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    run_on(*KERNEL.get_or_init(select), m, n, k, a, b, bias, c);
}

#[allow(clippy::too_many_arguments)]
fn run_on(
    kernel: Kernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Rhs<'_>,
    bias: Option<&[f32]>,
    c: &mut [f32],
) {
    let (b, transposed) = match b {
        Rhs::Plain(b) => (b, false),
        Rhs::Transposed(b) => (b, true),
    };
    // Everything the unsafe body relies on: the slices cover the dimensions,
    // and a gather's 32-bit lane offsets (`lane * k`, at most 15 * k) fit.
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    assert!(bias.is_none_or(|bias| bias.len() >= m));
    assert!(k <= i32::MAX as usize / 16);
    let q = Problem {
        m,
        n,
        k,
        a: a.as_ptr(),
        b: b.as_ptr(),
        bias: bias.map_or(std::ptr::null(), <[f32]>::as_ptr),
        c: c.as_mut_ptr(),
    };
    // SAFETY: `kernel` is the portable build or one whose CPU features
    // `select` verified; the asserts above are its bounds.
    unsafe { kernel(q, transposed) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm_naive;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Every instantiation this CPU can run — the portable one first — so
    /// the vector builds are checked against the reference on the machine
    /// that has them, whichever of them [`select`] prefers.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> = vec![("portable", run_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(("avx2", run_avx2));
            }
        }
        all
    }

    /// The same bits in every element — except, where `two_nans` says so, any
    /// NaN for any NaN.
    fn assert_same(what: &str, got: &[f32], want: &[f32], two_nans: &[bool]) {
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (two_nans[at] && g.is_nan() && w.is_nan()),
                "{what}: element {at} is {g:e} ({:#010x}), reference {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The elements whose chain, started from `start`, adds a NaN product to
    /// an accumulator that already holds a different NaN (`inf - inf` met a
    /// NaN of `b`). An x86 add of two NaNs hands on its first operand and the
    /// compiler may commute the reference loop's add, so which of the two such
    /// an element ends as is outside the contract; that it is NaN is not.
    fn two_nans_meet(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        start: &[f32],
    ) -> Vec<bool> {
        let mut acc = start.to_vec();
        let mut met = vec![false; m * n];
        for i in 0..m {
            for p in (0..k).filter(|&p| a[i * k + p] != 0.0) {
                for j in 0..n {
                    let (at, product) = (i * n + j, a[i * k + p] * b[p * n + j]);
                    met[at] |= acc[at].is_nan()
                        && product.is_nan()
                        && acc[at].to_bits() != product.to_bits();
                    acc[at] += product;
                }
            }
        }
        met
    }

    /// `len` draws from `-1..1` with every `special` value mixed in at about
    /// one element in eight.
    fn draws(rng: &mut StdRng, len: usize, special: &[f32]) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_range(0..8) == 0 {
                    special[rng.gen_range(0..special.len())]
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect()
    }

    fn transposed(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        (0..n * k).map(|at| b[at % k * n + at / k]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `gemm`, `gemm_bias` and `gemm_nt` on every instantiation against
        /// the scalar loop, bit for bit, on inputs where each clause of the
        /// contract is visible: exact zeros of both signs in `a` against
        /// infinities and NaN in `b` (a computed skip would be NaN), `-0.0`
        /// in the initial `c` and the bias (a computed skip would flip it),
        /// long chains (an FMA or a reversed `k` would round differently).
        #[test]
        fn every_instantiation_equals_the_scalar_loop_bit_for_bit(
            // 1..=40 covers every tail width of every vector width; 144 is
            // the first stage of `small`
            n_draw in 0usize..41, m_draw in 0usize..64, k_draw in 0usize..200, seed in 0u64..1 << 32,
        ) {
            let n = if n_draw == 0 { 144 } else { n_draw };
            let m = 1 + m_draw % (crate::gemm::SMALL / n).min(40);
            let k = k_draw % (crate::gemm::SMALL / (m * n) + 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let a = draws(&mut rng, m * k, &[0.0, -0.0]);
            let b = draws(&mut rng, k * n, &[f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 0.0]);
            let c0 = draws(&mut rng, m * n, &[-0.0, 0.0]);
            let bias = draws(&mut rng, m, &[-0.0]);
            let bt = transposed(&b, k, n);

            let mut want = c0.clone();
            gemm_naive(m, n, k, &a, &b, &mut want);
            let loose = two_nans_meet(m, n, k, &a, &b, &c0);
            let mut biased = vec![0.0f32; m * n];
            for (row, &v) in biased.chunks_exact_mut(n).zip(&bias) {
                row.fill(v);
            }
            let loose_bias = two_nans_meet(m, n, k, &a, &b, &biased);
            let mut want_bias = biased;
            gemm_naive(m, n, k, &a, &b, &mut want_bias);

            for (name, kernel) in kernels() {
                let what = format!("{name} {m}x{n}x{k} seed {seed}");
                let mut c = c0.clone();
                run_on(kernel, m, n, k, &a, Rhs::Plain(&b), None, &mut c);
                assert_same(&format!("gemm {what}"), &c, &want, &loose);
                let mut c = c0.clone();
                run_on(kernel, m, n, k, &a, Rhs::Transposed(&bt), None, &mut c);
                assert_same(&format!("gemm_nt {what}"), &c, &want, &loose);
                // stale NaN: the bias form must overwrite
                let mut c = vec![f32::NAN; m * n];
                run_on(kernel, m, n, k, &a, Rhs::Plain(&b), Some(&bias), &mut c);
                assert_same(&format!("gemm_bias {what}"), &c, &want_bias, &loose_bias);
            }
        }
    }

    #[test]
    fn the_public_entry_points_reach_this_kernel() {
        // 8 x 9 x 8: a masked tail on every instantiation
        let (m, n, k) = (8, 9, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let a = draws(&mut rng, m * k, &[0.0]);
        let b = draws(&mut rng, k * n, &[f32::INFINITY]);
        let mut want = vec![0.5f32; m * n];
        gemm_naive(m, n, k, &a, &b, &mut want);
        let mut c = vec![0.5f32; m * n];
        crate::gemm(m, n, k, &a, &b, &mut c);
        assert_same("gemm", &c, &want, &[false; 8 * 9]);
        let mut c = vec![0.5f32; m * n];
        crate::gemm_nt(m, n, k, &a, &transposed(&b, k, n), &mut c);
        assert_same("gemm_nt", &c, &want, &[false; 8 * 9]);
    }

    #[test]
    fn nothing_outside_the_problem_is_touched() {
        // c longer than m * n, a tail narrower than any vector: the masked
        // stores must stop at the row's end
        let (m, n, k) = (3, 5, 2);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        for (name, kernel) in kernels() {
            let mut c = vec![7.0f32; m * n + 16];
            run_on(kernel, m, n, k, &a, Rhs::Plain(&b), None, &mut c);
            assert!(c[..m * n].iter().all(|&v| v == 9.0), "{name}");
            assert!(c[m * n..].iter().all(|&v| v == 7.0), "{name}");
        }
    }
}
