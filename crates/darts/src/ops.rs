//! The eight DARTS candidate operations (paper Fig. 1).
//!
//! Every operation preserves channel count and, for a common stride,
//! produces identical spatial extents, so any operation can occupy any edge
//! of a cell. Every weighted operation — strided skip, separable and
//! dilated separable convolution — and the cell preprocessors are one
//! concrete `Clone`-able block, [`ReluConvBn`], so the supernet can
//! extract/merge sub-model weights structurally.
//!
//! Simplification vs. the original DARTS code, documented in DESIGN.md:
//! separable convolutions apply the (ReLU → depthwise → pointwise → BN)
//! block once rather than twice, and the factorized reduce uses a single
//! strided 1x1 convolution; neither changes which operations the search can
//! distinguish at proxy scale.

use fedrlnas_nn::{AvgPool2d, BatchNorm2d, Conv2d, Layer, MaxPool2d, Mode, Param, ReLU};
use fedrlnas_tensor::{Conv2dGeometry, Tensor};
use rand::Rng;

/// Number of candidate operations per edge (`N` in the paper).
pub const NUM_OPS: usize = 8;

/// The candidate operation set of the DARTS search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// No connection (outputs zeros).
    Zero,
    /// Identity at stride 1, factorized reduce at stride 2.
    SkipConnect,
    /// 3x3 max pooling.
    MaxPool3x3,
    /// 3x3 average pooling.
    AvgPool3x3,
    /// 3x3 depthwise-separable convolution.
    SepConv3x3,
    /// 5x5 depthwise-separable convolution.
    SepConv5x5,
    /// 3x3 dilated (rate 2) separable convolution.
    DilConv3x3,
    /// 5x5 dilated (rate 2) separable convolution.
    DilConv5x5,
}

impl OpKind {
    /// All eight operations, in the canonical index order used by the
    /// architecture parameter matrix α.
    pub const ALL: [OpKind; NUM_OPS] = [
        OpKind::Zero,
        OpKind::SkipConnect,
        OpKind::MaxPool3x3,
        OpKind::AvgPool3x3,
        OpKind::SepConv3x3,
        OpKind::SepConv5x5,
        OpKind::DilConv3x3,
        OpKind::DilConv5x5,
    ];

    /// Canonical index of this operation in [`OpKind::ALL`].
    pub fn index(self) -> usize {
        OpKind::ALL
            .iter()
            .position(|&o| o == self)
            .expect("op in ALL")
    }

    /// Short lowercase name matching the DARTS genotype convention.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Zero => "none",
            OpKind::SkipConnect => "skip_connect",
            OpKind::MaxPool3x3 => "max_pool_3x3",
            OpKind::AvgPool3x3 => "avg_pool_3x3",
            OpKind::SepConv3x3 => "sep_conv_3x3",
            OpKind::SepConv5x5 => "sep_conv_5x5",
            OpKind::DilConv3x3 => "dil_conv_3x3",
            OpKind::DilConv5x5 => "dil_conv_5x5",
        }
    }

    /// Returns `true` for parameterized operations (convolutions), which
    /// dominate sub-model size; used by the warm-up fairness argument
    /// (§VI-A) and tests.
    pub fn has_weights(self) -> bool {
        matches!(
            self,
            OpKind::SepConv3x3 | OpKind::SepConv5x5 | OpKind::DilConv3x3 | OpKind::DilConv5x5
        )
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The "none" operation: outputs zeros with the edge's stride applied.
#[derive(Debug, Clone)]
pub struct ZeroOp {
    stride: usize,
    in_dims: Vec<usize>,
}

impl ZeroOp {
    /// Creates a zero op with the given stride.
    pub fn new(stride: usize) -> Self {
        ZeroOp {
            stride,
            in_dims: Vec::new(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        // Matches the (kernel 3, padding 1) geometry every other op obeys.
        let g = Conv2dGeometry::new(h, w, 3, self.stride, 1, 1);
        (g.out_h, g.out_w)
    }
}

impl Layer for ZeroOp {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let d = x.dims();
        let (oh, ow) = self.out_hw(d[2], d[3]);
        if mode == Mode::Train {
            self.in_dims = d.to_vec();
        }
        Tensor::zeros(&[d[0], d[1], oh, ow])
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        assert!(!self.in_dims.is_empty(), "zero op backward before forward");
        Tensor::zeros(&self.in_dims)
    }

    fn flops(&self, _input: &[usize]) -> u64 {
        0
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.out_hw(input[1], input[2]);
        vec![input[0], oh, ow]
    }
}

/// Identity (skip connection at stride 1).
#[derive(Debug, Clone, Default)]
pub struct IdentityOp;

impl IdentityOp {
    /// Creates an identity op.
    pub fn new() -> Self {
        IdentityOp
    }
}

impl Layer for IdentityOp {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn flops(&self, _input: &[usize]) -> u64 {
        0
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }
}

/// The one convolutional block of the search space: ReLU → (depthwise kxk)
/// → 1x1 conv → BatchNorm.
///
/// Without the depthwise stage it is a cell preprocessor mapping one channel
/// count to another, and at stride 2 with equal channels also the strided
/// skip (factorized reduce). With it, it is a separable or dilated separable
/// convolution: the depthwise stage carries the kernel, stride and dilation,
/// the 1x1 conv is the pointwise stage.
#[derive(Debug, Clone)]
pub struct ReluConvBn {
    relu: ReLU,
    depthwise: Option<Conv2d>,
    conv: Conv2d,
    bn: BatchNorm2d,
}

impl ReluConvBn {
    /// Creates a block mapping `in_channels` to `out_channels` through a
    /// 1x1 convolution at the given stride.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        ReluConvBn {
            relu: ReLU::new(),
            depthwise: None,
            conv: Conv2d::new(in_channels, out_channels, 1, stride, 0, 1, 1, rng),
            bn: BatchNorm2d::new(out_channels),
        }
    }

    /// Creates a separable convolution preserving `channels`: a depthwise
    /// `kernel`x`kernel` stage at `stride` and `dilation` with "same"
    /// padding `dilation·(kernel−1)/2`, then the pointwise 1x1 stage. The
    /// depthwise weights are drawn first.
    pub fn separable<R: Rng + ?Sized>(
        channels: usize,
        kernel: usize,
        stride: usize,
        dilation: usize,
        rng: &mut R,
    ) -> Self {
        let padding = dilation * (kernel - 1) / 2;
        let depthwise = Conv2d::new(
            channels, channels, kernel, stride, padding, dilation, channels, rng,
        );
        ReluConvBn {
            relu: ReLU::new(),
            depthwise: Some(depthwise),
            conv: Conv2d::new(channels, channels, 1, 1, 0, 1, 1, rng),
            bn: BatchNorm2d::new(channels),
        }
    }
}

impl Layer for ReluConvBn {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut a = self.relu.forward(x, mode);
        if let Some(dw) = &mut self.depthwise {
            a = dw.forward(&a, mode);
        }
        let b = self.conv.forward(&a, mode);
        self.bn.forward(&b, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.bn.backward(grad_out);
        let mut g = self.conv.backward(&g);
        if let Some(dw) = &mut self.depthwise {
            g = dw.backward(&g);
        }
        self.relu.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        if let Some(dw) = &mut self.depthwise {
            dw.visit_params(f);
        }
        self.conv.visit_params(f);
        self.bn.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.bn.visit_buffers(f);
    }

    fn release(&mut self) {
        self.relu.release();
        if let Some(dw) = &mut self.depthwise {
            dw.release();
        }
        self.conv.release();
        self.bn.release();
    }

    fn cache_bytes(&self) -> usize {
        let dw = self.depthwise.as_ref().map_or(0, |dw| dw.cache_bytes());
        self.relu.cache_bytes() + dw + self.conv.cache_bytes() + self.bn.cache_bytes()
    }

    fn flops(&self, input: &[usize]) -> u64 {
        let mut s = input.to_vec();
        let mut total = self.relu.flops(&s);
        s = self.relu.output_shape(&s);
        if let Some(dw) = &self.depthwise {
            total += dw.flops(&s);
            s = dw.output_shape(&s);
        }
        total += self.conv.flops(&s);
        s = self.conv.output_shape(&s);
        total + self.bn.flops(&s)
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut s = self.relu.output_shape(input);
        if let Some(dw) = &self.depthwise {
            s = dw.output_shape(&s);
        }
        self.bn.output_shape(&self.conv.output_shape(&s))
    }
}

/// A candidate operation instantiated on a specific edge: one of the eight
/// [`OpKind`]s with concrete weights.
///
/// This enum (rather than `Box<dyn Layer>`) keeps operations `Clone`-able so
/// sub-models can be extracted from and merged back into the supernet
/// structurally.
#[derive(Debug, Clone)]
pub enum CandidateOp {
    /// No connection.
    Zero(ZeroOp),
    /// Identity skip.
    Identity(IdentityOp),
    /// 3x3 max pool.
    MaxPool(MaxPool2d),
    /// 3x3 avg pool.
    AvgPool(AvgPool2d),
    /// Strided skip, separable or dilated separable conv (boxed: the block
    /// is over ten times the size of any other variant).
    Conv(Box<ReluConvBn>),
}

impl CandidateOp {
    /// Instantiates operation `kind` for an edge with `channels` feature
    /// maps and the given stride.
    pub fn build<R: Rng + ?Sized>(
        kind: OpKind,
        channels: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let conv = |block| CandidateOp::Conv(Box::new(block));
        let sep = |kernel, dilation, rng: &mut R| {
            conv(ReluConvBn::separable(
                channels, kernel, stride, dilation, rng,
            ))
        };
        match kind {
            OpKind::Zero => CandidateOp::Zero(ZeroOp::new(stride)),
            OpKind::SkipConnect if stride == 1 => CandidateOp::Identity(IdentityOp::new()),
            OpKind::SkipConnect => conv(ReluConvBn::new(channels, channels, stride, rng)),
            OpKind::MaxPool3x3 => CandidateOp::MaxPool(MaxPool2d::new(3, stride, 1)),
            OpKind::AvgPool3x3 => CandidateOp::AvgPool(AvgPool2d::new(3, stride, 1)),
            OpKind::SepConv3x3 => sep(3, 1, rng),
            OpKind::SepConv5x5 => sep(5, 1, rng),
            OpKind::DilConv3x3 => sep(3, 2, rng),
            OpKind::DilConv5x5 => sep(5, 2, rng),
        }
    }

    fn inner(&self) -> &dyn Layer {
        match self {
            CandidateOp::Zero(l) => l,
            CandidateOp::Identity(l) => l,
            CandidateOp::MaxPool(l) => l,
            CandidateOp::AvgPool(l) => l,
            CandidateOp::Conv(l) => &**l,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn Layer {
        match self {
            CandidateOp::Zero(l) => l,
            CandidateOp::Identity(l) => l,
            CandidateOp::MaxPool(l) => l,
            CandidateOp::AvgPool(l) => l,
            CandidateOp::Conv(l) => &mut **l,
        }
    }
}

impl Layer for CandidateOp {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.inner_mut().forward(x, mode)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.inner_mut().backward(grad_out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner_mut().visit_params(f)
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.inner_mut().visit_buffers(f)
    }

    fn release(&mut self) {
        self.inner_mut().release()
    }

    fn cache_bytes(&self) -> usize {
        self.inner().cache_bytes()
    }

    fn flops(&self, input: &[usize]) -> u64 {
        self.inner().flops(input)
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        self.inner().output_shape(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn op_indices_round_trip() {
        for (i, op) in OpKind::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn all_ops_agree_on_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        for stride in [1usize, 2] {
            let mut shapes = Vec::new();
            for kind in OpKind::ALL {
                let mut op = CandidateOp::build(kind, 4, stride, &mut rng);
                let x = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
                let y = op.forward(&x, Mode::Eval);
                shapes.push((kind, y.dims().to_vec()));
            }
            let first = shapes[0].1.clone();
            for (kind, s) in &shapes {
                assert_eq!(s, &first, "{kind} disagrees at stride {stride}");
            }
        }
    }

    #[test]
    fn zero_op_outputs_zeros_and_zero_grad() {
        let mut op = ZeroOp::new(2);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = op.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        assert_eq!(y.sum(), 0.0);
        let dx = op.backward(&Tensor::ones(y.dims()));
        assert_eq!(dx.sum(), 0.0);
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn skip_connect_is_identity_at_stride_1() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut op = CandidateOp::build(OpKind::SkipConnect, 3, 1, &mut rng);
        let x = Tensor::randn(&[1, 3, 4, 4], 1.0, &mut rng);
        assert_eq!(op.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn grad_check_each_parameterized_op() {
        let mut rng = StdRng::seed_from_u64(2);
        for kind in [
            OpKind::SepConv3x3,
            OpKind::SepConv5x5,
            OpKind::DilConv3x3,
            OpKind::DilConv5x5,
            OpKind::SkipConnect,
        ] {
            for stride in [1usize, 2] {
                let mut op = CandidateOp::build(kind, 2, stride, &mut rng);
                let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);
                let err = fedrlnas_nn::grad_check_input(&mut op, &x, 1e-2);
                assert!(err < 5e-2, "{kind} stride {stride}: grad error {err}");
            }
        }
    }

    #[test]
    fn weight_ownership_matches_kind() {
        let mut rng = StdRng::seed_from_u64(3);
        for kind in OpKind::ALL {
            let mut op = CandidateOp::build(kind, 4, 1, &mut rng);
            let has = op.param_count() > 0;
            // SkipConnect at stride 1 is identity: weight-free.
            let expect = kind.has_weights();
            assert_eq!(has, expect, "{kind}");
        }
    }

    #[test]
    fn relu_conv_bn_changes_channels() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut pre = ReluConvBn::new(6, 4, 1, &mut rng);
        let x = Tensor::randn(&[1, 6, 5, 5], 1.0, &mut rng);
        assert_eq!(pre.forward(&x, Mode::Eval).dims(), &[1, 4, 5, 5]);
        assert_eq!(pre.output_shape(&[6, 5, 5]), vec![4, 5, 5]);
    }

    #[test]
    fn display_names() {
        assert_eq!(OpKind::SepConv3x3.to_string(), "sep_conv_3x3");
        assert_eq!(OpKind::Zero.to_string(), "none");
    }
}
