//! Hand-designed fixed models: the "pre-determined structure" baselines
//! the paper argues against (FedAvg rows of Tables III–IV, the ResNet152
//! curve of Figs. 9–11).

use fedrlnas_fed::TrainableModel;
use fedrlnas_nn::{
    AvgPool2d, BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, Mode, Param, ReLU,
};
use fedrlnas_tensor::Tensor;
use rand::Rng;

/// A plain 3-stage CNN (conv-BN-ReLU ×3 with pooling) — the kind of
/// sensible hand-built model a practitioner would deploy without NAS.
#[derive(Clone)]
pub struct SimpleCnn {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: ReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu2: ReLU,
    pool: AvgPool2d,
    conv3: Conv2d,
    bn3: BatchNorm2d,
    relu3: ReLU,
    gap: GlobalAvgPool,
    classifier: Linear,
}

impl std::fmt::Debug for SimpleCnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimpleCnn({} -> {})",
            self.conv1.in_channels(),
            self.classifier.out_features()
        )
    }
}

impl SimpleCnn {
    /// Builds the CNN for `in_channels`-channel inputs, `base` feature
    /// maps and `classes` outputs.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        base: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        SimpleCnn {
            conv1: Conv2d::new(in_channels, base, 3, 1, 1, 1, 1, rng),
            bn1: BatchNorm2d::new(base),
            relu1: ReLU::new(),
            conv2: Conv2d::new(base, base * 2, 3, 1, 1, 1, 1, rng),
            bn2: BatchNorm2d::new(base * 2),
            relu2: ReLU::new(),
            pool: AvgPool2d::new(3, 2, 1),
            conv3: Conv2d::new(base * 2, base * 4, 3, 1, 1, 1, 1, rng),
            bn3: BatchNorm2d::new(base * 4),
            relu3: ReLU::new(),
            gap: GlobalAvgPool::new(),
            classifier: Linear::new(base * 4, classes, rng),
        }
    }
}

impl TrainableModel for SimpleCnn {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let h = self
            .relu1
            .forward(&self.bn1.forward(&self.conv1.forward(x, mode), mode), mode);
        let h = self
            .relu2
            .forward(&self.bn2.forward(&self.conv2.forward(&h, mode), mode), mode);
        let h = self.pool.forward(&h, mode);
        let h = self
            .relu3
            .forward(&self.bn3.forward(&self.conv3.forward(&h, mode), mode), mode);
        let h = self.gap.forward(&h, mode);
        self.classifier.forward(&h, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let g = self.classifier.backward(grad_logits);
        let g = self.gap.backward(&g);
        let g = self
            .conv3
            .backward(&self.bn3.backward(&self.relu3.backward(&g)));
        let g = self.pool.backward(&g);
        let g = self
            .conv2
            .backward(&self.bn2.backward(&self.relu2.backward(&g)));
        let _ = self
            .conv1
            .backward(&self.bn1.backward(&self.relu1.backward(&g)));
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        self.conv3.visit_params(f);
        self.bn3.visit_params(f);
        self.classifier.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.bn1.visit_buffers(f);
        self.bn2.visit_buffers(f);
        self.bn3.visit_buffers(f);
    }
}

/// A residual block: `x + conv(BN(ReLU(conv(BN(ReLU(x))))))` with matching
/// channel counts — the building unit of [`ResNetProxy`].
#[derive(Clone)]
struct ResidualBlock {
    relu1: ReLU,
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu2: ReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
}

impl ResidualBlock {
    fn new<R: Rng + ?Sized>(channels: usize, rng: &mut R) -> Self {
        ResidualBlock {
            relu1: ReLU::new(),
            conv1: Conv2d::new(channels, channels, 3, 1, 1, 1, 1, rng),
            bn1: BatchNorm2d::new(channels),
            relu2: ReLU::new(),
            conv2: Conv2d::new(channels, channels, 3, 1, 1, 1, 1, rng),
            bn2: BatchNorm2d::new(channels),
        }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let h = self.bn1.forward(
            &self.conv1.forward(&self.relu1.forward(x, mode), mode),
            mode,
        );
        let h = self.bn2.forward(
            &self.conv2.forward(&self.relu2.forward(&h, mode), mode),
            mode,
        );
        h.add(x).expect("residual shapes match")
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.bn2.backward(grad);
        let g = self.relu2.backward(&self.conv2.backward(&g));
        let g = self.bn1.backward(&g);
        let mut dx = self.relu1.backward(&self.conv1.backward(&g));
        dx.add_assign(grad).expect("skip gradient shapes match");
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.bn1.visit_buffers(f);
        self.bn2.visit_buffers(f);
    }
}

/// The parameter-heavy residual network standing in for the paper's
/// ResNet152 baseline ("FedAvg\*"): deliberately over-parameterized for
/// the proxy datasets so it reproduces the paper's observation that a big
/// pre-defined model overfits non-i.i.d. shards (Fig. 11 discussion).
#[derive(Clone)]
pub struct ResNetProxy {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<ResidualBlock>,
    gap: GlobalAvgPool,
    classifier: Linear,
}

impl std::fmt::Debug for ResNetProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResNetProxy({} blocks)", self.blocks.len())
    }
}

impl ResNetProxy {
    /// Builds the proxy with `blocks` residual blocks of `width` channels.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        width: usize,
        blocks: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        ResNetProxy {
            stem: Conv2d::new(in_channels, width, 3, 1, 1, 1, 1, rng),
            stem_bn: BatchNorm2d::new(width),
            blocks: (0..blocks)
                .map(|_| ResidualBlock::new(width, rng))
                .collect(),
            gap: GlobalAvgPool::new(),
            classifier: Linear::new(width, classes, rng),
        }
    }

    /// The proxy the `run_all` experiments train: wide enough to dwarf any
    /// searched model at the same scale (the paper's 58.2 M vs 3.9 M ratio)
    /// while staying CPU-tractable.
    pub fn paper_proxy<R: Rng + ?Sized>(in_channels: usize, classes: usize, rng: &mut R) -> Self {
        Self::new(in_channels, 28, 4, classes, rng)
    }
}

impl TrainableModel for ResNetProxy {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut h = self.stem_bn.forward(&self.stem.forward(x, mode), mode);
        for b in &mut self.blocks {
            h = b.forward(&h, mode);
        }
        let h = self.gap.forward(&h, mode);
        self.classifier.forward(&h, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let g = self.classifier.backward(grad_logits);
        let mut g = self.gap.backward(&g);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
        }
        self.stem.backward(&self.stem_bn.backward(&g));
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem.visit_params(f);
        self.stem_bn.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.classifier.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.stem_bn.visit_buffers(f);
        for b in &mut self.blocks {
            b.visit_buffers(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn simple_cnn_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = SimpleCnn::new(3, 4, 10, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = m.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 10]);
        m.backward(&Tensor::ones(y.dims()));
        let mut g = 0.0f32;
        m.visit_params(&mut |p| g += p.grad.norm());
        assert!(g > 0.0);
    }

    #[test]
    fn residual_block_gradient_includes_skip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = ResidualBlock::new(2, &mut rng);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = b.forward(&x, Mode::Train);
        assert_eq!(y.dims(), x.dims());
        // numeric gradient check through the skip connection
        let ones = Tensor::ones(y.dims());
        let dx = b.backward(&ones);
        let eps = 1e-2f32;
        let mut xp = x.clone();
        for idx in [0usize, 7, 15] {
            let orig = xp.as_slice()[idx];
            xp.as_mut_slice()[idx] = orig + eps;
            let fp = b.forward(&xp, Mode::Train).sum();
            xp.as_mut_slice()[idx] = orig - eps;
            let fm = b.forward(&xp, Mode::Train).sum();
            xp.as_mut_slice()[idx] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.as_slice()[idx]).abs() < 5e-2,
                "residual dx mismatch at {idx}: {num} vs {}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn resnet_proxy_is_much_bigger_than_simple_cnn() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut small = SimpleCnn::new(3, 4, 10, &mut rng);
        let mut big = ResNetProxy::paper_proxy(3, 10, &mut rng);
        assert!(
            big.param_count() > 10 * small.param_count(),
            "{} vs {}",
            big.param_count(),
            small.param_count()
        );
    }

    #[test]
    fn resnet_proxy_trains() {
        use fedrlnas_nn::{CrossEntropy, Sgd, SgdConfig};
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = ResNetProxy::new(3, 8, 2, 10, &mut rng);
        let x = Tensor::randn(&[4, 3, 8, 8], 1.0, &mut rng);
        let labels = [0usize, 1, 2, 3];
        let mut ce = CrossEntropy::new();
        let mut sgd = Sgd::new(SgdConfig::default());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..15 {
            m.zero_grad();
            let logits = m.forward(&x, Mode::Train);
            let out = ce.forward(&logits, &labels);
            first.get_or_insert(out.loss);
            last = out.loss;
            let dl = ce.backward();
            m.backward(&dl);
            sgd.step_visitor(|f| m.visit_params(f));
        }
        assert!(last < first.expect("set") * 0.9, "{first:?} -> {last}");
    }
}
