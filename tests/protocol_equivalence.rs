//! Protocol-equivalence tests: the distributed computation must agree with
//! its centralized counterpart wherever the paper's math says so.

use fedrlnas::darts::{ArchMask, Supernet, SupernetConfig};
use fedrlnas::data::{AugmentConfig, DatasetSpec, SyntheticDataset};
use fedrlnas::fed::{
    average_flat, flat_params, set_flat_params, FedAvgConfig, FedAvgTrainer, Participant,
    TrainableModel,
};
use fedrlnas::netsim::Environment;
use fedrlnas::nn::{CrossEntropy, Mode, Sgd, SgdConfig};
use rand::{rngs::StdRng, SeedableRng};

fn dataset(rng: &mut StdRng) -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(12, 4), rng)
}

#[test]
fn participant_gradients_equal_direct_training() {
    // A participant's local update on an extracted sub-model, merged back
    // into the supernet, must equal running the same batch directly through
    // the masked supernet (Eq. 10's decomposition requires this).
    let mut rng = StdRng::seed_from_u64(0);
    let data = dataset(&mut rng);
    let config = SupernetConfig::tiny();
    let mut net = Supernet::new(config.clone(), &mut rng);
    let mask = ArchMask::uniform_random(&config, &mut rng);
    let (x, y) = data.batch(&[0, 5, 11]);
    // path A: direct masked training on the supernet
    let mut ce = CrossEntropy::new();
    let logits = net.forward_masked(&x, &mask, Mode::Train);
    ce.forward(&logits, &y);
    let dl = ce.backward();
    net.backward_masked(&dl);
    let mut direct = Vec::new();
    net.visit_params(&mut |p| direct.push(p.grad.clone()));
    net.zero_grad();
    // path B: the federated protocol (extract, train remotely, merge)
    let mut sub = net.extract_submodel(&mask);
    let logits = sub.forward(&x, Mode::Train);
    let mut ce = CrossEntropy::new();
    ce.forward(&logits, &y);
    let dl = ce.backward();
    TrainableModel::backward(&mut sub, &dl);
    net.accumulate_submodel_grads(&mut sub);
    let mut merged = Vec::new();
    net.visit_params(&mut |p| merged.push(p.grad.clone()));
    let mut max_err = 0.0f32;
    for (a, b) in direct.iter().zip(&merged) {
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            max_err = max_err.max((u - v).abs());
        }
    }
    assert!(
        max_err < 1e-4,
        "protocol diverges from direct training by {max_err}"
    );
}

#[test]
fn fedavg_with_one_participant_is_local_sgd() {
    // K = 1, weight of 1: the global model after a round must equal plain
    // local SGD on the single shard.
    let mut rng = StdRng::seed_from_u64(1);
    let data = dataset(&mut rng);
    let config = SupernetConfig::tiny();
    let net = Supernet::new(config.clone(), &mut rng);
    let mask = ArchMask::uniform_random(&config, &mut rng);
    let sub = net.extract_submodel(&mask);
    let fed_cfg = FedAvgConfig {
        local_steps: 3,
        batch_size: 6,
        sgd: SgdConfig::default(),
        dirichlet_beta: None,
        augment: AugmentConfig::none(),
    };
    // federated path
    let mut trainer = FedAvgTrainer::with_partition(
        sub.clone(),
        vec![(0..data.len()).collect()],
        fed_cfg,
        &mut StdRng::seed_from_u64(99),
    );
    trainer.run_round(&data, &mut StdRng::seed_from_u64(7));
    let fed_params = flat_params(trainer.global_mut());
    // direct path: same participant construction and rng stream
    let mut p = Participant::new(
        0,
        (0..data.len()).collect(),
        6,
        AugmentConfig::none(),
        Environment::ALL[0],
        1.0,
        &mut StdRng::seed_from_u64(99),
    );
    let mut local = sub.clone();
    p.local_sgd_steps(
        &mut local,
        &data,
        3,
        SgdConfig::default(),
        &mut StdRng::seed_from_u64(7),
    );
    let direct_params = flat_params(&mut local);
    assert_eq!(fed_params.len(), direct_params.len());
    let max_err = fed_params
        .iter()
        .zip(&direct_params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_err < 1e-5,
        "K=1 FedAvg deviates from local SGD by {max_err}"
    );
}

#[test]
fn weight_average_of_identical_models_is_identity() {
    let mut rng = StdRng::seed_from_u64(2);
    let config = SupernetConfig::tiny();
    let net = Supernet::new(config.clone(), &mut rng);
    let mask = ArchMask::uniform_random(&config, &mut rng);
    let mut sub = net.extract_submodel(&mask);
    let flat = flat_params(&mut sub);
    let avg = average_flat(
        &[flat.clone(), flat.clone(), flat.clone()],
        &[1.0, 2.0, 3.0],
    );
    for (a, b) in avg.iter().zip(&flat) {
        assert!((a - b).abs() < 1e-6);
    }
    set_flat_params(&mut sub, &avg);
    assert_eq!(flat_params(&mut sub), avg);
}

#[test]
fn optimizer_step_matches_hand_computed_update() {
    // the runtime's SGD step against Table I's update rule worked in f64:
    // g' = g·min(1, clip/‖g‖₂) + wd·w, v = mom·v + g', w -= lr·v
    use fedrlnas::nn::Param;
    use fedrlnas::tensor::Tensor;
    let (lr, mom, wd, clip) = (0.1f64, 0.9f64, 0.01f64, 0.5f64);
    let cfg = SgdConfig {
        lr: lr as f32,
        momentum: mom as f32,
        weight_decay: wd as f32,
        clip: clip as f32,
    };
    let grads = [0.3f64, -0.1, -0.7];
    let mut p1 = Param::new(Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap());
    let mut p2 = Param::new(Tensor::from_vec(vec![0.5], &[1]).unwrap());
    p1.grad = Tensor::from_vec(vec![0.3, -0.1], &[2]).unwrap();
    p2.grad = Tensor::from_vec(vec![-0.7], &[1]).unwrap();
    let mut sgd = Sgd::new(cfg);
    let mut w = [1.0f64, -2.0, 0.5];
    let mut v = [0.0f64; 3];
    // ‖g‖₂ = √0.59 ≈ 0.768 > 0.5, so every step is clipped
    let scale = clip / grads.iter().map(|g| g * g).sum::<f64>().sqrt();
    for step in 0..2 {
        sgd.step_visitor(|f| {
            f(&mut p1);
            f(&mut p2);
        });
        for i in 0..3 {
            v[i] = mom * v[i] + grads[i] * scale + wd * w[i];
            w[i] -= lr * v[i];
        }
        let got: Vec<f32> = p1
            .value
            .as_slice()
            .iter()
            .chain(p2.value.as_slice())
            .copied()
            .collect();
        for (i, (x, y)) in got.iter().zip(&w).enumerate() {
            assert!(
                (f64::from(*x) - y).abs() < 1e-6,
                "step {step}, weight {i}: {x} vs {y}"
            );
        }
    }
}
