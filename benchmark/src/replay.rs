//! Replay spans: after a traced episode, the harness re-drives one
//! round's leaf calls — on that episode's real controller, supernet,
//! dataset, sub-models and gradients — through each crate's public
//! functions, and records time per call. Multiplied by calls per round
//! these attribute a round's time to layers without a single span inside
//! the program.

use crate::trace::Tracer;
use crate::workloads::{SearchState, Workload};
use fedrlnas::codec::EncodeScratch;
use fedrlnas::core::Checkpoint;
use fedrlnas::darts::{ArchMask, CellKind, SubModel, SupernetConfig};
use fedrlnas::data::Loader;
use fedrlnas::fed::{flat_params, Participant};
use fedrlnas::netsim::{assign, resolve_codec, Environment};
use fedrlnas::nn::{Conv2d, CrossEntropy, Layer, Mode, Sgd};
use fedrlnas::rpc::{
    decode, encode, encode_download_into, ChannelTransport, Message, TcpTransport, Transport,
    TransportKind,
};
use fedrlnas::service::{JobSpec, JobState, JobStore};
use fedrlnas::sync::{compensate_gradient, MemoryPools, RoundSnapshot, StalenessStrategy};
use fedrlnas::tensor::{gemm_bias, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Per-layer values the replay produced, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Sub-models and masks the replay cycles through; enough to cover the
/// spread of sub-model sizes without re-extracting a 1000-strong cohort.
const SAMPLE: usize = 32;

struct Replay<'a> {
    tracer: &'a mut Tracer,
    /// How long each leaf call is repeated for.
    budget: Duration,
}

impl Replay<'_> {
    /// Repeats `call` for the budget (at least three times, after one
    /// unmeasured call that fills caches and grows buffers), records one
    /// span covering the batch and returns mean seconds per call.
    fn time(&mut self, span: &'static str, mut call: impl FnMut()) -> f64 {
        call();
        let start = Instant::now();
        let mut calls = 0u64;
        while calls < 3 || start.elapsed() < self.budget {
            call();
            calls += 1;
        }
        let nanos = start.elapsed().as_nanos() as u64;
        self.tracer.record(span, nanos, calls);
        nanos as f64 / 1e9 / calls as f64
    }
}

/// The three largest conv-as-GEMM shapes `(m, n, k)` of a supernet: the
/// 3x3 stem and the 1x1 pointwise convolution of every resolution stage,
/// each lowered per sample as `[out_ch, in_ch*k*k] x [in_ch*k*k, h*w]`.
fn gemm_shapes(net: &SupernetConfig) -> Vec<(usize, usize, usize)> {
    let reductions = (0..net.num_cells)
        .filter(|&i| net.cell_kind(i) == CellKind::Reduction)
        .count();
    let mut shapes = vec![(
        net.init_channels * net.stem_multiplier,
        net.image_hw * net.image_hw,
        net.input_channels * 9,
    )];
    for stage in 0..=reductions {
        let channels = net.init_channels << stage;
        let hw = (net.image_hw >> stage).max(1);
        shapes.push((channels, hw * hw, channels));
    }
    shapes.sort_by_key(|&(m, n, k)| std::cmp::Reverse(m * n * k));
    shapes.truncate(3);
    shapes
}

/// Re-drives the leaf calls of one round of `workload` on the finished
/// search in `state` and returns the per-layer values they yield.
///
/// # Errors
///
/// A message when scratch files under the benchmark's `out/` directory
/// cannot be written or a loopback socket cannot be opened.
pub fn replay(
    workload: Workload,
    state: &mut SearchState,
    tracer: &mut Tracer,
    budget: Duration,
) -> Result<Values, String> {
    let mut out = Values::new();
    let mut r = Replay { tracer, budget };
    let config = state.search.server().config().clone();
    let dataset = state.search.dataset().clone();
    let k = config.num_participants;
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);

    // --- core.checkpoint: first, before the optimizer replay below moves
    // the finished search's weights ---
    let scratch = crate::out_dir().join(format!("replay-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let server = state.search.server_mut();
    let mut checkpoint_bytes = Vec::new();
    let encode_s = r.time("core.checkpoint.encode", || {
        checkpoint_bytes = Checkpoint::capture(server, &state.rng).to_bytes();
    });
    let checkpoint = Checkpoint::capture(server, &state.rng);
    let path = scratch.join("replay.ckpt");
    let mut io_error = None;
    let save_s = r.time("core.checkpoint.save", || {
        if let Err(e) = checkpoint.save_path(&path) {
            io_error = Some(format!("save {}: {e}", path.display()));
        }
    });
    let load_s = r.time("core.checkpoint.load", || {
        match Checkpoint::load_path(&path) {
            Ok(loaded) => drop(black_box(loaded)),
            Err(e) => io_error = Some(format!("load {}: {e}", path.display())),
        };
    });
    out.insert("core.checkpoint.encode_ms", encode_s * 1e3);
    out.insert("core.checkpoint.save_ms", save_s * 1e3);
    out.insert("core.checkpoint.load_ms", load_s * 1e3);
    out.insert("core.checkpoint.bytes", checkpoint_bytes.len() as f64);

    // --- service.store: one durable commit of that checkpoint ---
    if workload.is_service() {
        let dir = scratch.join("store");
        let spec = JobSpec::tiny(0).encode();
        let running = JobState::Running.code();
        let mut store = JobStore::open(&dir).map_err(|e| format!("open replay store: {e}"))?;
        let id = store
            .create(&spec, running)
            .map_err(|e| format!("create replay job: {e}"))?;
        let mut generation = 1;
        let commit_s = r.time("service.store.commit", || {
            match store.update(id, generation, running, &checkpoint_bytes) {
                Ok(next) => generation = next,
                Err(e) => io_error = Some(format!("commit replay job: {e}")),
            }
        });
        out.insert("service.store.commit_ms", commit_s * 1e3);
        out.insert(
            "service.store.bytes_per_commit",
            (checkpoint_bytes.len() + spec.len()) as f64,
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(e) = io_error {
        return Err(e);
    }

    // --- controller: sampling, and one round's α update ---
    let controller = state.search.server().controller().clone();
    let sample_s = r.time("controller.sample", || {
        black_box(controller.sample(&mut rng));
    });
    out.insert("controller.sample_us", sample_s * 1e6);
    let masks: Vec<ArchMask> = (0..k.min(SAMPLE))
        .map(|_| controller.sample(&mut rng))
        .collect();
    let accuracies: Vec<f32> = (0..k).map(|i| 0.1 + 0.8 * i as f32 / k as f32).collect();
    let mut updated = controller.clone();
    let update_s = r.time("controller.update", || {
        let rewards = updated.baselined_rewards(&accuracies);
        let mut grad = Tensor::zeros(updated.alpha().logits().dims());
        for (i, reward) in rewards.iter().enumerate() {
            let mut g = updated.alpha().grad_log_prob(&masks[i % masks.len()]);
            g.scale(*reward);
            grad.add_assign(&g).expect("alpha shapes agree");
        }
        grad.scale(1.0 / k as f32);
        updated.ascend(&grad);
    });
    out.insert("controller.update_us", update_s * 1e6);

    // --- darts: extraction and sizes ---
    let supernet = state.search.server_mut().supernet_mut();
    let mut turn = 0usize;
    let extract_s = r.time("darts.extract_submodel", || {
        black_box(supernet.extract_submodel(&masks[turn % masks.len()]));
        turn += 1;
    });
    out.insert("darts.extract_submodel_us", extract_s * 1e6);
    let sizes: Vec<usize> = masks.iter().map(|m| supernet.submodel_bytes(m)).collect();
    out.insert(
        "darts.submodel_bytes_mean",
        sizes.iter().sum::<usize>() as f64 / sizes.len() as f64,
    );
    out.insert("darts.supernet_bytes", supernet.param_bytes() as f64);

    // --- data: one participant-sized shard, as the search partitions it ---
    let shard: Vec<usize> = (0..(dataset.len() / k).max(1)).collect();
    let mut loader = Loader::new(shard.clone(), config.batch_size, config.augment);
    let batch_s = r.time("data.next_batch", || {
        black_box(loader.next_batch(&dataset, &mut rng));
    });
    out.insert("data.next_batch_us", batch_s * 1e6);

    // --- darts: sub-model forward and backward on a real batch ---
    let mut subs: Vec<SubModel> = masks
        .iter()
        .take(8)
        .map(|m| supernet.extract_submodel(m))
        .collect();
    let (x, y) = loader.next_batch(&dataset, &mut rng);
    let (mut fwd_ns, mut bwd_ns, mut calls) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut warm = true;
    while warm || calls < 3 || start.elapsed() < budget {
        let sub = &mut subs[0];
        sub.zero_grad();
        let t0 = Instant::now();
        let logits = sub.forward(&x, Mode::Train);
        let t1 = Instant::now();
        let mut ce = CrossEntropy::new();
        ce.forward(&logits, &y);
        let grad = ce.backward();
        let t2 = Instant::now();
        sub.backward(&grad);
        let t3 = Instant::now();
        if warm {
            warm = false;
            continue;
        }
        fwd_ns += (t1 - t0).as_nanos() as u64;
        bwd_ns += (t3 - t2).as_nanos() as u64;
        calls += 1;
    }
    r.tracer.record("darts.submodel_fwd", fwd_ns, calls);
    r.tracer.record("darts.submodel_bwd", bwd_ns, calls);
    out.insert("darts.submodel_fwd_us", fwd_ns as f64 / 1e3 / calls as f64);
    out.insert("darts.submodel_bwd_us", bwd_ns as f64 / 1e3 / calls as f64);

    // --- fed: a participant's whole local update ---
    let mut participant = Participant::new(
        0,
        shard,
        config.batch_size,
        config.augment,
        Environment::Foot,
        1.0,
        &mut rng,
    );
    let mut turn = 0usize;
    let update_s = r.time("fed.local_update", || {
        let sub = &mut subs[turn % 8.min(masks.len())];
        black_box(participant.local_update(sub, &dataset, &mut rng));
        turn += 1;
    });
    out.insert("fed.local_update_us", update_s * 1e6);
    // what that participant would upload: the gradients of sub-model 0
    participant.local_update(&mut subs[0], &dataset, &mut rng);
    let mut grads = Vec::new();
    subs[0].visit_params(&mut |p| grads.extend_from_slice(p.grad.as_slice()));

    // --- netsim: the round's size-to-bandwidth assignment ---
    let sizes_k: Vec<usize> = (0..k).map(|i| sizes[i % sizes.len()]).collect();
    let bandwidths: Vec<f64> = (0..k).map(|_| rng.gen_range(5.0..40.0)).collect();
    let assign_s = r.time("netsim.assign", || {
        black_box(assign(config.assignment, &sizes_k, &bandwidths, &mut rng));
    });
    out.insert("netsim.assign_us", assign_s * 1e6);

    // --- sync: memory-pool snapshot and Eq. 13 compensation ---
    let theta = {
        let mut theta = Vec::new();
        supernet.visit_params(&mut |p| theta.extend_from_slice(p.value.as_slice()));
        theta
    };
    let alpha = controller.alpha().logits().as_slice().to_vec();
    let lambda = match config.strategy {
        StalenessStrategy::DelayCompensated { lambda } => Some(lambda),
        StalenessStrategy::Use => Some(0.0),
        StalenessStrategy::Hard | StalenessStrategy::Throw => None,
    };
    if let Some(lambda) = lambda {
        let masks_k: Vec<ArchMask> = (0..k).map(|i| masks[i % masks.len()].clone()).collect();
        let mut pools = MemoryPools::new();
        let mut t = 0usize;
        let save_s = r.time("sync.pool_save", || {
            pools.save(
                t % (config.staleness_threshold + 1),
                RoundSnapshot {
                    theta: theta.clone(),
                    alpha: alpha.clone(),
                    masks: masks_k.clone(),
                },
            );
            t += 1;
        });
        out.insert("sync.pool_save_us", save_s * 1e6);
        let fresh: Vec<f32> = supernet
            .submodel_param_ranges(&masks[0])
            .iter()
            .flat_map(|&(off, len)| theta[off..off + len].iter().copied())
            .collect();
        let stale: Vec<f32> = fresh.iter().map(|w| w * 0.99).collect();
        let mut repaired = grads.clone();
        let compensate_s = r.time("sync.compensate", || {
            repaired.copy_from_slice(&grads);
            compensate_gradient(&mut repaired, &fresh, &stale, lambda);
        });
        out.insert("sync.compensate_us", compensate_s * 1e6);
    }

    // --- codec: the upload codec on those real gradients ---
    let spec = resolve_codec(config.codec, 20.0);
    if !config.codec.is_fp32() {
        let raw_mb = (grads.len() * 4) as f64 / 1e6;
        let mut scratch = EncodeScratch::default();
        let mut coded = Vec::new();
        let encode_s = r.time("codec.encode", || {
            spec.encode_into(&grads, &mut scratch, &mut coded);
        });
        let mut decoded = Vec::new();
        let decode_s = r.time("codec.decode", || {
            spec.decode_into(&coded, grads.len(), &mut decoded)
                .expect("a codec decodes its own encoding");
        });
        out.insert("codec.encode_mb_s", raw_mb / encode_s);
        out.insert("codec.decode_mb_s", raw_mb / decode_s);
    }

    // --- rpc.wire and rpc.transport: one download frame out, one upload
    // frame back, on the workload's transport kind ---
    if let Some(rpc) = workload.rpc_config() {
        let weights = flat_params(&mut subs[0]);
        let mut buffers = Vec::new();
        subs[0].visit_buffers(&mut |b| buffers.extend_from_slice(b));
        let codec = (!config.codec.is_fp32()).then(|| (spec.tag(), spec.param()));
        let mut frame = Vec::new();
        let encode_s = r.time("rpc.wire.encode", || {
            encode_download_into(
                &mut frame, 7, 9, &masks[0], &weights, &buffers, &alpha, codec,
            );
        });
        let decode_s = r.time("rpc.wire.decode", || {
            black_box(decode(&frame).expect("the wire decodes its own frame"));
        });
        let frame_mb = frame.len() as f64 / 1e6;
        out.insert("rpc.wire.encode_mb_s", frame_mb / encode_s);
        out.insert("rpc.wire.decode_mb_s", frame_mb / decode_s);
        let reply = encode(&Message::UploadUpdate {
            round: 7,
            participant: 0,
            delta_w: grads.clone(),
            delta_alpha: alpha.clone(),
            reward: 0.5,
            loss: 1.0,
        });
        let roundtrip_s = roundtrip(&mut r, rpc.transport, &frame, reply)?;
        out.insert("rpc.transport.roundtrip_us", roundtrip_s * 1e6);
    }

    // --- nn: the server's θ step over the full supernet ---
    let mut sgd = Sgd::new(config.theta_sgd);
    let step_s = r.time("nn.sgd_step", || {
        sgd.step_visitor(|f| supernet.visit_params(f));
    });
    out.insert("nn.sgd_step_us", step_s * 1e6);

    // --- tensor: the packed GEMM on the supernet's largest conv shapes,
    // and the stem convolution forward + backward at the batch size ---
    let (mut flops, mut secs) = (0.0, 0.0);
    for (m, n, kk) in gemm_shapes(&config.net) {
        let a = Tensor::randn(&[m, kk], 1.0, &mut rng);
        let b = Tensor::randn(&[kk, n], 1.0, &mut rng);
        let bias = vec![0.0f32; m];
        let mut c = vec![0.0f32; m * n];
        let call_s = r.time("tensor.gemm", || {
            gemm_bias(m, n, kk, a.as_slice(), b.as_slice(), &bias, &mut c);
            black_box(&c);
        });
        flops += (2 * m * n * kk) as f64;
        secs += call_s;
    }
    out.insert("tensor.gemm_gflops", flops / secs / 1e9);
    let net = &config.net;
    let mut conv = Conv2d::new(
        net.input_channels,
        net.init_channels * net.stem_multiplier,
        3,
        1,
        1,
        1,
        1,
        &mut rng,
    );
    let dims = [
        config.batch_size,
        net.input_channels,
        net.image_hw,
        net.image_hw,
    ];
    let input = Tensor::randn(&dims, 1.0, &mut rng);
    let mut grad_out = None;
    let conv_s = r.time("tensor.conv_fwd_bwd", || {
        let output = conv.forward(&input, Mode::Train);
        let grad = grad_out.get_or_insert_with(|| Tensor::ones(output.dims()));
        black_box(conv.backward(grad));
    });
    out.insert("tensor.conv_fwd_bwd_us", conv_s * 1e6);

    Ok(out)
}

/// Mean seconds for `frame` to cross a fresh link of `kind` and `reply`
/// to come back from an echo thread on the far end.
fn roundtrip(
    r: &mut Replay<'_>,
    kind: TransportKind,
    frame: &[u8],
    reply: Vec<u8>,
) -> Result<f64, String> {
    let (mut near, mut far): (Box<dyn Transport>, Box<dyn Transport>) = match kind {
        TransportKind::InMemory => {
            let (a, b) = ChannelTransport::pair();
            (Box::new(a), Box::new(b))
        }
        TransportKind::Tcp => {
            let io = |e: std::io::Error| format!("loopback link: {e}");
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
            let client = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
            let (server, _) = listener.accept().map_err(io)?;
            (
                Box::new(TcpTransport::new(client).map_err(io)?),
                Box::new(TcpTransport::new(server).map_err(io)?),
            )
        }
    };
    // the echo end answers until the near end is dropped, which closes the
    // link and ends the thread
    let echo = std::thread::spawn(
        move || {
            while far.recv().is_ok() && far.send(&reply).is_ok() {}
        },
    );
    let mut link_error = None;
    let secs = r.time("rpc.transport.roundtrip", || {
        let crossed = near.send(frame).and_then(|()| near.recv());
        match crossed {
            Ok(reply) => drop(black_box(reply)),
            Err(e) => link_error = Some(format!("replay link: {e}")),
        }
    });
    drop(near);
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?;
    match link_error {
        Some(e) => Err(e),
        None => Ok(secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_shapes_are_the_three_largest() {
        // small: stem 16x144x27, stages 8x144x8, 16x36x16, 32x9x32
        let shapes = gemm_shapes(&SupernetConfig::small());
        assert_eq!(shapes, vec![(16, 144, 27), (8, 144, 8), (16, 36, 16)]);
        // tiny: stem 4x64x27, stages 4x64x4, 8x16x8, 16x4x16
        let shapes = gemm_shapes(&SupernetConfig::tiny());
        assert_eq!(shapes.len(), 3);
        assert_eq!(shapes[0], (4, 64, 27));
    }
}
