//! End-to-end tests for the adaptive update-compression subsystem over
//! the distributed runtime: fp32 byte-identity, cross-transport and
//! cross-execution-mode determinism of `auto`, measured upload savings,
//! top-k error-feedback convergence, and kill-and-resume under a codec.

use fedrlnas_codec::{CodecConfig, CodecSpec};
use fedrlnas_core::{Checkpoint, FederatedModelSearch, SearchConfig, SearchOutcome};
use fedrlnas_rpc::{install, RpcConfig, TransportKind};
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 42;

fn rpc(transport: TransportKind) -> RpcConfig {
    RpcConfig {
        transport,
        ..RpcConfig::default()
    }
}

fn run_search(config: SearchConfig, rpc: Option<RpcConfig>) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    if let Some(cfg) = rpc {
        let dataset = search.dataset().clone();
        install(search.server_mut(), &dataset, cfg);
    }
    search.run(&mut rng)
}

fn assert_same_trajectory(a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.genotype, b.genotype, "derived genotypes diverged");
    assert_eq!(a.warmup_curve, b.warmup_curve, "warm-up curves diverged");
    assert_eq!(a.search_curve, b.search_curve, "search curves diverged");
}

/// An explicit `--codec fp32` run must be byte-identical to a run that
/// never heard of the codec subsystem: same trajectory, same measured
/// traffic, no compression tally, and no download that names a codec.
#[test]
fn fp32_codec_run_is_byte_identical_to_default() {
    let base = run_search(SearchConfig::tiny(), Some(rpc(TransportKind::InMemory)));
    let fp32 = run_search(
        SearchConfig::tiny().with_codec(CodecConfig::Fixed(CodecSpec::Fp32)),
        Some(rpc(TransportKind::InMemory)),
    );
    assert_same_trajectory(&base, &fp32);
    assert_eq!(base.comm.bytes_down, fp32.comm.bytes_down);
    assert_eq!(base.comm.bytes_up, fp32.comm.bytes_up);
    assert!(
        !fp32.comm.compression.any(),
        "a plain fp32 run must not tally compression"
    );
}

/// `--codec auto` is a pure function of the seeded bandwidth traces, so
/// the same seed must produce the same genotype, curves and communication
/// accounting over both transports — and the same trajectory in-process,
/// because workers run the identical error-feedback arithmetic.
#[test]
fn auto_codec_is_deterministic_across_transports_and_modes() {
    let config = SearchConfig::tiny().with_codec(CodecConfig::Auto);
    let mem = run_search(config.clone(), Some(rpc(TransportKind::InMemory)));
    let tcp = run_search(config.clone(), Some(rpc(TransportKind::Tcp)));
    assert_same_trajectory(&mem, &tcp);
    assert_eq!(mem.comm.bytes_down, tcp.comm.bytes_down);
    assert_eq!(mem.comm.bytes_up, tcp.comm.bytes_up);
    assert_eq!(mem.comm.compression, tcp.comm.compression);
    assert!(
        mem.comm.compression.any(),
        "an auto run over simulated 4G links must compress something"
    );
    // the in-process simulation of the codec path is the same math in the
    // same order, so even the training trajectory matches bit-for-bit
    let in_process = run_search(config, None);
    assert_same_trajectory(&mem, &in_process);
    assert_eq!(mem.comm.compression, in_process.comm.compression);
}

/// The acceptance numbers: at supernet shapes over the simulated
/// bandwidth mix, `auto` must cut raw upload bytes at least 3× while the
/// searched architecture's accuracy stays within 2 points of fp32.
#[test]
fn auto_codec_cuts_upload_bytes_and_keeps_accuracy() {
    let base = SearchConfig::tiny().with_participants(8);
    let fp32 = run_search(base.clone(), Some(rpc(TransportKind::InMemory)));
    let auto = run_search(
        base.with_codec(CodecConfig::Auto),
        Some(rpc(TransportKind::InMemory)),
    );
    let tally = auto.comm.compression;
    assert!(tally.any(), "auto must engage at least one codec");
    assert!(
        tally.ratio() >= 3.0,
        "auto must compress uploads at least 3x, got {:.2}x ({} -> {} bytes)",
        tally.ratio(),
        tally.raw_bytes,
        tally.encoded_bytes
    );
    assert!(
        auto.comm.bytes_up < fp32.comm.bytes_up,
        "measured upload traffic must shrink: {} vs {}",
        auto.comm.bytes_up,
        fp32.comm.bytes_up
    );
    let acc_fp32 = fp32.search_curve.final_accuracy(50).unwrap_or(0.0);
    let acc_auto = auto.search_curve.final_accuracy(50).unwrap_or(0.0);
    assert!(
        (acc_fp32 - acc_auto).abs() <= 0.02,
        "auto accuracy {acc_auto:.3} strayed more than 2 points from fp32 {acc_fp32:.3}"
    );
}

/// Pure top-k sparsification is the harshest codec; error feedback must
/// keep an n=8 search converging within tolerance of fp32.
#[test]
fn topk_with_error_feedback_converges_close_to_fp32() {
    let base = SearchConfig::tiny().with_participants(8);
    let fp32 = run_search(base.clone(), Some(rpc(TransportKind::InMemory)));
    let topk = run_search(
        base.with_codec(CodecConfig::Fixed(CodecSpec::TopK { k_frac: 0.25 })),
        Some(rpc(TransportKind::InMemory)),
    );
    let tally = topk.comm.compression;
    assert!(tally.frames[3] > 0, "every upload must be a top-k frame");
    assert!(
        tally.ratio() > 1.5,
        "top-k 0.25 must save bytes, got {:.2}x",
        tally.ratio()
    );
    let acc_fp32 = fp32.search_curve.final_accuracy(50).unwrap_or(0.0);
    let acc_topk = topk.search_curve.final_accuracy(50).unwrap_or(0.0);
    assert!(
        (acc_fp32 - acc_topk).abs() <= 0.05,
        "top-k accuracy {acc_topk:.3} strayed too far from fp32 {acc_fp32:.3}"
    );
}

/// Kill-and-resume under a codec: the checkpoint carries the workers'
/// error-feedback residuals (v4), so a search killed mid-flight and
/// resumed into a brand-new worker fleet is bit-identical to an
/// uninterrupted one — codec selection, tallies and all.
#[test]
fn killed_and_resumed_coded_rpc_search_matches_uninterrupted() {
    let config = SearchConfig::tiny().with_codec(CodecConfig::Auto);
    let reference = run_search(config.clone(), Some(rpc(TransportKind::InMemory)));
    let path =
        std::env::temp_dir().join(format!("fedrlnas-codec-resume-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // interrupted run: the fleet dies with the process after the warm-up
    // plus one search round; only the checkpoint survives
    {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut search = FederatedModelSearch::new(config.clone(), &mut rng);
        let dataset = search.dataset().clone();
        install(search.server_mut(), &dataset, rpc(TransportKind::InMemory));
        search
            .server_mut()
            .run_warmup(&dataset, config.warmup_steps, &mut rng);
        search.server_mut().run_search(&dataset, 1, &mut rng);
        Checkpoint::capture(search.server_mut(), &rng)
            .save_path(&path)
            .expect("snapshot");
    }
    // resume strictly before install, so the new workers clone restored
    // participant state — error-feedback residuals included
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut search = FederatedModelSearch::new(config, &mut rng);
    assert!(search.try_resume(&path, &mut rng).expect("resume"));
    let dataset = search.dataset().clone();
    install(search.server_mut(), &dataset, rpc(TransportKind::InMemory));
    let outcome = search.run_checkpointed(&mut rng, None).expect("finish");
    assert_same_trajectory(&reference, &outcome);
    assert_eq!(outcome.comm.resumes, 1);
    assert_eq!(outcome.comm.compression, reference.comm.compression);
    assert_eq!(outcome.comm.bytes_up, reference.comm.bytes_up);
    let _ = std::fs::remove_file(&path);
}
