//! Distributed-runtime benchmark emitting `BENCH_transport.json`.
//!
//! Measures the wire format and both transports at the payload sizes the
//! federation actually ships: the full supernet (what naive FedAvg-NAS
//! would download) and an extracted sub-model (what adaptive transmission
//! downloads). Reports:
//!
//! * encode/decode throughput of `DownloadSubmodel` frames in MB/s;
//! * full round latency — download out, train skipped, gradient upload
//!   back — over the in-memory channel transport vs loopback TCP;
//! * per-codec update compression at the supernet gradient shape:
//!   encode/decode throughput over the reusable-scratch hot path (the
//!   same `encode_into`/`decode_into` calls the engine makes; decode
//!   includes full dense materialization — zero-fill plus scatter — so
//!   sparse codecs are not credited for bytes they never touch),
//!   achieved compression ratio, and the request/reply round latency
//!   when the upload travels encoded;
//! * `rounds_per_sec`: end-to-end warm-up rounds at n = 64 participants
//!   under shaped bandwidth (`real_time_scale = 10`, the slow-link regime
//!   the paper targets), the serial oracle vs the engine with the same
//!   seed — the trajectories are asserted identical, so the speedup is
//!   pure overlap of shaped sends. The engine row also reports the
//!   mechanism behind its idle cost: `wakeups_per_round` (times a
//!   collector / fleet thread came back from its blocking wait — a few
//!   per frame and timer, not one per nap) and `cpu_ms_per_round`
//!   (process CPU over the run).
//!
//! Usage: `cargo run --release -p fedrlnas-bench --bin bench_transport`
//! (writes `BENCH_transport.json` in the current directory; pass `--out
//! <path>` to override). `--quick` runs fewer reps and one round per
//! engine mode (the CI perf-smoke configuration); `--check <floor.json>`
//! exits non-zero if the sub-model frame's wire encode/decode throughput,
//! a measured codec throughput or the engine speedup falls below the
//! committed floor, or the collectors' wake-ups per round rise above the
//! committed ceiling.

use fedrlnas_bench::{json_number, median_ns};
use fedrlnas_codec::{CodecSpec, EncodeScratch};
use fedrlnas_controller::Alpha;
use fedrlnas_core::{FederatedModelSearch, RoundBackend, RoundOutcome, RoundRequest, SearchConfig};
use fedrlnas_darts::{ArchMask, Supernet};
use fedrlnas_rpc::{
    decode, encode, ChannelTransport, EngineMode, Message, RpcBackend, RpcConfig, TcpTransport,
    Transport, TransportKind,
};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Payload {
    label: String,
    download: Message,
    frame_bytes: usize,
    grad_len: usize,
}

/// Builds the two payloads of interest from the tiny supernet: the whole
/// supernet's parameters and one uniformly sampled sub-model's.
fn payloads(rng: &mut StdRng) -> Vec<Payload> {
    let config = SearchConfig::tiny();
    let mut supernet = Supernet::new(config.net.clone(), rng);
    let alpha = Alpha::new(&config.net).logits().as_slice().to_vec();
    let mask = ArchMask::uniform_random(&config.net, rng);

    let mut full = Vec::new();
    supernet.visit_params(&mut |p| full.extend_from_slice(p.value.as_slice()));
    let mut sub = supernet.extract_submodel(&mask);
    let mut sub_w = Vec::new();
    sub.visit_params(&mut |p| sub_w.extend_from_slice(p.value.as_slice()));
    let mut sub_b = Vec::new();
    sub.visit_buffers(&mut |b| sub_b.extend_from_slice(b));

    [("supernet", full, Vec::new()), ("submodel", sub_w, sub_b)]
        .into_iter()
        .map(|(label, weights, buffers)| {
            let grad_len = weights.len();
            let download = Message::DownloadSubmodel {
                round: 0,
                seed_base: 1,
                mask: mask.clone(),
                weights,
                buffers,
                alpha: alpha.clone(),
                codec: None,
            };
            let frame_bytes = encode(&download).len();
            Payload {
                label: label.to_string(),
                download,
                frame_bytes,
                grad_len,
            }
        })
        .collect()
}

fn mbps(bytes: usize, ns: u64) -> f64 {
    bytes as f64 / 1e6 / (ns as f64 / 1e9)
}

/// One request/response cycle: ship the download, echo worker decodes it
/// and replies with a gradient-sized upload.
fn round_trip_ns(reps: usize, server: &mut dyn Transport, frame: &[u8]) -> u64 {
    median_ns(reps, || {
        server.send(frame).expect("send download");
        let reply = server.recv().expect("receive upload");
        std::hint::black_box(reply);
    })
}

/// The gradient-sized upload reply of an uncompressed (fp32) round.
fn fp32_reply(grad_len: usize) -> Vec<u8> {
    encode(&Message::UploadUpdate {
        round: 0,
        participant: 0,
        delta_w: vec![0.5; grad_len],
        delta_alpha: vec![0.1; 64],
        reward: 0.5,
        loss: 1.0,
    })
}

fn spawn_echo_channel(reply: Vec<u8>) -> (ChannelTransport, std::thread::JoinHandle<()>) {
    let (server, mut worker) = ChannelTransport::pair();
    let join = std::thread::spawn(move || echo_loop(&mut worker, reply));
    (server, join)
}

fn spawn_echo_tcp(reply: Vec<u8>) -> (TcpTransport, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let join = std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut worker = TcpTransport::new(stream).expect("wrap");
        echo_loop(&mut worker, reply);
    });
    let (stream, _) = listener.accept().expect("accept");
    (TcpTransport::new(stream).expect("wrap"), join)
}

/// Worker side: decode each download (so the benchmark includes the real
/// deserialization cost) and answer with the prebuilt upload reply.
fn echo_loop(transport: &mut dyn Transport, reply: Vec<u8>) {
    while let Ok(frame) = transport.recv() {
        std::hint::black_box(decode(&frame).expect("decode download"));
        if transport.send(&reply).is_err() {
            break;
        }
    }
}

/// The engine with a tap on it: the server owns its backend boxed, so the
/// wrapper publishes the wake-up counts (`(collectors, fleet)`) after
/// every round for the bench to read.
struct Tapped {
    inner: RpcBackend,
    wakeups: Arc<Mutex<(u64, u64)>>,
}

impl RoundBackend for Tapped {
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome {
        let out = self.inner.run_round(request);
        *self.wakeups.lock().expect("tap lock") = self.inner.wakeups();
        out
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn collect_residuals(&mut self) -> Option<Vec<Vec<f32>>> {
        self.inner.collect_residuals()
    }
}

/// User + system CPU milliseconds of this process so far, all threads,
/// from `/proc/self/stat` (fields 14 and 15, counted from behind the
/// parenthesised name, in `USER_HZ` = 100 ticks a second); 0 where the
/// platform does not have it.
fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let after_name = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let mut fields = after_name.split_ascii_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(user), Some(system)) => (user + system) * 10.0,
        _ => 0.0,
    }
}

/// End-to-end `rounds_per_sec` at n participants under shaped bandwidth:
/// the same seeded warm-up run under the serial oracle and the engine.
/// The warm-up curves and communication stats must be bit-identical — the
/// measured speedup is pure send/wait overlap, not a different
/// computation. Returns engine ÷ serial and the engine's collector
/// wake-ups per round.
fn rounds_per_sec_group(json: &mut String, rounds: usize) -> (f64, f64) {
    const N: usize = 64;
    // stretch simulated transmission times 10x so the bench runs in the
    // bandwidth-bound regime federated search actually lives in; the
    // engine overlaps those sends, the serial oracle sums them
    const TIME_SCALE: f64 = 10.0;
    let mut results = Vec::new();
    // the engine's (the second run's) wake-up counts and CPU
    let mut tapped = ((0, 0), 0.0);
    for (label, mode) in [
        ("serial", EngineMode::Serial),
        ("engine", EngineMode::default()),
    ] {
        eprintln!("benchmarking rounds_per_sec n={N} engine={label}...");
        let config = SearchConfig::tiny().with_participants(N);
        let mut rng = StdRng::seed_from_u64(42);
        let mut search = FederatedModelSearch::new(config, &mut rng);
        let dataset = search.dataset().clone();
        let server = search.server_mut();
        let rpc = RpcConfig {
            transport: TransportKind::InMemory,
            engine: mode,
            real_time_scale: TIME_SCALE,
            ..RpcConfig::default()
        };
        let net = server.config().net.clone();
        let wakeups = Arc::new(Mutex::new((0, 0)));
        server.set_backend(Box::new(Tapped {
            inner: RpcBackend::new(server.participants(), &net, &dataset, rpc),
            wakeups: wakeups.clone(),
        }));
        let (start, cpu_start) = (Instant::now(), process_cpu_ms());
        server.run_warmup(&dataset, rounds, &mut rng);
        let secs = start.elapsed().as_secs_f64();
        let cpu_ms = process_cpu_ms() - cpu_start;
        let curve = server.warmup_curve().clone();
        let comm = *server.comm();
        results.push((label, secs, curve, comm));
        tapped = (*wakeups.lock().expect("tap lock"), cpu_ms);
    }
    assert_eq!(
        results[0].2, results[1].2,
        "serial and engine warm-up curves must be bit-identical"
    );
    assert_eq!(
        results[0].3, results[1].3,
        "serial and engine CommStats must be bit-identical"
    );
    let serial_rps = rounds as f64 / results[0].1;
    let engine_rps = rounds as f64 / results[1].1;
    let speedup = engine_rps / serial_rps;
    writeln!(json, "  \"rounds_per_sec\": {{").unwrap();
    writeln!(
        json,
        "    \"participants\": {N}, \"rounds\": {rounds}, \"real_time_scale\": {TIME_SCALE}, \"pool_threads\": {},",
        fedrlnas_tensor::num_threads().min(N)
    )
    .unwrap();
    writeln!(
        json,
        "    \"serial\": {serial_rps:.3}, \"engine\": {engine_rps:.3}, \"speedup\": {speedup:.2},"
    )
    .unwrap();
    let ((collectors, fleet), cpu_ms) = tapped;
    let per_round = |count: u64| count as f64 / rounds as f64;
    writeln!(
        json,
        "    \"wakeups_per_round\": {{\"collectors\": {:.1}, \"fleet\": {:.1}}}, \"cpu_ms_per_round\": {:.1},",
        per_round(collectors),
        per_round(fleet),
        cpu_ms / rounds as f64
    )
    .unwrap();
    writeln!(json, "    \"identical_trajectory\": true").unwrap();
    writeln!(json, "  }}").unwrap();
    (speedup, per_round(collectors))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out_path = argv
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| argv.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_transport.json".to_string());
    let quick = argv.iter().any(|a| a == "--quick");
    let check_path = argv
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| argv.get(i + 1).cloned());
    let reps = if quick { 9 } else { 25 };

    let mut rng = StdRng::seed_from_u64(42);
    let payloads = payloads(&mut rng);

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(
        json,
        "  \"description\": \"wire codec throughput and request/reply round latency at federation payload sizes; median of {reps} reps\","
    )
    .unwrap();
    writeln!(json, "  \"payloads\": [").unwrap();
    // (floor key, what it measures, measured MB/s) for `--check`
    let mut measured: Vec<(&str, String, f64)> = Vec::new();
    for (i, p) in payloads.iter().enumerate() {
        eprintln!(
            "benchmarking {} ({} byte frames)...",
            p.label, p.frame_bytes
        );
        let frame = encode(&p.download);
        let encode_ns = median_ns(reps, || {
            std::hint::black_box(encode(&p.download));
        });
        let decode_ns = median_ns(reps, || {
            std::hint::black_box(decode(&frame).expect("decode"));
        });

        let (mut mem_server, mem_join) = spawn_echo_channel(fp32_reply(p.grad_len));
        let mem_round_ns = round_trip_ns(reps, &mut mem_server, &frame);
        drop(mem_server);
        mem_join.join().expect("channel echo worker");

        let (mut tcp_server, tcp_join) = spawn_echo_tcp(fp32_reply(p.grad_len));
        let tcp_round_ns = round_trip_ns(reps, &mut tcp_server, &frame);
        drop(tcp_server);
        tcp_join.join().expect("tcp echo worker");

        let (encode_mb_s, decode_mb_s) = (
            mbps(p.frame_bytes, encode_ns),
            mbps(p.frame_bytes, decode_ns),
        );
        if p.label == "submodel" {
            // the frame every participant gets every round: its CRC and
            // its copy, since the CRC folds, take about equal shares
            let label = |what| format!("{} frame {what}", p.label);
            measured.push(("wire_encode_mb_s_floor", label("encode"), encode_mb_s));
            measured.push(("wire_decode_mb_s_floor", label("decode"), decode_mb_s));
        }
        let comma = if i + 1 == payloads.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"payload\": \"{}\", \"frame_bytes\": {}, \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1}, \"round_in_memory_us\": {:.1}, \"round_loopback_tcp_us\": {:.1}}}{comma}",
            p.label,
            p.frame_bytes,
            encode_mb_s,
            decode_mb_s,
            mem_round_ns as f64 / 1e3,
            tcp_round_ns as f64 / 1e3,
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();

    // --- per-codec update compression at the supernet gradient shape ---
    // The hot path the engine actually runs: `encode_into` with a reused
    // scratch + output buffer, `decode_into` with a reused dense buffer.
    // Top-k decode is charged for the full dense materialization
    // (zero-fill + scatter), not just the sparse entries it writes.
    let grad_len = payloads[0].grad_len;
    let grad: Vec<f32> = (0..grad_len)
        .map(|i| (i as f32 * 0.37).sin() * 0.01)
        .collect();
    let raw_bytes = grad_len * 4;
    let specs = [
        CodecSpec::Fp32,
        CodecSpec::Fp16,
        CodecSpec::Int8,
        CodecSpec::TopK { k_frac: 0.1 },
    ];
    writeln!(json, "  \"codecs\": [").unwrap();
    for (i, spec) in specs.iter().enumerate() {
        eprintln!("benchmarking codec {spec}...");
        let mut scratch = EncodeScratch::default();
        let mut coded = Vec::new();
        let mut dense = Vec::new();
        spec.encode_into(&grad, &mut scratch, &mut coded);
        let encode_ns = median_ns(reps, || {
            spec.encode_into(&grad, &mut scratch, &mut coded);
            std::hint::black_box(coded.len());
        });
        let decode_ns = median_ns(reps, || {
            spec.decode_into(&coded, grad_len, &mut dense)
                .expect("decode");
            std::hint::black_box(dense.len());
        });
        // a coded request/reply round: supernet-sized coded download out,
        // codec-encoded gradient upload back
        let mut download = payloads[0].download.clone();
        if let Message::DownloadSubmodel { codec, .. } = &mut download {
            *codec = Some((spec.tag(), spec.param()));
        }
        let frame = encode(&download);
        let reply = encode(&Message::UploadUpdateCoded {
            round: 0,
            participant: 0,
            codec_tag: spec.tag(),
            codec_param: spec.param(),
            orig_len: grad_len as u32,
            coded: coded.clone(),
            delta_alpha: vec![0.1; 64],
            reward: 0.5,
            loss: 1.0,
        });
        let (mut mem_server, mem_join) = spawn_echo_channel(reply);
        let mem_round_ns = round_trip_ns(reps, &mut mem_server, &frame);
        drop(mem_server);
        mem_join.join().expect("codec echo worker");
        let floor_key = match spec {
            CodecSpec::TopK { .. } => Some("topk_encode_mb_s_floor"),
            CodecSpec::Fp16 => Some("fp16_encode_mb_s_floor"),
            _ => None,
        };
        if let Some(key) = floor_key {
            measured.push((key, format!("{spec} encode"), mbps(raw_bytes, encode_ns)));
        }
        let comma = if i + 1 == specs.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"codec\": \"{spec}\", \"grad_len\": {grad_len}, \"raw_bytes\": {raw_bytes}, \"encoded_bytes\": {}, \"ratio\": {:.2}, \"encode_mb_s\": {:.1}, \"decode_mb_s\": {:.1}, \"coded_round_in_memory_us\": {:.1}}}{comma}",
            coded.len(),
            raw_bytes as f64 / coded.len() as f64,
            mbps(raw_bytes, encode_ns),
            mbps(raw_bytes, decode_ns),
            mem_round_ns as f64 / 1e3,
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();

    let (engine_speedup, engine_wakeups) =
        rounds_per_sec_group(&mut json, if quick { 1 } else { 3 });
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write BENCH_transport.json");
    print!("{json}");
    eprintln!("wrote {out_path}");

    // --- committed-floor regression gate (CI perf-smoke) ---
    if let Some(path) = check_path {
        let floors = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read floor file {path}: {e}"));
        let mut failed = false;
        for (key, what, got) in &measured {
            let Some(floor) = json_number(&floors, key) else {
                continue;
            };
            if *got < floor {
                eprintln!("FAIL: {what} {got:.1} MB/s below committed floor {floor:.1}");
                failed = true;
            } else {
                eprintln!("ok: {what} {got:.1} MB/s >= floor {floor:.1}");
            }
        }
        if let Some(floor) = json_number(&floors, "engine_speedup_floor") {
            if engine_speedup < floor {
                eprintln!(
                    "FAIL: engine speedup {engine_speedup:.2}x below committed floor {floor:.1}x"
                );
                failed = true;
            } else {
                eprintln!("ok: engine speedup {engine_speedup:.2}x >= floor {floor:.1}x");
            }
        }
        if let Some(ceiling) = json_number(&floors, "engine_wakeups_per_round_ceiling") {
            if engine_wakeups > ceiling {
                eprintln!(
                    "FAIL: {engine_wakeups:.0} collector wake-ups a round above committed ceiling {ceiling:.0}"
                );
                failed = true;
            } else {
                eprintln!(
                    "ok: {engine_wakeups:.0} collector wake-ups a round <= ceiling {ceiling:.0}"
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
