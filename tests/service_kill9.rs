//! Crash-safety e2e for `fedrlnas serve`: launch the real binary, submit
//! an interleaved fleet over TCP, `kill -9` it mid-fleet, restart on the
//! same store, and assert every job finishes bit-identically to its
//! in-process single-run baseline. Ends with a SIGTERM graceful-shutdown
//! check on a fresh server.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fedrlnas::core::FederatedModelSearch;
use fedrlnas::service::{JobSpec, JobState};
use fedrlnas_bench::client::ServiceClient;
use rand::{rngs::StdRng, SeedableRng};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedrlnas-kill9-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kills the serve child on drop so a panicking assertion can never leave
/// an orphan holding inherited descriptors open.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `fedrlnas serve` and parses the `listening on ADDR` line.
fn spawn_serve(store: &PathBuf, extra: &[&str]) -> (ServeGuard, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fedrlnas"))
        .arg("serve")
        .arg("--store")
        .arg(store)
        .args(["--listen", "127.0.0.1:0", "--checkpoint-every", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before binding")
            .expect("read serve stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().parse().expect("parse bound address");
        }
    };
    // Keep draining stdout so the server never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (ServeGuard(child), addr)
}

fn baseline(spec: &JobSpec) -> (String, u64, u64, u64) {
    let config = spec.build_config().expect("valid spec");
    let dataset = spec.build_dataset(&config);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
    let outcome = search.run(&mut rng);
    (
        outcome.genotype.to_compact_string(),
        outcome.comm.bytes_down,
        outcome.comm.bytes_up,
        outcome.comm.rounds,
    )
}

/// Pulls `"key":<u64>` out of the flat stats JSON.
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat).unwrap_or_else(|| panic!("{key} in {json}")) + pat.len();
    json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("u64 field")
}

#[test]
fn kill_nine_mid_fleet_resumes_bit_identically() {
    let store = scratch("fleet");
    let specs: Vec<JobSpec> = (0..8u64)
        .map(|i| {
            let mut args = JobSpec::tiny(500 + 7 * i).args().to_vec();
            if i == 3 {
                args.push("--non-iid".into());
            }
            JobSpec::new(args).expect("spec builds")
        })
        .collect();

    // Phase 1: serve paced slow enough that SIGKILL lands mid-fleet.
    let (mut serve, addr) = spawn_serve(&store, &["--round-delay-ms", "60"]);
    let mut client = ServiceClient::connect_tcp(addr).expect("connect");
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| client.submit(s).expect("submit"))
        .collect();

    // Wait until the fleet is genuinely mid-flight: at least one job has
    // passed its first periodic checkpoint (every 2 rounds), and nothing
    // has finished yet.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "fleet never got mid-flight");
        let jobs = client.list().expect("list");
        let none_done = jobs.iter().all(|(_, s)| *s != JobState::Completed);
        let checkpointed = ids.iter().any(|id| {
            let status = client.status(*id).expect("status");
            json_u64(&status.detail, "rounds_completed") >= 2
        });
        if checkpointed && none_done {
            // A little more runway so the snapshot write settles.
            std::thread::sleep(Duration::from_millis(200));
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    serve.0.kill().expect("SIGKILL serve");
    serve.0.wait().expect("reap killed serve");
    drop(client);

    // Phase 2: restart on the same store, full speed; every job resumes
    // from its last durable snapshot and finishes.
    let (mut serve, addr) = spawn_serve(&store, &[]);
    let mut client = ServiceClient::connect_tcp(addr).expect("reconnect");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        assert!(Instant::now() < deadline, "fleet never completed");
        let jobs = client.list().expect("list");
        assert_eq!(jobs.len(), specs.len(), "no job may be lost by the crash");
        if jobs.iter().all(|(_, s)| *s == JobState::Completed) {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }

    let mut fleet_resumes = 0u64;
    for (spec, id) in specs.iter().zip(&ids) {
        let (genotype, bytes_down, bytes_up, rounds) = baseline(spec);
        let status = client.status(*id).expect("status");
        assert_eq!(status.state, JobState::Completed);
        assert!(
            status
                .detail
                .contains(&format!("\"genotype\":\"{genotype}\"")),
            "job {id}: genotype diverged from single-run baseline: {}",
            status.detail
        );
        let stats = client.stats(*id).expect("stats");
        assert_eq!(json_u64(&stats, "bytes_down"), bytes_down, "job {id}");
        assert_eq!(json_u64(&stats, "bytes_up"), bytes_up, "job {id}");
        assert_eq!(json_u64(&stats, "rounds"), rounds, "job {id}");
        fleet_resumes += json_u64(&stats, "resumes");
    }
    // Jobs killed before their first periodic checkpoint restart from
    // scratch (no resume to record), but the mid-flight wait above
    // guarantees at least one job had a durable snapshot to resume from.
    assert!(
        fleet_resumes >= 1,
        "no job recorded a crash resume — the kill landed before any checkpoint"
    );
    drop(client);

    // Phase 3: graceful shutdown — SIGTERM checkpoints and exits 0.
    let pid = serve.0.id().to_string();
    let sent = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(sent.success());
    let status = serve.0.wait().expect("reap serve");
    assert!(status.success(), "SIGTERM must exit cleanly, got {status}");

    std::fs::remove_dir_all(&store).expect("cleanup");
}
