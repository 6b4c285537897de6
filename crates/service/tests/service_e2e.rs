//! End-to-end determinism suite for the multi-tenant service: interleaved
//! fleets are bit-identical to sequential single runs; kill-and-restart
//! resumes bit-identically; per-job network traces drive per-job codec
//! choices; byte budgets auto-pause.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fedrlnas_core::{FederatedModelSearch, SearchOutcome};
use fedrlnas_netsim::Environment;
use fedrlnas_service::{JobManager, JobQuotas, JobSpec, JobState, JobStore, QuarantineReason};
use rand::{rngs::StdRng, SeedableRng};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("fedrlnas-e2e-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sequential single-run baseline: the exact construction sequence of
/// `fedrlnas search` (and of `Job::create`), including the RPC backend
/// install for RpcMem specs (`fedrlnas search --rpc`).
fn baseline(spec: &JobSpec) -> SearchOutcome {
    let config = spec.build_config().expect("valid spec");
    let dataset = spec.build_dataset(&config);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut search = FederatedModelSearch::with_dataset(config, dataset, &mut rng);
    if spec.uses_rpc() {
        let worker_dataset = search.dataset().clone();
        fedrlnas_rpc::install(
            search.server_mut(),
            &worker_dataset,
            fedrlnas_rpc::RpcConfig::default(),
        );
    }
    search.run(&mut rng)
}

/// Bit-level equality on everything except wall-clock timings and the
/// resume counter (a resumed job records its resumes; the baseline has
/// none — both are metadata, not results).
fn assert_outcomes_match(got: &SearchOutcome, want: &SearchOutcome, label: &str) {
    assert_eq!(got.genotype, want.genotype, "{label}: genotype");
    assert_eq!(
        got.warmup_curve.steps(),
        want.warmup_curve.steps(),
        "{label}: warmup curve"
    );
    assert_eq!(
        got.search_curve.steps(),
        want.search_curve.steps(),
        "{label}: search curve"
    );
    assert_eq!(
        got.comm.bytes_down, want.comm.bytes_down,
        "{label}: bytes down"
    );
    assert_eq!(got.comm.bytes_up, want.comm.bytes_up, "{label}: bytes up");
    assert_eq!(got.comm.rounds, want.comm.rounds, "{label}: rounds");
    assert_eq!(
        got.comm.compression, want.comm.compression,
        "{label}: compression tallies"
    );
    assert_eq!(got.alpha_probs, want.alpha_probs, "{label}: alpha");
}

/// `JobSpec::tiny(seed)` with `extra` flags after it.
fn tiny_with(seed: u64, extra: &[&str]) -> JobSpec {
    let mut args = JobSpec::tiny(seed).args().to_vec();
    args.extend(extra.iter().map(|a| a.to_string()));
    JobSpec::new(args).expect("spec builds")
}

/// A varied 8-job fleet: different seeds, one non-iid, one SVHN, one with
/// an explicit environment profile, one on the in-memory RPC backend.
fn fleet_specs() -> Vec<JobSpec> {
    let extra = |i: usize| match i {
        2 => &["--non-iid"][..],
        3 => &["--dataset", "svhn"],
        5 => &["--environments", "car,tram"],
        6 => &["--rpc"],
        _ => &[],
    };
    (0..8)
        .map(|i| tiny_with(1000 + 17 * i as u64, extra(i)))
        .collect()
}

#[test]
fn interleaved_fleet_matches_sequential_single_runs() {
    let specs = fleet_specs();
    let dir = scratch("fleet");
    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 3).expect("open");
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| mgr.submit(s.clone()).expect("submit"))
        .collect();
    mgr.run_until_idle().expect("run fleet");
    assert!(mgr.all_terminal());

    for (spec, id) in specs.iter().zip(&ids) {
        let want = baseline(spec);
        let job = mgr.job(*id).expect("job live");
        assert_eq!(job.state(), JobState::Completed);
        assert_outcomes_match(&job.outcome(), &want, &format!("job {id}"));
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn killed_fleet_resumes_bit_identically_from_the_store() {
    let specs: Vec<JobSpec> = (0..4u64).map(|i| JobSpec::tiny(4000 + 31 * i)).collect();
    let dir = scratch("resume");
    {
        let mut mgr = JobManager::open(&dir, JobQuotas::default(), 2).expect("open");
        for spec in &specs {
            mgr.submit(spec.clone()).expect("submit");
        }
        // Run part of the fleet, then drop the manager cold — no
        // checkpoint_all, like a kill -9 between periodic snapshots.
        for _ in 0..22 {
            mgr.tick().expect("tick");
        }
        assert!(!mgr.all_terminal(), "fleet must die mid-flight");
    }

    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 2).expect("recover");
    mgr.run_until_idle().expect("finish fleet");
    assert!(mgr.all_terminal());
    for (i, spec) in specs.iter().enumerate() {
        let id = (i + 1) as u64;
        let want = baseline(spec);
        let job = mgr.job(id).expect("job recovered");
        assert_outcomes_match(&job.outcome(), &want, &format!("resumed job {id}"));
        assert!(
            job.outcome().comm.resumes >= 1,
            "job {id} should have recorded its resume"
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Satellite regression: with `codec: Auto`, each job's codec choice must
/// follow its *own* network trace, not process-global state. A fleet of
/// one all-Foot (strong links → mild compression) and one all-Train
/// (weak links → aggressive compression) job must reproduce each job's
/// isolated tallies exactly, and those tallies must differ.
#[test]
fn per_job_traces_drive_per_job_codec_choice() {
    let foot = tiny_with(777, &["--codec", "auto", "--environments", "foot"]);
    let train = tiny_with(777, &["--codec", "auto", "--environments", "train"]);

    let want_foot = baseline(&foot);
    let want_train = baseline(&train);
    assert_ne!(
        want_foot.comm.compression, want_train.comm.compression,
        "strong and weak traces must produce different codec mixes"
    );

    let dir = scratch("traces");
    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("open");
    let id_foot = mgr.submit(foot).expect("submit foot");
    let id_train = mgr.submit(train).expect("submit train");
    mgr.run_until_idle().expect("run both");

    assert_outcomes_match(
        &mgr.job(id_foot).expect("foot").outcome(),
        &want_foot,
        "foot-trace job",
    );
    assert_outcomes_match(
        &mgr.job(id_train).expect("train").outcome(),
        &want_train,
        "train-trace job",
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn byte_budget_pauses_and_explicit_resume_finishes_identically() {
    let spec = JobSpec::tiny(99);
    let want = baseline(&spec);

    let dir = scratch("budget");
    let quotas = JobQuotas {
        byte_budget: Some(1), // any traffic at all exhausts it
        ..JobQuotas::default()
    };
    let mut mgr = JobManager::open(&dir, quotas, 0).expect("open");
    let id = mgr.submit(spec).expect("submit");
    mgr.run_until_idle().expect("run to auto-pause");
    let (state, rounds, total) = mgr.status(id).expect("status");
    assert_eq!(state, JobState::Paused, "over-budget job must pause");
    assert!(rounds < total);

    // Lifting the quota and resuming finishes the job bit-identically.
    drop(mgr);
    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("reopen");
    mgr.resume(id).expect("resume paused job");
    mgr.run_until_idle().expect("finish");
    assert_outcomes_match(
        &mgr.job(id).expect("job").outcome(),
        &want,
        "budget-paused job",
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn cancelled_jobs_leave_the_rotation_and_stay_terminal() {
    let dir = scratch("cancel");
    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("open");
    let keep = mgr.submit(JobSpec::tiny(1)).expect("submit 1");
    let kill = mgr.submit(JobSpec::tiny(2)).expect("submit 2");
    mgr.tick().expect("tick");
    mgr.cancel(kill).expect("cancel");
    assert!(mgr.resume(kill).is_err(), "terminal states are sticky");
    mgr.run_until_idle().expect("run rest");
    assert_eq!(mgr.status(keep).expect("status").0, JobState::Completed);
    assert_eq!(mgr.status(kill).expect("status").0, JobState::Cancelled);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The acceptance-scale fleet: 50+ interleaved searches, every one
/// bit-identical to its sequential single run. Minutes of work — run via
/// `--ignored` (CI does, in release).
#[test]
#[ignore = "acceptance scale; run with --ignored (CI does, in release)"]
fn fifty_interleaved_jobs_match_their_single_run_baselines() {
    let specs: Vec<JobSpec> = (0..52u64)
        .map(|i| {
            let mut extra = Vec::new();
            if i % 7 == 3 {
                extra.push("--non-iid");
            }
            if i % 11 == 5 {
                extra.extend(["--environments", Environment::ALL[i as usize % 6].name()]);
            }
            tiny_with(9000 + 13 * i, &extra)
        })
        .collect();

    let dir = scratch("fifty");
    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 5).expect("open");
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| mgr.submit(s.clone()).expect("submit"))
        .collect();
    mgr.run_until_idle().expect("run fleet");
    assert!(mgr.all_terminal());

    for (spec, id) in specs.iter().zip(&ids) {
        let want = baseline(spec);
        assert_outcomes_match(
            &mgr.job(*id).expect("job").outcome(),
            &want,
            &format!("job {id}"),
        );
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `bytes` stored as a queued job's spec, then the store reopened by a
/// manager: the job must come back quarantined as corrupt.
fn assert_stored_spec_is_quarantined(tag: &str, bytes: &[u8]) {
    let dir = scratch(tag);
    let mut store = JobStore::open(&dir).expect("store");
    let id = store
        .create(bytes, JobState::Queued.code())
        .expect("create");
    drop(store);
    let mgr = JobManager::open(&dir, JobQuotas::default(), 0).expect("restart");
    assert!(
        matches!(
            mgr.quarantine_reason(id),
            Some(QuarantineReason::Corrupt(_))
        ),
        "{tag}: {:?}",
        mgr.quarantine_reason(id)
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A spec with more participants than the dataset has training samples
/// would leave a shard empty: it is refused before any store sees it, and
/// a restart quarantines one that is already stored.
#[test]
fn more_participants_than_training_samples_is_refused_and_never_stored() {
    let args = ["--scale", "tiny", "--seed", "1", "--participants", "1001"];
    let err = JobSpec::new(args).expect_err("an empty shard");
    assert!(err.contains("1001 participants"), "{err}");
    // such a spec already in the store
    assert_eq!(v6(&args[..4]), JobSpec::tiny(1).encode());
    assert_stored_spec_is_quarantined("too-many", &v6(&args));
}

/// A v6 spec stored before decode refused a repeated flag or a stray word
/// (the version did not change with that check) is quarantined on restart.
#[test]
fn a_stored_v6_spec_with_a_repeated_flag_or_a_stray_word_is_quarantined_on_restart() {
    let twice = ["--scale", "tiny", "--seed", "1", "--seed", "2"];
    assert_stored_spec_is_quarantined("seed-twice", &v6(&twice));
    assert_stored_spec_is_quarantined("stray-word", &v6(&["--scale", "tiny", "tiny"]));
}

/// The v6 encoding of `args`, whether or not the list builds.
fn v6(args: &[&str]) -> Vec<u8> {
    let mut bytes = vec![6u8];
    bytes.extend_from_slice(&(args.len() as u32).to_le_bytes());
    for arg in args {
        bytes.extend_from_slice(&(arg.len() as u32).to_le_bytes());
        bytes.extend_from_slice(arg.as_bytes());
    }
    bytes
}

/// A job spec of the previous layout (v5, per-field codes) no longer
/// decodes: a store that holds one quarantines the job on restart.
#[test]
fn a_stored_v5_spec_is_quarantined_on_restart() {
    // `JobSpec::tiny(7).encode()` as v5 wrote it
    const V5: &str = "05070000000000000000000000000000000000000000";
    let v5: Vec<u8> = (0..V5.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&V5[i..i + 2], 16).expect("hex digit pair"))
        .collect();
    assert_stored_spec_is_quarantined("v5", &v5);
}
