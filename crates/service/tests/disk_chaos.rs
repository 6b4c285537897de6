//! Storage-chaos suite: interleaved job fleets driven through seeded,
//! deterministic I/O fault schedules (torn writes, dropped fsyncs,
//! transient EIO, ENOSPC) with kill-and-restart in the middle. The
//! contract under any schedule: every job either completes bit-identical
//! to its fault-free single-run baseline or is durably quarantined with a
//! typed reason — no silent corruption, no aborted serve loop — and the
//! same fault seed produces the same fault tally. The one concession is
//! to lying fsyncs: an acknowledged submit whose durability the disk lied
//! about can be erased by a crash, and then it must vanish completely
//! (all-or-nothing, never a half-present record).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fedrlnas_core::{FaultyVfs, FederatedModelSearch, IoFaultPlan, SearchOutcome, StdVfs, Vfs};
use fedrlnas_fed::IoFaultTally;
use fedrlnas_service::{JobManager, JobQuotas, JobSpec, JobState, QuarantineReason, ServiceError};
use rand::{rngs::StdRng, SeedableRng};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("fedrlnas-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fault-free single-run baseline (the `fedrlnas search`
/// construction sequence, as in the e2e suite).
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

/// Bit-level equality on results (not wall-clock timing or the resume /
/// io-fault metadata, which legitimately differ under chaos).
fn assert_outcomes_match(got: &SearchOutcome, want: &SearchOutcome, label: &str) {
    assert_eq!(got.genotype, want.genotype, "{label}: genotype");
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
    assert_eq!(got.alpha_probs, want.alpha_probs, "{label}: alpha");
}

/// A [`Vfs`] handle the test keeps shared ownership of, so it can crash
/// the "disk" after dropping the manager and keep the same fault-schedule
/// counters across a simulated process restart.
#[derive(Debug, Clone)]
struct SharedVfs(Arc<Mutex<FaultyVfs>>);

impl SharedVfs {
    fn new(plan: IoFaultPlan) -> Self {
        SharedVfs(Arc::new(Mutex::new(FaultyVfs::new(plan))))
    }

    fn simulate_crash(&self) {
        self.0
            .lock()
            .expect("vfs lock")
            .simulate_crash()
            .expect("crash simulation");
    }
}

impl Vfs for SharedVfs {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.lock().expect("vfs lock").read(path)
    }
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.lock().expect("vfs lock").write_file(path, bytes)
    }
    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        self.0.lock().expect("vfs lock").fsync(path)
    }
    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()> {
        self.0.lock().expect("vfs lock").fsync_dir(dir)
    }
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.lock().expect("vfs lock").rename(from, to)
    }
    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.0.lock().expect("vfs lock").remove(path)
    }
    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.0.lock().expect("vfs lock").read_dir(dir)
    }
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.0.lock().expect("vfs lock").create_dir_all(dir)
    }
    fn take_fault_tally(&mut self) -> IoFaultTally {
        self.0.lock().expect("vfs lock").take_fault_tally()
    }
}

/// Submits with bounded deterministic retries: under an active fault plan
/// a submit can legitimately fail, and the scenario scripts need every
/// job to exist. Plays the operator too: when enough consecutive faults
/// trip the store's sticky read-only degraded mode, a scrub is the
/// documented remedy, so run one and keep going.
fn submit_retrying(mgr: &mut JobManager, spec: &JobSpec) -> u64 {
    let mut last = String::new();
    for _ in 0..64 {
        match mgr.submit(spec.clone()) {
            Ok(id) => return id,
            Err(e @ ServiceError::Store(_)) => {
                last = e.to_string();
                if mgr.store().degraded().is_some() {
                    let _ = mgr.scrub();
                }
            }
            Err(e) => panic!("non-store submit failure: {e}"),
        }
    }
    panic!("submit failed 64 times under the fault plan; last error: {last}");
}

/// One full chaos scenario in `dir`: submit a fleet under seeded faults,
/// run a fixed tick script, kill (drop + crash the disk), restart on the
/// same fault-schedule counters, drive to settled. Returns every job's
/// final `(id, state)`, its outcome-vs-baseline verdict already asserted,
/// plus the combined fault tally of both manager lifetimes.
fn chaos_scenario(
    dir: &Path,
    specs: &[JobSpec],
    plan: IoFaultPlan,
) -> (Vec<(u64, u8)>, IoFaultTally) {
    let vfs = SharedVfs::new(plan);
    let mut tally = IoFaultTally::default();

    let ids: Vec<u64>;
    {
        let mut mgr = JobManager::open_with(dir, JobQuotas::default(), 1, Box::new(vfs.clone()))
            .expect("open under faults");
        ids = specs.iter().map(|s| submit_retrying(&mut mgr, s)).collect();
        for _ in 0..60 {
            mgr.tick().expect("tick never aborts the loop");
        }
        tally.merge(&mgr.io_tally());
        // Dropped cold: no checkpoint_all, like a kill -9.
    }
    vfs.simulate_crash();

    {
        let mut mgr = JobManager::open_with(dir, JobQuotas::default(), 1, Box::new(vfs.clone()))
            .expect("reopen after crash");
        mgr.run_until_idle().expect("drive to settled");
        assert!(mgr.all_settled(), "every job must settle: {:?}", mgr.list());
        tally.merge(&mgr.io_tally());

        for (spec, id) in specs.iter().zip(&ids) {
            match mgr.status(*id) {
                Ok((JobState::Completed, _, _)) => {
                    let want = baseline(spec);
                    let job = mgr.job(*id).expect("completed job is live");
                    assert_outcomes_match(&job.outcome(), &want, &format!("job {id}"));
                }
                Ok((JobState::Quarantined, _, _)) => {
                    assert!(
                        mgr.quarantine_reason(*id).is_some(),
                        "job {id}: quarantine must carry a typed reason"
                    );
                }
                Ok((other, _, _)) => {
                    panic!("job {id} settled in unexpected state {}", other.name())
                }
                // A dropped fsync can ack a submit the crash then erases —
                // no store out-lies a disk that lies about durability. The
                // contract is all-or-nothing: a lost ack must leave no
                // partial state behind.
                Err(ServiceError::UnknownJob(_)) => {
                    assert!(
                        mgr.store().get(*id).is_none(),
                        "job {id}: lost ack must leave no store record"
                    );
                    assert!(
                        !mgr.store().lost_jobs().contains(id),
                        "job {id}: lost ack must not linger in the manifest"
                    );
                }
                Err(e) => panic!("job {id}: status failed: {e}"),
            }
        }
        (mgr.list(), tally)
    }
}

fn chaos_specs(n: u64) -> Vec<JobSpec> {
    (0..n).map(|i| JobSpec::tiny(52_000 + 23 * i)).collect()
}

fn chaos_plan(seed: u64) -> IoFaultPlan {
    IoFaultPlan {
        seed,
        torn_write: 0.04,
        drop_fsync: 0.06,
        io_error: 0.05,
        disk_full: 0.0,
        full_from: 0,
        full_len: 0,
    }
}

#[test]
fn killed_fleet_under_seeded_faults_resumes_bit_identically_or_quarantines() {
    let specs = chaos_specs(6);
    let dir = scratch("fleet");
    let (states, tally) = chaos_scenario(&dir, &specs, chaos_plan(0xC0FFEE));
    // Not an exact census: a submit that errored at the client but landed
    // on disk is a legitimate duplicate job (the client's documented
    // submit semantics), and a lying fsync can erase an acked one.
    assert!(!states.is_empty(), "{states:?}");
    assert!(
        tally.total_injected() > 0,
        "the plan must actually have injected faults: {tally:?}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn same_fault_seed_same_faults_same_tally() {
    let specs = chaos_specs(4);
    // Same directory path both times: the schedule is a function of
    // (seed, path, op index), so the dir must match for the replay.
    let dir = scratch("replay");
    let (states_a, tally_a) = chaos_scenario(&dir, &specs, chaos_plan(99));
    std::fs::remove_dir_all(&dir).expect("reset between runs");
    let (states_b, tally_b) = chaos_scenario(&dir, &specs, chaos_plan(99));
    assert_eq!(states_a, states_b, "same seed, same final states");
    assert_eq!(tally_a, tally_b, "same seed, same fault tally");

    std::fs::remove_dir_all(&dir).expect("reset before reseed");
    let (_, tally_c) = chaos_scenario(&dir, &specs, chaos_plan(100));
    assert_ne!(
        tally_a, tally_c,
        "a different seed must produce a different schedule"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn inactive_fault_plan_is_byte_identical_to_the_production_vfs() {
    let specs = chaos_specs(2);
    let run = |dir: &Path, vfs: Box<dyn Vfs>| {
        let mut mgr = JobManager::open_with(dir, JobQuotas::default(), 2, vfs).expect("open");
        for spec in &specs {
            mgr.submit(spec.clone()).expect("submit");
        }
        mgr.run_until_idle().expect("run");
        mgr.checkpoint_all().expect("checkpoint");
        assert!(mgr.all_terminal());
        assert!(!mgr.io_tally().any(), "inactive plan must inject nothing");
    };
    let dir_std = scratch("ident-std");
    let dir_faulty = scratch("ident-faulty");
    run(&dir_std, Box::new(StdVfs));
    run(&dir_faulty, Box::new(FaultyVfs::new(IoFaultPlan::none())));

    // Same file names, same bytes, in both store directories.
    let listing = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read dir")
            .map(|e| {
                let path = e.expect("entry").path();
                let name = path
                    .file_name()
                    .expect("name")
                    .to_string_lossy()
                    .into_owned();
                (name, std::fs::read(&path).expect("read file"))
            })
            .collect();
        files.sort();
        files
    };
    let files_std = listing(&dir_std);
    let files_faulty = listing(&dir_faulty);
    assert!(!files_std.is_empty());
    assert_eq!(
        files_std.len(),
        files_faulty.len(),
        "same store file census"
    );
    for ((name_a, bytes_a), (name_b, bytes_b)) in files_std.iter().zip(&files_faulty) {
        assert_eq!(name_a, name_b, "file names must match");
        assert_eq!(bytes_a, bytes_b, "{name_a}: bytes must match");
    }
    std::fs::remove_dir_all(&dir_std).expect("cleanup");
    std::fs::remove_dir_all(&dir_faulty).expect("cleanup");
}

/// An ENOSPC window placed to break every persist attempt of one round
/// (3 attempts = writes 6, 7, 8 of the store's life), then lift — so the
/// quarantine record itself lands durably at write 9.
#[test]
fn persistent_write_failure_quarantines_stickily_and_scrub_gates_resume() {
    let spec = JobSpec::tiny(61_001);
    let want = baseline(&spec);
    let dir = scratch("quarantine");
    let plan = IoFaultPlan {
        full_from: 6,
        full_len: 3,
        ..IoFaultPlan::none()
    };
    let id;
    {
        let mut mgr = JobManager::open_with(
            &dir,
            JobQuotas::default(),
            1,
            Box::new(FaultyVfs::new(plan)),
        )
        .expect("open");
        id = mgr.submit(spec.clone()).expect("submit (writes 0-1)");
        mgr.tick()
            .expect("tick 1: run flip + round 1 snapshot (writes 2-5)");
        mgr.tick()
            .expect("tick 2: round 2 snapshot fails 3x, quarantines");

        let (state, _, _) = mgr.status(id).expect("status");
        assert_eq!(state, JobState::Quarantined, "exhausted retries quarantine");
        assert!(
            matches!(
                mgr.quarantine_reason(id),
                Some(QuarantineReason::DiskFull(_))
            ),
            "reason must be typed as disk-full: {:?}",
            mgr.quarantine_reason(id)
        );
        let tally = mgr.io_tally();
        assert_eq!(tally.disk_full, 3, "{tally:?}");
        assert_eq!(tally.retries, 2, "{tally:?}");
        assert_eq!(tally.quarantined, 1, "{tally:?}");
        // The per-job CommStats carry the same io counters.
        let json = mgr.stats_json(id).expect("stats");
        assert!(json.contains("\"disk_full\":3"), "{json}");

        // Sticky: no transition leaves quarantine without a scrub.
        assert!(matches!(
            mgr.resume(id),
            Err(ServiceError::InvalidTransition { .. })
        ));
        assert!(matches!(
            mgr.pause(id),
            Err(ServiceError::InvalidTransition { .. })
        ));
        // The scheduler ignores it entirely.
        assert!(!mgr.tick().expect("tick"), "quarantined job never runs");
    }

    // The quarantine survives a restart (state + reason came from disk).
    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 1).expect("reopen");
    let (state, _, _) = mgr.status(id).expect("status");
    assert_eq!(state, JobState::Quarantined, "quarantine must be durable");
    assert!(mgr.quarantine_reason(id).is_some());
    assert!(
        matches!(mgr.resume(id), Err(ServiceError::InvalidTransition { .. })),
        "resume is still refused before a scrub"
    );

    // Scrub on the healed disk clears the gate; resume then finishes the
    // job bit-identically to its fault-free baseline.
    let report = mgr.scrub().expect("scrub");
    assert!(report.lost.is_empty(), "{report:?}");
    mgr.resume(id).expect("resume after scrub");
    mgr.run_until_idle().expect("finish");
    assert_eq!(mgr.status(id).expect("status").0, JobState::Completed);
    assert_outcomes_match(
        &mgr.job(id).expect("job").outcome(),
        &want,
        "quarantined-then-resumed job",
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Regression (found by the 22-job chaos fleet): a job that quarantines
/// on its very first persist — the Queued -> Running flip, before any
/// round ran — must not strand the fleet behind it. `tick` reports the
/// quarantine as progress, so `run_until_idle` keeps serving the other
/// tenants instead of reading the turn as "idle".
#[test]
fn quarantine_on_first_persist_does_not_strand_the_fleet() {
    let spec_a = JobSpec::tiny(61_200);
    let spec_b = JobSpec::tiny(61_300);
    let want_b = baseline(&spec_b);
    let dir = scratch("strand");
    // Writes 0-3 are the two submits; writes 4-6 are job a's three
    // run-flip persist attempts, all eaten by the disk-full window.
    let plan = IoFaultPlan {
        full_from: 4,
        full_len: 3,
        ..IoFaultPlan::none()
    };
    let mut mgr = JobManager::open_with(
        &dir,
        JobQuotas::default(),
        1,
        Box::new(FaultyVfs::new(plan)),
    )
    .expect("open");
    let a = mgr.submit(spec_a).expect("submit a");
    let b = mgr.submit(spec_b.clone()).expect("submit b");
    mgr.run_until_idle().expect("drive to settled");
    assert!(mgr.all_settled(), "{:?}", mgr.list());

    assert_eq!(mgr.status(a).expect("status a").0, JobState::Quarantined);
    assert!(matches!(
        mgr.quarantine_reason(a),
        Some(QuarantineReason::DiskFull(_))
    ));
    assert_eq!(
        mgr.status(b).expect("status b").0,
        JobState::Completed,
        "the fleet behind a quarantine must still be served"
    );
    assert_outcomes_match(&mgr.job(b).expect("job b").outcome(), &want_b, "job b");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn cancel_is_allowed_from_quarantine() {
    let dir = scratch("cancel");
    let plan = IoFaultPlan {
        full_from: 6,
        full_len: 3,
        ..IoFaultPlan::none()
    };
    let mut mgr = JobManager::open_with(
        &dir,
        JobQuotas::default(),
        1,
        Box::new(FaultyVfs::new(plan)),
    )
    .expect("open");
    let id = mgr.submit(JobSpec::tiny(61_002)).expect("submit");
    mgr.tick().expect("tick 1");
    mgr.tick().expect("tick 2 quarantines");
    assert_eq!(mgr.status(id).expect("status").0, JobState::Quarantined);
    mgr.cancel(id)
        .expect("an operator may abandon a quarantined job");
    assert_eq!(mgr.status(id).expect("status").0, JobState::Cancelled);
    assert!(mgr.quarantine_reason(id).is_none());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn totally_destroyed_records_become_quarantined_ghosts_not_crashes() {
    let dir = scratch("ghost");
    let gone_spec = JobSpec::tiny(61_003);
    let kept_spec = JobSpec::tiny(61_004);
    let (gone, kept);
    {
        let mut mgr = JobManager::open(&dir, JobQuotas::default(), 1).expect("open");
        gone = mgr.submit(gone_spec).expect("submit");
        kept = mgr.submit(kept_spec.clone()).expect("submit");
        mgr.checkpoint_all().expect("checkpoint");
    }
    // Destroy every segment of `gone` — total bitrot — keeping the
    // manifest entry.
    for entry in std::fs::read_dir(&dir).expect("dir") {
        let path = entry.expect("entry").path();
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        if name.starts_with(&format!("job-{gone}-gen-")) {
            std::fs::remove_file(&path).expect("destroy");
        }
    }

    let mut mgr = JobManager::open(&dir, JobQuotas::default(), 1).expect("open must survive");
    let (state, _, _) = mgr.status(gone).expect("ghost still listed");
    assert_eq!(state, JobState::Quarantined);
    assert!(
        matches!(
            mgr.quarantine_reason(gone),
            Some(QuarantineReason::Corrupt(_))
        ),
        "{:?}",
        mgr.quarantine_reason(gone)
    );
    assert!(
        mgr.list().contains(&(gone, JobState::Quarantined.code())),
        "{:?}",
        mgr.list()
    );
    // No valid generation anywhere: scrub reports it lost, resume stays
    // refused even after the scrub.
    let report = mgr.scrub().expect("scrub");
    assert_eq!(report.lost, vec![gone], "{report:?}");
    assert!(mgr.resume(gone).is_err());

    // The healthy neighbour is untouched and completes.
    mgr.run_until_idle().expect("run");
    assert_eq!(mgr.status(kept).expect("status").0, JobState::Completed);
    assert_outcomes_match(
        &mgr.job(kept).expect("job").outcome(),
        &baseline(&kept_spec),
        "neighbour of a ghost",
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The acceptance-scale chaos fleet: 20+ interleaved jobs, kill + crash +
/// restart under seeded faults, every job bit-identical or quarantined.
/// Minutes of work — run via `--ignored` (CI does, in release).
#[test]
#[ignore = "acceptance scale; run with --ignored (CI does, in release)"]
fn twenty_plus_jobs_under_chaos_resume_bit_identically_or_quarantine() {
    let specs: Vec<JobSpec> = (0..22u64)
        .map(|i| {
            let mut args = JobSpec::tiny(73_000 + 31 * i).args().to_vec();
            if i % 7 == 3 {
                args.push("--non-iid".into());
            }
            JobSpec::new(args).expect("spec builds")
        })
        .collect();
    let dir = scratch("twenty");
    let (states, tally) = chaos_scenario(&dir, &specs, chaos_plan(0xD15C));
    assert!(!states.is_empty(), "{states:?}");
    assert!(tally.total_injected() > 0, "{tally:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
