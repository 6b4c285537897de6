//! Crash-safe multi-job persistence: one directory holding per-job
//! segment files plus a CRC-protected manifest, written in an order that
//! makes every crash point recoverable.
//!
//! # Layout
//!
//! A store directory contains `*.seg` segment files and one `MANIFEST`.
//! Each segment is a self-describing record of one job at one generation:
//!
//! ```text
//! magic "FRLNJSEG" | version u8 | flags u8 | job_id u64 | generation u64
//! | state u8 | spec_len u32 | spec | ckpt_len u32 | ckpt | crc32
//! ```
//!
//! The `flags` byte carries lifecycle metadata — today the quarantine
//! reason code (0 = none) — so a quarantined job's typed reason survives
//! restarts. The manifest is a rebuildable index — which jobs exist, at
//! which generation, plus the id allocator — never the only copy of any
//! data:
//!
//! ```text
//! magic "FRLNJMAN" | version u8 | flags u8 | generation u64
//! | next_job_id u64 | count u32 | (job_id u64, gen u64, state u8)* | crc32
//! ```
//!
//! All integers are little-endian; both CRCs cover every preceding byte of
//! the file. Every mutation goes through a [`Vfs`]: files are written to a
//! `.tmp` sibling, fsynced, renamed into place, and the parent directory
//! is fsynced so the rename itself survives power loss. Reads bypass the
//! seam on purpose — recovery must observe the real disk, and the fault
//! injector keeps its schedule write-side.
//!
//! # Commit protocol and recovery
//!
//! A write commits **segment first, manifest second**; a removal deletes
//! **segment files first, manifest entry second**. Recovery scans every
//! segment, keeps the highest-generation valid copy per job, sweeps
//! orphaned `.tmp` files, and merges with the manifest under two rules: a
//! valid segment absent from (or newer than) the manifest is adopted — it
//! is a committed write whose manifest update was lost; a manifest entry
//! with no surviving valid segment has no bit-trustworthy state to
//! resume, so it is reported in [`JobStore::lost_jobs`] (for the service
//! layer to quarantine) rather than guessed around. Superseded
//! generations are kept until [`JobStore::compact`] so a torn newest
//! segment falls back to the previous one.
//!
//! # Degraded mode and scrub
//!
//! Persistent write failure (several consecutive I/O errors) flips the
//! store into a degraded read-only mode: reads keep working, mutations
//! fail fast with [`StoreError::ReadOnly`]. A [`JobStore::scrub`] pass
//! CRC-verifies every live job's newest on-disk segment against the
//! in-memory copy, rewrites any that rotted or vanished (repairing from
//! the newest valid generation), sweeps temp orphans, and — if all of
//! that succeeded — clears degraded mode.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use fedrlnas_core::record::{self, put_bytes, Count, Reader};
use fedrlnas_core::{crc32, write_atomic, StdVfs, Vfs};
use fedrlnas_fed::IoFaultTally;

const SEGMENT_MAGIC: &[u8; 8] = b"FRLNJSEG";
const MANIFEST_MAGIC: &[u8; 8] = b"FRLNJMAN";
const FORMAT_VERSION: u8 = 1;
/// Byte runs in a segment carry a `u32` length.
const COUNT: Count = Count::U32;
const MANIFEST_NAME: &str = "MANIFEST";

/// Consecutive failed mutations after which the store turns read-only.
const DEGRADED_THRESHOLD: u32 = 4;

/// Why a store operation failed. Corruption is an expected failure mode
/// for a crash-recovery subsystem, never a panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A file failed structural validation (bad magic, truncation, CRC).
    Corrupt(String),
    /// A write carried a stale per-job generation: another write to the
    /// same job committed in between.
    StaleGeneration {
        /// Job whose update was fenced off.
        job_id: u64,
        /// Generation the writer expected to supersede.
        expected: u64,
        /// Generation actually on disk.
        actual: u64,
    },
    /// The on-disk manifest advanced past this handle's view: another
    /// store handle committed. Re-open (or [`JobStore::refresh`]) to
    /// observe the other writer's state before retrying.
    ManifestConflict {
        /// Manifest generation this handle last observed.
        cached: u64,
        /// Manifest generation now on disk.
        disk: u64,
    },
    /// The job id is not in the store.
    UnknownJob(u64),
    /// The store is in degraded read-only mode after persistent write
    /// failure; mutations fail fast until a [`JobStore::scrub`] succeeds.
    ReadOnly(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "job store i/o error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt job store file: {what}"),
            StoreError::StaleGeneration {
                job_id,
                expected,
                actual,
            } => write!(
                f,
                "stale write to job {job_id}: expected generation {expected}, disk has {actual}"
            ),
            StoreError::ManifestConflict { cached, disk } => write!(
                f,
                "manifest advanced by another writer: cached generation {cached}, disk {disk}"
            ),
            StoreError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            StoreError::ReadOnly(why) => {
                write!(
                    f,
                    "job store is read-only after persistent write failure: {why}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One job's latest durable record.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredJob {
    /// Store-assigned job id.
    pub job_id: u64,
    /// Monotone per-job write counter; each committed segment bumps it.
    pub generation: u64,
    /// Opaque lifecycle state code (the service layer's `JobState`).
    pub state: u8,
    /// Opaque lifecycle metadata (the service layer's quarantine reason
    /// code; 0 when none).
    pub flags: u8,
    /// The submitted job spec, verbatim.
    pub spec: Vec<u8>,
    /// Latest search checkpoint (empty until the first round snapshot).
    pub checkpoint: Vec<u8>,
}

/// What a [`JobStore::scrub`] pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Live jobs whose newest on-disk segment was CRC-verified.
    pub segments_checked: usize,
    /// Jobs whose newest on-disk segment was missing or corrupt and was
    /// rewritten from the newest valid generation.
    pub repaired: Vec<u64>,
    /// Manifest entries with no bit-valid segment anywhere — nothing to
    /// repair from; the service layer quarantines these.
    pub lost: Vec<u64>,
    /// Orphaned `.tmp` files swept.
    pub tmp_removed: usize,
}

/// A crash-safe multi-job store rooted at one directory. All reads are
/// served from memory; every mutation is durable before it returns.
#[derive(Debug)]
pub struct JobStore {
    dir: PathBuf,
    vfs: Box<dyn Vfs>,
    manifest_generation: u64,
    next_job_id: u64,
    jobs: BTreeMap<u64, StoredJob>,
    /// Manifest entries with no surviving valid segment, found by the
    /// last recovery scan.
    lost: Vec<u64>,
    /// Consecutive mutations that failed with an I/O error.
    write_failures: u32,
    /// Read-only reason once persistent write failure tripped the
    /// threshold.
    degraded: Option<String>,
    /// Injected-fault and repair tally, drained by the service layer.
    io: IoFaultTally,
}

impl JobStore {
    /// Opens (creating if absent) the store at `dir` on the production
    /// filesystem and runs the recovery scan described in the module
    /// docs.
    ///
    /// # Errors
    ///
    /// Filesystem errors only — corrupt files are skipped, not fatal.
    pub fn open(dir: &Path) -> Result<JobStore, StoreError> {
        JobStore::open_with(dir, Box::new(StdVfs))
    }

    /// [`JobStore::open`] over an explicit [`Vfs`] — the seam the
    /// storage fault-injection suites drive.
    ///
    /// # Errors
    ///
    /// As [`JobStore::open`].
    pub fn open_with(dir: &Path, mut vfs: Box<dyn Vfs>) -> Result<JobStore, StoreError> {
        vfs.create_dir_all(dir)?;
        let mut store = JobStore {
            dir: dir.to_path_buf(),
            vfs,
            manifest_generation: 0,
            next_job_id: 1,
            jobs: BTreeMap::new(),
            lost: Vec::new(),
            write_failures: 0,
            degraded: None,
            io: IoFaultTally::default(),
        };
        let r = store.refresh();
        store.drain_vfs();
        r?;
        Ok(store)
    }

    /// Re-runs the recovery scan, replacing this handle's in-memory view
    /// with the merged on-disk state and sweeping orphaned `.tmp` files.
    /// Use after a [`StoreError::ManifestConflict`] to adopt another
    /// writer's commits.
    ///
    /// # Errors
    ///
    /// Filesystem errors only.
    pub fn refresh(&mut self) -> Result<(), StoreError> {
        let r = self.refresh_inner();
        self.drain_vfs();
        r
    }

    fn refresh_inner(&mut self) -> Result<(), StoreError> {
        let manifest = read_manifest(&self.dir.join(MANIFEST_NAME));
        let scanned = scan_segments(self.vfs.as_mut(), &self.dir)?;

        // Sweep orphaned temp files: residue of interrupted (or crash-
        // reverted) atomic writes, never meaningful state. Best-effort —
        // a failed sweep must not block recovery; scrub retries it.
        for path in self.vfs.read_dir(&self.dir)? {
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".tmp"));
            if is_tmp {
                let _ = self.vfs.remove(&path);
            }
        }

        let mut jobs = BTreeMap::new();
        let mut max_seen_id = 0u64;
        for (id, job) in scanned {
            max_seen_id = max_seen_id.max(id);
            jobs.insert(id, job);
        }
        let (manifest_generation, mut next_job_id, lost) = match &manifest {
            Some(m) => {
                // Entries without a surviving valid segment have no
                // bit-trustworthy state: report them for quarantine.
                let lost = m
                    .entries
                    .iter()
                    .copied()
                    .filter(|id| !jobs.contains_key(id))
                    .collect();
                (m.generation, m.next_job_id, lost)
            }
            None => (0, 1, Vec::new()),
        };
        next_job_id = next_job_id.max(max_seen_id + 1);

        self.manifest_generation = manifest_generation;
        self.next_job_id = next_job_id;
        self.jobs = jobs;
        self.lost = lost;
        Ok(())
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current manifest generation (bumps on every committed mutation).
    pub fn manifest_generation(&self) -> u64 {
        self.manifest_generation
    }

    /// Manifest entries the last recovery scan found no bit-valid
    /// segment for — candidates for quarantine, id-ordered.
    pub fn lost_jobs(&self) -> &[u64] {
        &self.lost
    }

    /// The read-only reason while the store is degraded, `None` when
    /// healthy.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Drains the injected-fault / repair tally accumulated since the
    /// last drain.
    pub fn take_io_tally(&mut self) -> IoFaultTally {
        std::mem::take(&mut self.io)
    }

    /// Adds a new job and returns its id. The record starts at
    /// generation 1 with an empty checkpoint.
    ///
    /// # Errors
    ///
    /// [`StoreError::ManifestConflict`] if another handle committed since
    /// this one last observed the manifest; [`StoreError::ReadOnly`] in
    /// degraded mode; filesystem errors.
    pub fn create(&mut self, spec: &[u8], state: u8) -> Result<u64, StoreError> {
        self.mutate(|s| s.create_inner(spec, state))
    }

    fn create_inner(&mut self, spec: &[u8], state: u8) -> Result<u64, StoreError> {
        self.check_fence()?;
        let job_id = self.next_job_id;
        let job = StoredJob {
            job_id,
            generation: 1,
            state,
            flags: 0,
            spec: spec.to_vec(),
            checkpoint: Vec::new(),
        };
        self.write_segment(&job)?;
        self.next_job_id += 1;
        self.jobs.insert(job_id, job);
        self.write_manifest()?;
        Ok(job_id)
    }

    /// Replaces a job's state and checkpoint, superseding `expected_gen`.
    /// Returns the new generation. Clears any stored quarantine reason
    /// (see [`JobStore::set_state_with_flags`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::StaleGeneration`] if the job moved past
    /// `expected_gen`; [`StoreError::ManifestConflict`] on cross-handle
    /// races; [`StoreError::UnknownJob`]; [`StoreError::ReadOnly`];
    /// filesystem errors.
    pub fn update(
        &mut self,
        job_id: u64,
        expected_gen: u64,
        state: u8,
        checkpoint: &[u8],
    ) -> Result<u64, StoreError> {
        self.mutate(|s| s.update_inner(job_id, expected_gen, state, 0, Some(checkpoint)))
    }

    fn update_inner(
        &mut self,
        job_id: u64,
        expected_gen: u64,
        state: u8,
        flags: u8,
        checkpoint: Option<&[u8]>,
    ) -> Result<u64, StoreError> {
        self.check_fence()?;
        let current = self
            .jobs
            .get(&job_id)
            .ok_or(StoreError::UnknownJob(job_id))?;
        if current.generation != expected_gen {
            return Err(StoreError::StaleGeneration {
                job_id,
                expected: expected_gen,
                actual: current.generation,
            });
        }
        let mut job = current.clone();
        job.generation = expected_gen + 1;
        job.state = state;
        job.flags = flags;
        if let Some(ckpt) = checkpoint {
            job.checkpoint = ckpt.to_vec();
        }
        self.write_segment(&job)?;
        let generation = job.generation;
        self.jobs.insert(job_id, job);
        self.write_manifest()?;
        Ok(generation)
    }

    /// Updates only the lifecycle state, keeping the stored checkpoint
    /// and clearing any quarantine reason.
    ///
    /// # Errors
    ///
    /// As [`JobStore::update`].
    pub fn set_state(&mut self, job_id: u64, state: u8) -> Result<u64, StoreError> {
        self.set_state_with_flags(job_id, state, 0)
    }

    /// Updates the lifecycle state plus the flags byte (the quarantine
    /// reason code), keeping the stored checkpoint — how a sticky
    /// `Quarantined` state and its typed reason are made durable.
    ///
    /// # Errors
    ///
    /// As [`JobStore::update`].
    pub fn set_state_with_flags(
        &mut self,
        job_id: u64,
        state: u8,
        flags: u8,
    ) -> Result<u64, StoreError> {
        self.mutate(|s| {
            let generation = s
                .jobs
                .get(&job_id)
                .ok_or(StoreError::UnknownJob(job_id))?
                .generation;
            s.update_inner(job_id, generation, state, flags, None)
        })
    }

    /// The latest durable record for `job_id`.
    pub fn get(&self, job_id: u64) -> Option<&StoredJob> {
        self.jobs.get(&job_id)
    }

    /// `(job_id, state, generation)` for every stored job, id-ordered.
    pub fn list(&self) -> Vec<(u64, u8, u64)> {
        self.jobs
            .values()
            .map(|j| (j.job_id, j.state, j.generation))
            .collect()
    }

    /// Deletes a job: segment files first, manifest entry second, so a
    /// crash in between reads as a completed removal on recovery.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownJob`], fencing errors,
    /// [`StoreError::ReadOnly`], filesystem errors.
    pub fn remove(&mut self, job_id: u64) -> Result<(), StoreError> {
        self.mutate(|s| s.remove_inner(job_id))
    }

    fn remove_inner(&mut self, job_id: u64) -> Result<(), StoreError> {
        self.check_fence()?;
        if !self.jobs.contains_key(&job_id) {
            return Err(StoreError::UnknownJob(job_id));
        }
        for path in segment_paths(self.vfs.as_mut(), &self.dir, job_id)? {
            self.vfs.remove(&path)?;
        }
        self.jobs.remove(&job_id);
        self.write_manifest()
    }

    /// Removes superseded segment generations and stray temp files,
    /// keeping exactly the latest valid segment per live job. Safe at any
    /// time: recovery never needs an older generation once a newer one is
    /// durable.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let r = self.compact_inner();
        self.drain_vfs();
        r
    }

    fn compact_inner(&mut self) -> Result<(), StoreError> {
        for path in self.vfs.read_dir(&self.dir)? {
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n,
                None => continue,
            };
            if name.ends_with(".tmp") {
                self.vfs.remove(&path)?;
                continue;
            }
            if !name.ends_with(".seg") {
                continue;
            }
            let keep = match read_segment(&path) {
                Some(seg) => self
                    .jobs
                    .get(&seg.job_id)
                    .is_some_and(|latest| latest.generation == seg.generation),
                None => false, // corrupt or torn: superseded by definition
            };
            if !keep {
                self.vfs.remove(&path)?;
            }
        }
        Ok(())
    }

    /// CRC-verifies every live job's newest on-disk segment against the
    /// in-memory copy (which recovery already proved bit-valid), rewrites
    /// any that rotted or vanished, sweeps temp orphans, re-commits the
    /// manifest, and — when everything succeeded — clears degraded mode.
    /// Jobs listed in the report as `lost` have no valid generation
    /// anywhere and can only be quarantined.
    ///
    /// Scrub deliberately bypasses the read-only gate: it *is* the
    /// healing path.
    ///
    /// # Errors
    ///
    /// Fencing and filesystem errors; on error the store stays (or
    /// becomes) degraded.
    pub fn scrub(&mut self) -> Result<ScrubReport, StoreError> {
        let r = self.scrub_inner();
        self.drain_vfs();
        match &r {
            Ok(_) => {
                self.write_failures = 0;
                self.degraded = None;
            }
            Err(e) => {
                let msg = e.to_string();
                self.note_write_failure(&msg);
            }
        }
        r
    }

    fn scrub_inner(&mut self) -> Result<ScrubReport, StoreError> {
        self.check_fence()?;
        let mut report = ScrubReport::default();
        for path in self.vfs.read_dir(&self.dir)? {
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".tmp"));
            if is_tmp {
                self.vfs.remove(&path)?;
                report.tmp_removed += 1;
            }
        }
        let on_disk = scan_segments(self.vfs.as_mut(), &self.dir)?;
        let ids: Vec<u64> = self.jobs.keys().copied().collect();
        for id in ids {
            report.segments_checked += 1;
            let mem = self.jobs.get(&id).expect("listed job exists").clone();
            let intact = on_disk.get(&id).is_some_and(|disk| *disk == mem);
            if !intact {
                // The newest committed copy rotted or vanished after it
                // was adopted: rewrite it verbatim from the newest valid
                // generation (the in-memory record recovery validated).
                self.write_segment(&mem)?;
                report.repaired.push(id);
                self.io.scrub_repaired = self.io.scrub_repaired.saturating_add(1);
            }
        }
        report.lost = self.lost.clone();
        // Re-commit the manifest: doubles as the degraded-mode probe.
        self.write_manifest()?;
        Ok(report)
    }

    /// Runs a mutation behind the degraded gate and failure accounting:
    /// I/O errors count toward the read-only threshold, success resets
    /// it, and the vfs fault tally is drained either way.
    fn mutate<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if let Some(why) = &self.degraded {
            return Err(StoreError::ReadOnly(why.clone()));
        }
        let r = f(self);
        self.drain_vfs();
        match &r {
            Ok(_) => self.write_failures = 0,
            Err(StoreError::Io(e)) => {
                let msg = e.to_string();
                self.note_write_failure(&msg);
            }
            // Fencing and validation failures are not disk health signals.
            Err(_) => {}
        }
        r
    }

    fn note_write_failure(&mut self, msg: &str) {
        self.write_failures = self.write_failures.saturating_add(1);
        if self.write_failures >= DEGRADED_THRESHOLD && self.degraded.is_none() {
            self.degraded = Some(format!(
                "{} consecutive write failures, last: {msg}",
                self.write_failures
            ));
        }
    }

    fn drain_vfs(&mut self) {
        let delta = self.vfs.take_fault_tally();
        if delta.any() {
            self.io.merge(&delta);
        }
    }

    /// Only a *valid* on-disk manifest with a different generation is
    /// evidence of another writer. An unreadable or missing manifest
    /// proves nothing — writers never delete it, so that state means the
    /// index itself got hurt (e.g. a torn manifest write that lied about
    /// success); the next commit atomically rebuilds it from memory, with
    /// the segments staying authoritative. Wedging on it would turn one
    /// lying write into a permanently conflicted handle.
    fn check_fence(&mut self) -> Result<(), StoreError> {
        match load_manifest(&self.dir.join(MANIFEST_NAME)) {
            DiskManifest::Valid(m) if m.generation != self.manifest_generation => {
                Err(StoreError::ManifestConflict {
                    cached: self.manifest_generation,
                    disk: m.generation,
                })
            }
            _ => Ok(()),
        }
    }

    fn write_segment(&mut self, job: &StoredJob) -> Result<(), StoreError> {
        let name = format!("job-{}-gen-{}.seg", job.job_id, job.generation);
        let mut body = Vec::with_capacity(40 + job.spec.len() + job.checkpoint.len());
        body.extend_from_slice(SEGMENT_MAGIC);
        body.push(FORMAT_VERSION);
        body.push(job.flags);
        body.extend_from_slice(&job.job_id.to_le_bytes());
        body.extend_from_slice(&job.generation.to_le_bytes());
        body.push(job.state);
        put_bytes(&mut body, COUNT, &job.spec);
        put_bytes(&mut body, COUNT, &job.checkpoint);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        write_atomic(self.vfs.as_mut(), &self.dir.join(name), &body)?;
        Ok(())
    }

    fn write_manifest(&mut self) -> Result<(), StoreError> {
        // The generation bumps only after the write lands: a failed
        // commit must not advance this handle's view past the disk, or
        // every later fence check would read as a phantom conflict.
        let next_generation = self.manifest_generation + 1;
        let mut body = Vec::with_capacity(30 + self.jobs.len() * 17);
        body.extend_from_slice(MANIFEST_MAGIC);
        body.push(FORMAT_VERSION);
        body.push(0); // flags, reserved
        body.extend_from_slice(&next_generation.to_le_bytes());
        body.extend_from_slice(&self.next_job_id.to_le_bytes());
        body.extend_from_slice(&(self.jobs.len() as u32).to_le_bytes());
        for job in self.jobs.values() {
            body.extend_from_slice(&job.job_id.to_le_bytes());
            body.extend_from_slice(&job.generation.to_le_bytes());
            body.push(job.state);
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let path = self.dir.join(MANIFEST_NAME);
        match write_atomic(self.vfs.as_mut(), &path, &body) {
            Ok(()) => {
                self.manifest_generation = next_generation;
                Ok(())
            }
            Err(e) => {
                // The commit may have landed before the failing step —
                // e.g. the rename succeeded and only the directory fsync
                // failed. If the disk now authenticates at exactly the
                // generation being committed, adopt it; otherwise every
                // later fence check would read this handle's own
                // half-landed write as a phantom concurrent writer. The
                // operation still reports failure: durability was not
                // achieved.
                if let DiskManifest::Valid(m) = load_manifest(&path) {
                    if m.generation == next_generation {
                        self.manifest_generation = next_generation;
                    }
                }
                Err(e.into())
            }
        }
    }
}

/// Parsed manifest index (structure only; records live in segments).
struct Manifest {
    generation: u64,
    next_job_id: u64,
    /// Job ids listed in the index.
    entries: Vec<u64>,
}

/// What the manifest path holds right now: the fence logic needs to tell
/// "no file" and "a file that does not authenticate" apart from a valid
/// index written by some handle.
enum DiskManifest {
    /// No manifest file (fresh directory, or a crash rolled it back).
    Missing,
    /// A file exists but fails framing/CRC — a torn or interrupted write.
    Corrupt,
    /// A CRC-valid index.
    Valid(Manifest),
}

fn load_manifest(path: &Path) -> DiskManifest {
    let Ok(bytes) = std::fs::read(path) else {
        return DiskManifest::Missing;
    };
    match parse_manifest(&bytes) {
        Some(m) => DiskManifest::Valid(m),
        None => DiskManifest::Corrupt,
    }
}

/// Reads and validates the manifest; any malformation reads as "no
/// manifest" — it is an index the recovery scan can rebuild.
fn read_manifest(path: &Path) -> Option<Manifest> {
    match load_manifest(path) {
        DiskManifest::Valid(m) => Some(m),
        _ => None,
    }
}

fn parse_manifest(bytes: &[u8]) -> Option<Manifest> {
    open_record(bytes, MANIFEST_MAGIC, |r| {
        r.u8()?; // flags, reserved
        let generation = r.u64()?;
        let next_job_id = r.u64()?;
        let count = r.count_u32(17)?; // (job id u64, generation u64, state u8)
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(r.u64()?);
            r.take(9)?;
        }
        Ok(Manifest {
            generation,
            next_job_id,
            entries,
        })
    })
}

/// Reads and validates one segment file; `None` for any malformation.
fn read_segment(path: &Path) -> Option<StoredJob> {
    let bytes = std::fs::read(path).ok()?;
    open_record(&bytes, SEGMENT_MAGIC, |r| {
        Ok(StoredJob {
            flags: r.u8()?,
            job_id: r.u64()?,
            generation: r.u64()?,
            state: r.u8()?,
            spec: r.byte_run(COUNT)?.to_vec(),
            checkpoint: r.byte_run(COUNT)?.to_vec(),
        })
    })
}

/// Checks the magic, the version and the trailing CRC over everything
/// before it, then reads the rest of the record with `fields`; `None` for
/// any malformation, trailing bytes included.
fn open_record<T>(
    bytes: &[u8],
    magic: &[u8; 8],
    fields: impl FnOnce(&mut Reader) -> Result<T, record::Error>,
) -> Option<T> {
    let (body, trailer) = bytes.split_at_checked(bytes.len().checked_sub(4)?)?;
    let mut r = Reader::new(body);
    if r.take(8).ok()? != magic
        || r.u8().ok()? != FORMAT_VERSION
        || crc32(body) != u32::from_le_bytes(trailer.try_into().ok()?)
    {
        return None;
    }
    let record = fields(&mut r).ok()?;
    r.finish().ok()?;
    Some(record)
}

/// Highest-generation valid segment per job across the whole directory.
fn scan_segments(vfs: &mut dyn Vfs, dir: &Path) -> Result<BTreeMap<u64, StoredJob>, StoreError> {
    let mut best: BTreeMap<u64, StoredJob> = BTreeMap::new();
    for path in vfs.read_dir(dir)? {
        let is_seg = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".seg"));
        if !is_seg {
            continue;
        }
        if let Some(seg) = read_segment(&path) {
            match best.get(&seg.job_id) {
                Some(cur) if cur.generation >= seg.generation => {}
                _ => {
                    best.insert(seg.job_id, seg);
                }
            }
        }
    }
    Ok(best)
}

/// Every segment file (any generation, valid or not) belonging to a job.
fn segment_paths(vfs: &mut dyn Vfs, dir: &Path, job_id: u64) -> Result<Vec<PathBuf>, StoreError> {
    let prefix = format!("job-{job_id}-gen-");
    let mut out = Vec::new();
    for path in vfs.read_dir(dir)? {
        let matches = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".seg"));
        if matches {
            out.push(path);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_core::{FaultyVfs, IoFaultPlan};

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fedrlnas-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_update_survive_reopen() {
        let dir = temp_store_dir("reopen");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec-bytes", 0).expect("create");
        let g2 = store.update(id, 1, 1, b"ckpt-v1").expect("update");
        assert_eq!(g2, 2);

        let reopened = JobStore::open(&dir).expect("reopen");
        let job = reopened.get(id).expect("job survives");
        assert_eq!(job.generation, 2);
        assert_eq!(job.state, 1);
        assert_eq!(job.spec, b"spec-bytes");
        assert_eq!(job.checkpoint, b"ckpt-v1");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A store directory as the commit before the slicing-by-8 CRC left it
    /// after `create` + `update` — the manifest and the live segment —
    /// must still open with the job intact: both trailers are the same
    /// CRC-32, only computed faster.
    #[test]
    fn records_written_before_the_fast_crc_still_open() {
        let unhex = |hex: &str| -> Vec<u8> {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
                .collect()
        };
        let manifest = unhex(concat!(
            "46524c4e4a4d414e010002000000000000000200000000000000010000000100",
            "0000000000000200000000000000016ad9e37d",
        ));
        let segment = unhex(concat!(
            "46524c4e4a534547010001000000000000000200000000000000010a00000073",
            "7065632d627974657307000000636b70742d76315aab7e5c",
        ));
        let dir = temp_store_dir("frozen");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(MANIFEST_NAME), &manifest).expect("write manifest");
        std::fs::write(dir.join("job-1-gen-2.seg"), &segment).expect("write segment");

        assert!(parse_manifest(&manifest).is_some(), "manifest CRC");
        let store = JobStore::open(&dir).expect("open");
        assert_eq!(store.manifest_generation(), 2);
        assert!(store.lost_jobs().is_empty());
        let job = store.get(1).expect("job 1 survives");
        assert_eq!((job.generation, job.state, job.flags), (2, 1, 0));
        assert_eq!(job.spec, b"spec-bytes");
        assert_eq!(job.checkpoint, b"ckpt-v1");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A segment whose checkpoint blob is long enough for the
    /// carry-less-multiply CRC to fold carries the trailer the table CRC
    /// wrote before that fold existed, and reopens intact.
    #[test]
    fn long_segment_trailer_written_before_the_folded_crc_is_unchanged() {
        let checkpoint: Vec<u8> = (0..1500u32).map(|i| (i * 131 % 251) as u8).collect();
        let dir = temp_store_dir("frozen-long");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec-long", 0).expect("create");
        let generation = store.update(id, 1, 1, &checkpoint).expect("update");
        let segment = std::fs::read(dir.join(format!("job-{id}-gen-{generation}.seg")))
            .expect("read segment");
        assert!(segment.len() >= 1024 && !(segment.len() - 4).is_multiple_of(16));
        let trailer = u32::from_le_bytes(segment[segment.len() - 4..].try_into().expect("4 B"));
        assert_eq!(trailer, 0x42A1_1500, "segment {} B", segment.len());
        let reopened = JobStore::open(&dir).expect("reopen");
        assert_eq!(
            reopened.get(id).expect("job survives").checkpoint,
            checkpoint
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_manifest_never_wedges_a_live_handle() {
        let dir = temp_store_dir("unwedge");
        let mut store = JobStore::open(&dir).expect("open");
        let first = store.create(b"spec-a", 0).expect("create");

        // Model a torn manifest write that lied about success: the live
        // index no longer authenticates, but the handle's view is intact.
        let manifest = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest).expect("read manifest");
        std::fs::write(&manifest, &bytes[..bytes.len() / 2]).expect("tear");

        // Corruption is not a concurrent writer: the next commit must
        // repair the index instead of reporting a manifest conflict.
        let second = store
            .create(b"spec-b", 0)
            .expect("commit repairs the torn index");

        let reopened = JobStore::open(&dir).expect("reopen");
        assert_eq!(reopened.get(first).expect("first survives").spec, b"spec-a");
        assert_eq!(
            reopened.get(second).expect("second survives").spec,
            b"spec-b"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn stale_generation_is_fenced() {
        let dir = temp_store_dir("stale");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"s", 0).expect("create");
        store.update(id, 1, 1, b"a").expect("first update");
        let err = store.update(id, 1, 1, b"b").expect_err("stale fenced");
        assert!(matches!(err, StoreError::StaleGeneration { .. }), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn second_handle_commit_is_a_manifest_conflict() {
        let dir = temp_store_dir("conflict");
        let mut a = JobStore::open(&dir).expect("open a");
        let mut b = JobStore::open(&dir).expect("open b");
        a.create(b"s", 0).expect("a creates");
        let err = b.create(b"t", 0).expect_err("b fenced");
        assert!(matches!(err, StoreError::ManifestConflict { .. }), "{err}");
        b.refresh().expect("refresh");
        b.create(b"t", 0).expect("b succeeds after refresh");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_manifest_is_rebuilt_from_segments() {
        let dir = temp_store_dir("rebuild");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec", 0).expect("create");
        store.update(id, 1, 3, b"ck").expect("update");
        std::fs::remove_file(dir.join(MANIFEST_NAME)).expect("drop index");

        let reopened = JobStore::open(&dir).expect("reopen");
        let job = reopened.get(id).expect("recovered from segments");
        assert_eq!((job.generation, job.state), (2, 3));
        assert_eq!(job.checkpoint, b"ck");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn compaction_keeps_only_latest_segments() {
        let dir = temp_store_dir("compact");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec", 0).expect("create");
        for gen in 1..5 {
            store.update(id, gen, 1, b"ck").expect("update");
        }
        let mut vfs = StdVfs;
        let segs_before = segment_paths(&mut vfs, &dir, id).expect("list").len();
        assert!(
            segs_before > 1,
            "superseded segments retained until compact"
        );
        store.compact().expect("compact");
        assert_eq!(segment_paths(&mut vfs, &dir, id).expect("list").len(), 1);
        let reopened = JobStore::open(&dir).expect("reopen");
        assert_eq!(reopened.get(id).expect("intact").generation, 5);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn remove_deletes_job_durably() {
        let dir = temp_store_dir("remove");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec", 0).expect("create");
        let keep = store.create(b"other", 0).expect("create 2");
        store.remove(id).expect("remove");
        assert!(store.get(id).is_none());
        let reopened = JobStore::open(&dir).expect("reopen");
        assert!(reopened.get(id).is_none());
        assert!(reopened.get(keep).is_some());
        // Ids are never reused after removal.
        let mut reopened = reopened;
        let fresh = reopened.create(b"new", 0).expect("create 3");
        assert!(fresh > keep);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn flags_round_trip_through_disk() {
        let dir = temp_store_dir("flags");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec", 1).expect("create");
        store.set_state_with_flags(id, 5, 2).expect("quarantine");
        let reopened = JobStore::open(&dir).expect("reopen");
        let job = reopened.get(id).expect("survives");
        assert_eq!((job.state, job.flags), (5, 2));
        // A plain state flip clears the reason.
        let mut reopened = reopened;
        reopened.set_state(id, 1).expect("resume");
        let job = reopened.get(id).expect("still there");
        assert_eq!((job.state, job.flags), (1, 0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn orphan_tmp_files_are_swept_on_open() {
        let dir = temp_store_dir("orphans");
        let mut store = JobStore::open(&dir).expect("open");
        store.create(b"spec", 0).expect("create");
        std::fs::write(dir.join("job-9-gen-3.seg.tmp"), b"torn residue").expect("plant");
        std::fs::write(dir.join("MANIFEST.tmp"), b"more residue").expect("plant");
        let _ = JobStore::open(&dir).expect("reopen sweeps");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "tmp orphans must be swept: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn lost_manifest_entries_are_reported_not_dropped_silently() {
        let dir = temp_store_dir("lost");
        let mut store = JobStore::open(&dir).expect("open");
        let gone = store.create(b"spec-a", 0).expect("create a");
        let kept = store.create(b"spec-b", 0).expect("create b");
        // Destroy every segment of job `gone` (total bitrot / lost disk
        // blocks) while leaving the manifest entry in place.
        let mut vfs = StdVfs;
        for path in segment_paths(&mut vfs, &dir, gone).expect("segments") {
            std::fs::remove_file(path).expect("destroy");
        }
        let reopened = JobStore::open(&dir).expect("reopen");
        assert!(reopened.get(gone).is_none());
        assert!(reopened.get(kept).is_some());
        assert_eq!(reopened.lost_jobs(), &[gone], "loss must be reported");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn persistent_write_failure_degrades_to_read_only_and_scrub_heals() {
        let dir = temp_store_dir("degraded");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec", 0).expect("create");
        drop(store);

        // Reopen behind a vfs whose every write fails.
        let broken = FaultyVfs::new(IoFaultPlan {
            io_error: 1.0,
            ..IoFaultPlan::none()
        });
        let mut store = JobStore::open_with(&dir, Box::new(broken)).expect("reads still work");
        assert!(store.get(id).is_some());
        let mut saw_read_only = false;
        for _ in 0..8u64 {
            let gen = store.get(id).expect("record").generation;
            match store.update(id, gen, 1, b"ck") {
                Err(StoreError::ReadOnly(_)) => {
                    saw_read_only = true;
                    break;
                }
                Err(_) => {}
                Ok(_) => panic!("writes cannot succeed on a broken disk"),
            }
        }
        assert!(saw_read_only, "persistent failure must trip read-only mode");
        assert!(store.degraded().is_some());
        let tally = store.take_io_tally();
        assert!(tally.io_errors >= DEGRADED_THRESHOLD as u64, "{tally:?}");

        // Scrub over a healthy vfs heals: reopen the same dir honestly.
        let mut store = JobStore::open(&dir).expect("reopen healthy");
        let report = store.scrub().expect("scrub");
        assert_eq!(report.segments_checked, 1);
        assert!(store.degraded().is_none());
        store.update(id, 1, 1, b"ck").expect("writes work again");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn scrub_repairs_single_byte_bitrot_deterministically() {
        let dir = temp_store_dir("bitrot");
        let mut store = JobStore::open(&dir).expect("open");
        let id = store.create(b"spec", 0).expect("create");
        store.update(id, 1, 1, b"checkpoint-v1").expect("update");
        store.compact().expect("compact");

        // Flip one byte in the (single) newest segment on disk.
        let mut vfs = StdVfs;
        let seg = segment_paths(&mut vfs, &dir, id).expect("list")[0].clone();
        let mut bytes = std::fs::read(&seg).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, &bytes).expect("corrupt");

        let report = store.scrub().expect("scrub");
        assert_eq!(report.repaired, vec![id], "bitrot must be repaired");
        assert!(report.lost.is_empty());
        assert_eq!(store.take_io_tally().scrub_repaired, 1);
        // The repair is real: a fresh process reads the full record back.
        let reopened = JobStore::open(&dir).expect("reopen");
        let job = reopened.get(id).expect("intact");
        assert_eq!(job.checkpoint, b"checkpoint-v1");
        assert_eq!(job.generation, 2);
        // A second scrub finds nothing to do: the repair converged.
        let mut store = reopened;
        let again = store.scrub().expect("scrub again");
        assert!(again.repaired.is_empty(), "{again:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn failed_manifest_commit_does_not_wedge_the_handle() {
        let dir = temp_store_dir("wedge");
        {
            let mut seed = JobStore::open(&dir).expect("open");
            seed.create(b"spec", 0).expect("create");
        }
        // A vfs that fails exactly the second file write of the next
        // mutation: the segment commits, the manifest write breaks.
        let flaky = FaultyVfs::new(IoFaultPlan {
            full_from: 1,
            full_len: 1,
            ..IoFaultPlan::none()
        });
        let mut store = JobStore::open_with(&dir, Box::new(flaky)).expect("open");
        let err = store
            .update(1, 1, 1, b"ck")
            .expect_err("manifest write fails");
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        // The failed commit must not advance the cached manifest
        // generation past the disk: after a refresh (which adopts the
        // committed segment) the fence reads clean and the handle keeps
        // working without a reopen.
        store.refresh().expect("refresh");
        let gen = store.get(1).expect("record").generation;
        assert_eq!(gen, 2, "committed segment is adopted on refresh");
        store
            .update(1, gen, 1, b"ck")
            .expect("recovers without reopen");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
