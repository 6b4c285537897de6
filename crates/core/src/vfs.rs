//! Virtual-filesystem seam with deterministic storage-fault injection.
//!
//! Every durable writer in the workspace (the single-run checkpoint
//! writer and the service job store) funnels its mutations through the
//! [`Vfs`] trait so that one production implementation ([`StdVfs`]) and
//! one adversarial implementation ([`FaultyVfs`]) cover them both.
//!
//! `FaultyVfs` extends the PR-3 fault-injection discipline — every fault
//! a pure function of a seed — from the network edge down to the I/O
//! layer. Each mutating operation draws from a schedule that is a pure
//! function of `(seed, path-hash, per-path op-index)`: the same seed over
//! the same operation sequence injects the same torn writes, dropped
//! fsyncs, transient `EIO`s and `ENOSPC`s, and produces the same
//! [`IoFaultTally`]. Reads are deliberately fault-free: recovery code
//! must observe the real disk, and keeping faults write-side keeps the
//! schedule independent of how often state is re-scanned.
//!
//! # Crash model
//!
//! `FaultyVfs` performs real I/O through an inner [`StdVfs`] (so
//! unrelated readers see a live directory) while maintaining a shadow
//! ledger of what is actually *durable*: file data becomes durable on a
//! successful `fsync`, and a directory entry (a create or rename)
//! becomes durable on a successful parent-directory `fsync`. A dropped
//! fsync returns `Ok` without promoting anything — the fsync lie.
//! [`FaultyVfs::simulate_crash`] rewrites the directory to the durable
//! view: renamed-but-unfsynced entries revert to what they replaced,
//! never-fsynced files vanish, and temp files whose rename was not made
//! durable resurrect under their old name (the orphan `.tmp` that
//! recovery scans must tolerate).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use fedrlnas_fed::IoFaultTally;

/// The filesystem operations a durable writer needs, as a seam.
///
/// Implementations take `&mut self` because fault-injecting filesystems
/// carry per-path operation counters and a fault tally.
pub trait Vfs: Send + std::fmt::Debug {
    /// Reads a whole file. Never fault-injected (see module docs).
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) `path` and writes `bytes`. Makes no
    /// durability promise until [`Vfs::fsync`].
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `path`'s data to stable storage.
    fn fsync(&mut self, path: &Path) -> io::Result<()>;
    /// Flushes `dir`'s entries to stable storage — the step that makes a
    /// create or rename survive power loss.
    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()>;
    /// Atomically replaces `to` with `from`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&mut self, path: &Path) -> io::Result<()>;
    /// Lists a directory, sorted by path for determinism. Never
    /// fault-injected.
    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Creates a directory and its parents.
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;
    /// Drains the fault tally accumulated since the last drain. The
    /// production implementation never injects anything, so the default
    /// is the empty tally.
    fn take_fault_tally(&mut self) -> IoFaultTally {
        IoFaultTally::default()
    }
}

/// Writes `bytes` durably at `path`: `.tmp` sibling first, fsync the
/// data, rename into place, then fsync the parent directory so the
/// rename itself survives power loss. Shared by the checkpoint writer
/// and the job store.
///
/// # Errors
///
/// Propagates filesystem errors from any step.
pub fn write_atomic(vfs: &mut dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    vfs.write_file(&tmp, bytes)?;
    vfs.fsync(&tmp)?;
    vfs.rename(&tmp, path)?;
    // a bare file name has the empty path as its parent: that is the
    // current directory, and opening "" fails with ENOENT
    match path.parent() {
        Some(dir) if dir.as_os_str().is_empty() => vfs.fsync_dir(Path::new(".")),
        Some(dir) => vfs.fsync_dir(dir),
        None => Ok(()),
    }
}

/// The production filesystem: a thin veneer over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl Vfs for StdVfs {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()> {
        // Directories can be opened and synced like files on unix; on
        // other targets entry durability is best-effort.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
}

/// What a seeded [`FaultyVfs`] injects, and how often. Probabilities are
/// per-operation in `[0, 1]`; the schedule they drive is a pure function
/// of `(seed, path-hash, op-index)`, so a plan plus an operation
/// sequence fully determines every fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoFaultPlan {
    /// Root seed for the fault schedule.
    pub seed: u64,
    /// Probability a write lands only a prefix of its payload yet
    /// reports success (caught later by CRC framing).
    pub torn_write: f64,
    /// Probability an fsync reports success without making anything
    /// durable.
    pub drop_fsync: f64,
    /// Probability a mutating operation fails with a transient `EIO`.
    pub io_error: f64,
    /// Probability a write fails with `ENOSPC`.
    pub disk_full: f64,
    /// First write (by global write-op index) of a deterministic
    /// disk-full window in which every write fails with `ENOSPC` —
    /// models a persistently full disk. Ignored while `full_len` is 0.
    pub full_from: u64,
    /// Length of the disk-full window in write ops (0 disables it).
    pub full_len: u64,
}

impl IoFaultPlan {
    /// The inactive plan: no faults, ever. A `FaultyVfs` carrying it is
    /// byte-identical to `StdVfs`.
    pub fn none() -> Self {
        IoFaultPlan {
            seed: 0,
            torn_write: 0.0,
            drop_fsync: 0.0,
            io_error: 0.0,
            disk_full: 0.0,
            full_from: 0,
            full_len: 0,
        }
    }

    /// A light preset: occasional torn writes, fsync lies and transient
    /// errors, no sustained disk-full window — most jobs ride it out.
    pub fn light(seed: u64) -> Self {
        IoFaultPlan {
            seed,
            torn_write: 0.02,
            drop_fsync: 0.05,
            io_error: 0.03,
            disk_full: 0.0,
            full_from: 0,
            full_len: 0,
        }
    }

    /// Returns `true` when any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.torn_write > 0.0
            || self.drop_fsync > 0.0
            || self.io_error > 0.0
            || self.disk_full > 0.0
            || self.full_len > 0
    }

    /// Parses a spec like `"torn=0.05,fsync=0.1,eio=0.02,enospc=0.01,full=100x20"`
    /// (any subset of keys; unlisted knobs stay 0). The seed travels
    /// separately — it is the `--io-fault-seed` flag.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending token.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = IoFaultPlan {
            seed,
            ..IoFaultPlan::none()
        };
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("fault spec token `{token}` is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault spec `{key}` value `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault spec `{key}` value {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "torn" => plan.torn_write = prob(value)?,
                "fsync" => plan.drop_fsync = prob(value)?,
                "eio" => plan.io_error = prob(value)?,
                "enospc" => plan.disk_full = prob(value)?,
                "full" => {
                    let (from, len) = value.split_once('x').ok_or_else(|| {
                        format!("fault spec `full` value `{value}` is not FROMxLEN")
                    })?;
                    plan.full_from = from
                        .parse()
                        .map_err(|_| format!("fault spec `full` FROM `{from}` is not a count"))?;
                    plan.full_len = len
                        .parse()
                        .map_err(|_| format!("fault spec `full` LEN `{len}` is not a count"))?;
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for IoFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn={},fsync={},eio={},enospc={}",
            self.torn_write, self.drop_fsync, self.io_error, self.disk_full
        )?;
        if self.full_len > 0 {
            write!(f, ",full={}x{}", self.full_from, self.full_len)?;
        }
        Ok(())
    }
}

/// SplitMix64 finalizer — the same bijective mixer the transport fault
/// injector uses to derive independent deterministic streams.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the textual path — stable across runs and platforms with
/// the same path layout, unlike `DefaultHasher`.
fn path_hash(path: &Path) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Uniform draw in `[0, 1)` from 53 high bits of a mixed word.
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Durability ledger entry for one live path (see module docs).
#[derive(Debug, Clone, Default)]
struct ShadowFile {
    /// Current on-disk content (what readers see now).
    content: Vec<u8>,
    /// Data known durable for this inode: content as of the last
    /// successful fsync. `None` until the first one.
    synced: Option<Vec<u8>>,
    /// The directory entry for this path survives a crash.
    entry_durable: bool,
    /// Durable content of whatever this entry replaced — what a crash
    /// reveals while the current entry is not yet durable.
    prior: Option<Vec<u8>>,
}

impl ShadowFile {
    /// What a crash right now would leave at this path.
    fn crash_view(&self) -> Option<Vec<u8>> {
        if self.entry_durable {
            self.synced.clone().or_else(|| self.prior.clone())
        } else {
            self.prior.clone()
        }
    }
}

/// The fault selected for one mutating operation.
enum Fault {
    None,
    /// Write only this many payload bytes, then report success.
    Torn(usize),
    /// Fail with a transient `EIO`.
    Eio,
    /// Fail with `ENOSPC`.
    Enospc,
    /// Report fsync success without promoting durability.
    DropFsync,
}

/// A seeded fault-injecting filesystem over a real directory. See the
/// module docs for the schedule and crash model. Constructed with an
/// inactive plan it is operation-for-operation identical to [`StdVfs`].
#[derive(Debug)]
pub struct FaultyVfs {
    inner: StdVfs,
    plan: IoFaultPlan,
    /// Per-path-hash operation counters: the op-index axis of the
    /// schedule.
    ops: BTreeMap<u64, u64>,
    /// Global write-op counter driving the deterministic `ENOSPC`
    /// window.
    write_seq: u64,
    tally: IoFaultTally,
    shadow: BTreeMap<PathBuf, ShadowFile>,
    /// Old names whose rename/remove has not been made durable: a crash
    /// resurrects them with this content.
    ghosts: BTreeMap<PathBuf, Vec<u8>>,
}

impl FaultyVfs {
    /// Creates a fault-injecting filesystem following `plan`.
    pub fn new(plan: IoFaultPlan) -> Self {
        FaultyVfs {
            inner: StdVfs,
            plan,
            ops: BTreeMap::new(),
            write_seq: 0,
            tally: IoFaultTally::default(),
            shadow: BTreeMap::new(),
            ghosts: BTreeMap::new(),
        }
    }

    /// The plan this filesystem follows.
    pub fn plan(&self) -> &IoFaultPlan {
        &self.plan
    }

    /// Cumulative injected-fault tally (not drained).
    pub fn tally(&self) -> &IoFaultTally {
        &self.tally
    }

    /// Rewrites the directory to the durable view — the state a machine
    /// would boot into after losing power right now — and resets the
    /// ledger (everything that survived is durable for the next epoch).
    /// Fault counters and op counters are preserved.
    pub fn simulate_crash(&mut self) -> io::Result<()> {
        for (path, file) in std::mem::take(&mut self.shadow) {
            match file.crash_view() {
                Some(bytes) => std::fs::write(&path, bytes)?,
                None => match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
        }
        for (path, bytes) in std::mem::take(&mut self.ghosts) {
            std::fs::write(&path, bytes)?;
        }
        Ok(())
    }

    /// Draws the next schedule word for `path`: advances that path's
    /// op-index and mixes it with the seed and path hash.
    fn draw(&mut self, path: &Path) -> u64 {
        let h = path_hash(path);
        let idx = self.ops.entry(h).or_insert(0);
        let i = *idx;
        *idx += 1;
        mix(self.plan.seed ^ h ^ mix(i))
    }

    /// Selects the fault (if any) for a write of `len` bytes to `path`.
    fn write_fault(&mut self, path: &Path, len: usize) -> Fault {
        let seq = self.write_seq;
        self.write_seq += 1;
        let word = self.draw(path);
        if self.plan.full_len > 0
            && seq >= self.plan.full_from
            && seq - self.plan.full_from < self.plan.full_len
        {
            return Fault::Enospc;
        }
        let u = u01(word);
        let mut bar = self.plan.disk_full;
        if u < bar {
            return Fault::Enospc;
        }
        bar += self.plan.io_error;
        if u < bar {
            return Fault::Eio;
        }
        bar += self.plan.torn_write;
        if u < bar && len > 0 {
            // Tear somewhere strictly inside the payload.
            return Fault::Torn((mix(word ^ 0xA5A5) as usize) % len);
        }
        Fault::None
    }

    /// Selects the fault (if any) for an fsync of `path`.
    fn fsync_fault(&mut self, path: &Path) -> Fault {
        let u = u01(self.draw(path));
        let mut bar = self.plan.io_error;
        if u < bar {
            return Fault::Eio;
        }
        bar += self.plan.drop_fsync;
        if u < bar {
            return Fault::DropFsync;
        }
        Fault::None
    }

    /// Selects the fault (if any) for a rename/remove touching `path`.
    fn meta_fault(&mut self, path: &Path) -> Fault {
        if u01(self.draw(path)) < self.plan.io_error {
            Fault::Eio
        } else {
            Fault::None
        }
    }

    fn eio(&mut self, what: &str, path: &Path) -> io::Error {
        self.tally.io_errors = self.tally.io_errors.saturating_add(1);
        io::Error::other(format!("injected transient EIO: {what} {}", path.display()))
    }

    fn enospc(&mut self, path: &Path) -> io::Error {
        self.tally.disk_full = self.tally.disk_full.saturating_add(1);
        io::Error::new(
            io::ErrorKind::StorageFull,
            format!("injected ENOSPC: write {}", path.display()),
        )
    }

    /// Ensures a ledger entry exists for `path`, adopting any real file
    /// already on disk as fully durable (it predates this fault epoch).
    fn touch(&mut self, path: &Path) -> &mut ShadowFile {
        if !self.shadow.contains_key(path) {
            let entry = match std::fs::read(path) {
                Ok(bytes) => ShadowFile {
                    content: bytes.clone(),
                    synced: Some(bytes.clone()),
                    entry_durable: true,
                    prior: Some(bytes),
                },
                Err(_) => ShadowFile::default(),
            };
            self.shadow.insert(path.to_path_buf(), entry);
        }
        self.shadow.get_mut(path).expect("just inserted")
    }
}

impl Vfs for FaultyVfs {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.write_fault(path, bytes.len()) {
            Fault::Eio => return Err(self.eio("write", path)),
            Fault::Enospc => return Err(self.enospc(path)),
            Fault::Torn(cut) => {
                self.tally.torn_writes = self.tally.torn_writes.saturating_add(1);
                self.inner.write_file(path, &bytes[..cut])?;
                let file = self.touch(path);
                file.content = bytes[..cut].to_vec();
                file.synced = None;
                self.ghosts.remove(path);
                return Ok(());
            }
            Fault::None | Fault::DropFsync => {}
        }
        self.inner.write_file(path, bytes)?;
        let file = self.touch(path);
        file.content = bytes.to_vec();
        file.synced = None;
        self.ghosts.remove(path);
        Ok(())
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        match self.fsync_fault(path) {
            Fault::Eio => return Err(self.eio("fsync", path)),
            Fault::DropFsync => {
                self.tally.dropped_fsyncs = self.tally.dropped_fsyncs.saturating_add(1);
                return Ok(()); // the lie: success without durability
            }
            _ => {}
        }
        self.inner.fsync(path)?;
        let file = self.touch(path);
        file.synced = Some(file.content.clone());
        Ok(())
    }

    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()> {
        match self.fsync_fault(dir) {
            Fault::Eio => return Err(self.eio("fsync-dir", dir)),
            Fault::DropFsync => {
                self.tally.dropped_fsyncs = self.tally.dropped_fsyncs.saturating_add(1);
                return Ok(());
            }
            _ => {}
        }
        self.inner.fsync_dir(dir)?;
        // Every entry in this directory is now durable, and pending
        // rename/remove ghosts in it are laid to rest.
        let in_dir = |p: &Path| p.parent() == Some(dir);
        for (path, file) in self.shadow.iter_mut() {
            if in_dir(path) {
                file.entry_durable = true;
            }
        }
        self.ghosts.retain(|path, _| !in_dir(path));
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        if let Fault::Eio = self.meta_fault(to) {
            return Err(self.eio("rename", to));
        }
        // Materialize both ledger entries before mutating either.
        self.touch(from);
        self.touch(to);
        self.inner.rename(from, to)?;
        let source = self.shadow.remove(from).expect("touched above");
        let dest = self.shadow.get_mut(to).expect("touched above");
        // A crash before the parent-dir fsync reveals whatever `to` held
        // durably; the renamed data's durability travels with its inode.
        let prior = dest.crash_view();
        *dest = ShadowFile {
            content: source.content,
            synced: source.synced.clone(),
            entry_durable: false,
            prior,
        };
        // The old name's entry may also survive the crash (the rename
        // that unlinked it was never made durable): resurrect the
        // source's durable data under it.
        if let Some(bytes) = source.synced {
            self.ghosts.insert(from.to_path_buf(), bytes);
        } else {
            self.ghosts.remove(from);
        }
        Ok(())
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        if let Fault::Eio = self.meta_fault(path) {
            return Err(self.eio("remove", path));
        }
        self.touch(path);
        self.inner.remove(path)?;
        let file = self.shadow.remove(path).expect("touched above");
        // An un-fsynced removal can come back after a crash.
        if let Some(bytes) = file.crash_view() {
            self.ghosts.insert(path.to_path_buf(), bytes);
        }
        Ok(())
    }

    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn take_fault_tally(&mut self) -> IoFaultTally {
        std::mem::take(&mut self.tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fedrlnas-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Runs a fixed op script and returns (per-op results, final tally).
    fn run_script(dir: &Path, plan: IoFaultPlan) -> (Vec<bool>, IoFaultTally) {
        let mut vfs = FaultyVfs::new(plan);
        let mut results = Vec::new();
        for i in 0..40u64 {
            let path = dir.join(format!("file-{}.bin", i % 5));
            let payload = vec![i as u8; 64 + i as usize];
            let ok = write_atomic(&mut vfs, &path, &payload).is_ok();
            results.push(ok);
        }
        (results, *vfs.tally())
    }

    #[test]
    fn bare_file_name_syncs_the_current_directory() {
        // `Path::new("x.bin").parent()` is `Some("")`, which cannot be
        // opened; the write used to land and then report ENOENT
        let name = format!("fedrlnas-vfs-bare-{}.bin", std::process::id());
        let path = Path::new(&name);
        let result = write_atomic(&mut StdVfs, path, b"durable");
        let read_back = std::fs::read(path);
        let _ = std::fs::remove_file(path);
        result.expect("a bare file name is written next to the process");
        assert_eq!(read_back.expect("file in place"), b"durable");
    }

    #[test]
    fn same_seed_same_schedule_same_tally() {
        let dir = scratch("sched");
        let plan = IoFaultPlan {
            torn_write: 0.2,
            drop_fsync: 0.2,
            io_error: 0.15,
            disk_full: 0.05,
            ..IoFaultPlan::light(42)
        };
        // The schedule hashes full paths, so all three runs use the same
        // dir, recreated between runs.
        let recreate = |d: &Path| {
            let _ = std::fs::remove_dir_all(d);
            std::fs::create_dir_all(d).expect("recreate");
        };
        let (r1, t1) = run_script(&dir, plan);
        recreate(&dir);
        let (r2, t2) = run_script(&dir, plan);
        assert_eq!(r1, r2, "same seed must fault the same ops");
        assert_eq!(t1, t2, "same seed must produce the same tally");
        assert!(t1.any(), "plan this hot must fire at least once");
        // A different seed gives a different schedule (overwhelmingly).
        recreate(&dir);
        let (r3, t3) = run_script(&dir, IoFaultPlan { seed: 43, ..plan });
        assert!(r1 != r3 || t1 != t3, "seed must matter");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inactive_plan_is_transparent() {
        let dir = scratch("transparent");
        let mut faulty = FaultyVfs::new(IoFaultPlan::none());
        let mut std_vfs = StdVfs;
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        write_atomic(&mut faulty, &a, b"payload-a").expect("no faults");
        write_atomic(&mut std_vfs, &b, b"payload-b").expect("std");
        assert_eq!(std::fs::read(&a).expect("a"), b"payload-a");
        assert_eq!(std::fs::read(&b).expect("b"), b"payload-b");
        assert!(!faulty.tally().any());
        // A crash after fully-fsynced writes loses nothing.
        faulty.simulate_crash().expect("crash");
        assert_eq!(std::fs::read(&a).expect("a survives"), b"payload-a");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_lands_a_prefix_and_reports_success() {
        let dir = scratch("torn");
        // only the torn-write fault: the scratch path embeds the pid, so
        // any probabilistic fault (the schedule hashes the path) would
        // make this test flaky across processes
        let mut vfs = FaultyVfs::new(IoFaultPlan {
            seed: 7,
            torn_write: 1.0,
            ..IoFaultPlan::none()
        });
        let path = dir.join("x.bin");
        let payload = vec![0xEEu8; 256];
        vfs.write_file(&path, &payload).expect("the lie");
        let on_disk = std::fs::read(&path).expect("file exists");
        assert!(on_disk.len() < payload.len(), "must be torn");
        assert!(payload.starts_with(&on_disk), "must be a prefix");
        assert_eq!(vfs.tally().torn_writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_fsync_loses_the_rename_on_crash() {
        let dir = scratch("fsync-lie");
        // First commit an honest generation, then a second one whose
        // directory fsync is dropped: the crash must reveal the first.
        let path = dir.join("DATA");
        let mut honest = FaultyVfs::new(IoFaultPlan::none());
        write_atomic(&mut honest, &path, b"generation-1").expect("honest");

        let mut liar = FaultyVfs::new(IoFaultPlan {
            drop_fsync: 1.0,
            ..IoFaultPlan::none()
        });
        write_atomic(&mut liar, &path, b"generation-2").expect("lies return Ok");
        assert_eq!(std::fs::read(&path).expect("live view"), b"generation-2");
        assert!(liar.tally().dropped_fsyncs >= 2, "file + dir fsync dropped");
        liar.simulate_crash().expect("crash");
        assert_eq!(
            std::fs::read(&path).expect("durable view"),
            b"generation-1",
            "un-fsynced rename must not survive the crash"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_fsync_loses_the_rename_and_orphans_the_tmp() {
        // The exact bug the dir-fsync fix closes: data fsynced, renamed
        // into place, but the parent directory never synced — a crash
        // reverts the destination and resurrects the temp sibling.
        let dir = scratch("no-dirsync");
        let path = dir.join("DATA");
        let tmp = dir.join("DATA.tmp");
        let mut honest = FaultyVfs::new(IoFaultPlan::none());
        write_atomic(&mut honest, &path, b"generation-1").expect("honest");

        let mut vfs = FaultyVfs::new(IoFaultPlan::none());
        vfs.write_file(&tmp, b"generation-2").expect("write");
        vfs.fsync(&tmp).expect("data durable");
        vfs.rename(&tmp, &path).expect("rename");
        // ... no fsync_dir: the buggy pre-fix write_atomic stopped here.
        assert_eq!(std::fs::read(&path).expect("live view"), b"generation-2");
        vfs.simulate_crash().expect("crash");
        assert_eq!(
            std::fs::read(&path).expect("durable view"),
            b"generation-1",
            "rename without dir fsync must not survive the crash"
        );
        assert!(tmp.exists(), "orphan .tmp resurrects for recovery to sweep");
        assert_eq!(std::fs::read(&tmp).expect("ghost"), b"generation-2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn honest_fsyncs_survive_the_crash() {
        let dir = scratch("durable");
        let path = dir.join("DATA");
        let mut vfs = FaultyVfs::new(IoFaultPlan::none());
        write_atomic(&mut vfs, &path, b"v1").expect("v1");
        write_atomic(&mut vfs, &path, b"v2").expect("v2");
        vfs.simulate_crash().expect("crash");
        assert_eq!(std::fs::read(&path).expect("survives"), b"v2");
        assert!(
            !dir.join("DATA.tmp").exists(),
            "durable rename leaves no orphan"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_window_fails_writes_deterministically() {
        let dir = scratch("enospc");
        let mut vfs = FaultyVfs::new(IoFaultPlan {
            full_from: 2,
            full_len: 3,
            ..IoFaultPlan::none()
        });
        let mut outcomes = Vec::new();
        for i in 0..8 {
            let r = vfs.write_file(&dir.join(format!("f{i}")), b"x");
            outcomes.push(r.is_ok());
            if let Err(e) = r {
                assert_eq!(e.kind(), io::ErrorKind::StorageFull, "{e}");
            }
        }
        assert_eq!(
            outcomes,
            [true, true, false, false, false, true, true, true]
        );
        assert_eq!(vfs.tally().disk_full, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_eio_writes_nothing() {
        let dir = scratch("eio");
        let mut vfs = FaultyVfs::new(IoFaultPlan {
            io_error: 1.0,
            ..IoFaultPlan::none()
        });
        let path = dir.join("never.bin");
        assert!(vfs.write_file(&path, b"data").is_err());
        assert!(!path.exists(), "a failed write must not create the file");
        assert_eq!(vfs.tally().io_errors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_spec_round_trips() {
        let plan = IoFaultPlan::parse("torn=0.05, fsync=0.1,eio=0.02,enospc=0.01,full=100x20", 9)
            .expect("parse");
        assert_eq!(plan.seed, 9);
        assert!((plan.torn_write - 0.05).abs() < 1e-12);
        assert!((plan.drop_fsync - 0.1).abs() < 1e-12);
        assert!((plan.io_error - 0.02).abs() < 1e-12);
        assert!((plan.disk_full - 0.01).abs() < 1e-12);
        assert_eq!((plan.full_from, plan.full_len), (100, 20));
        let reparsed = IoFaultPlan::parse(&plan.to_string(), 9).expect("round trip");
        assert_eq!(reparsed, plan);
        assert!(IoFaultPlan::parse("torn=2.0", 0).is_err());
        assert!(IoFaultPlan::parse("bogus=1", 0).is_err());
        assert!(IoFaultPlan::parse("torn", 0).is_err());
        assert!(IoFaultPlan::parse("full=5", 0).is_err());
        assert!(!IoFaultPlan::parse("", 0)
            .expect("empty is inactive")
            .is_active());
        assert!(plan.is_active());
    }

    #[test]
    fn take_fault_tally_drains() {
        let dir = scratch("drain");
        let mut vfs = FaultyVfs::new(IoFaultPlan {
            io_error: 1.0,
            ..IoFaultPlan::none()
        });
        let _ = vfs.write_file(&dir.join("f"), b"x");
        let first = vfs.take_fault_tally();
        assert_eq!(first.io_errors, 1);
        assert!(!vfs.take_fault_tally().any(), "second drain is empty");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
