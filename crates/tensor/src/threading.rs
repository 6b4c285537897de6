//! Global kernel thread-count knob.
//!
//! One process-wide number says how many threads the compute side of the
//! process may keep busy; every layer that spawns compute threads consults it
//! rather than carrying a setting of its own:
//!
//! * the search server's in-process round trains its participants on
//!   `num_threads().clamp(1, participating slots)` scoped workers that take
//!   participants off a shared queue (never one thread per participant);
//! * the RPC worker fleet's pool (`rpc::reactor::pool_size`) follows the same
//!   rule unless `--reactor-threads` names a size.
//!
//! Nothing in the workspace lowers the knob while participants run; outside
//! tests and benches the only caller of [`set_num_threads`] is the job
//! manager of `fedrlnas serve`, which applies its `--thread-budget`.
//!
//! The value comes from, in order: [`set_num_threads`]; the environment
//! variable `FEDRLNAS_NUM_THREADS`, read once at first use; the machine's
//! available parallelism. No result depends on it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// 0 = uninitialized (resolve from env/hardware on first read).
static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("FEDRLNAS_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of threads compute kernels may use (always ≥ 1).
pub fn num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = default_threads();
    // Racing initializers compute the same value; first store wins is fine.
    NUM_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Sets the kernel thread count for the whole process (clamped to ≥ 1).
/// Takes effect at the next GEMM call or round; threads already running are
/// not touched.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n.max(1), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_round_trips_and_clamps() {
        let before = num_threads();
        assert!(before >= 1);
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert_eq!(num_threads(), 1, "zero clamps to one");
        set_num_threads(before);
    }
}
