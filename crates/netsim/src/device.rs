//! Analytic device compute model for simulated search time (Table V).
//!
//! The paper reports wall-clock search time on a GTX 1080 Ti server with
//! GTX 1080 Ti or Jetson TX2 participants, versus FedNAS (16 RTX 2080 Ti
//! participants) and EvoFedNAS. We have none of that hardware, so Table V
//! is regenerated from first principles: measured per-round workload
//! (MACs, from the actual networks built by `fedrlnas-darts`) divided by an
//! effective device throughput, plus fixed per-round overhead
//! (synchronization, (de)serialization, kernel launches).

/// Effective compute throughput of a device class.
///
/// `effective_macs_per_sec` is deliberately far below peak FLOPs — small
/// convolutions at research batch sizes reach a few percent of peak — and
/// is calibrated so the *ratios* between devices match the paper's
/// reported times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Display name.
    pub name: &'static str,
    /// Sustained multiply–accumulates per second on this workload class.
    pub effective_macs_per_sec: f64,
    /// Fixed per-round overhead in seconds (communication setup,
    /// synchronization, host-device transfers).
    pub round_overhead_secs: f64,
}

impl DeviceProfile {
    /// GTX 1080 Ti (the paper's server and fast-participant device).
    pub fn gtx_1080ti() -> Self {
        DeviceProfile {
            name: "GTX 1080 Ti",
            effective_macs_per_sec: 6.0e11,
            round_overhead_secs: 0.35,
        }
    }

    /// NVIDIA Jetson TX2 (the paper's IoT participant device, ~4x slower
    /// end-to-end than the 1080 Ti in Table V).
    pub fn jetson_tx2() -> Self {
        DeviceProfile {
            name: "Jetson TX2",
            effective_macs_per_sec: 1.4e11,
            round_overhead_secs: 0.6,
        }
    }

    /// RTX 2080 Ti (FedNAS's participant device).
    pub fn rtx_2080ti() -> Self {
        DeviceProfile {
            name: "RTX 2080 Ti",
            effective_macs_per_sec: 8.5e11,
            round_overhead_secs: 0.35,
        }
    }

    /// Seconds to process `macs` multiply–accumulates of forward work plus
    /// the standard 2x for the backward pass.
    pub fn train_step_secs(&self, macs: u64) -> f64 {
        (macs as f64 * 3.0) / self.effective_macs_per_sec
    }
}

/// A search campaign whose simulated duration Table V reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchWorkload {
    /// Forward MACs per sample of the (sub-)model a participant trains.
    pub macs_per_sample: u64,
    /// Samples per participant per round.
    pub batch_size: usize,
    /// Search rounds.
    pub rounds: usize,
    /// Bytes shipped to a participant each round (affects only the
    /// transmission term).
    pub payload_bytes: usize,
    /// Mean downlink bandwidth in Mbps.
    pub mean_bandwidth_mbps: f64,
}

impl SearchWorkload {
    /// Simulated wall-clock hours to run the search when every participant
    /// uses `device` and participants run in parallel (the round time is
    /// one participant's compute + transmission + overhead).
    pub fn hours_on(&self, device: &DeviceProfile) -> f64 {
        let compute = device.train_step_secs(self.macs_per_sample * self.batch_size as u64);
        let transmit = (self.payload_bytes as f64 * 8.0) / (self.mean_bandwidth_mbps * 1e6);
        let per_round = compute + transmit + device.round_overhead_secs;
        per_round * self.rounds as f64 / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx2_slower_than_1080ti() {
        let w = SearchWorkload {
            macs_per_sample: 5_000_000,
            batch_size: 256,
            rounds: 6000,
            payload_bytes: 270_000,
            mean_bandwidth_mbps: 20.0,
        };
        let fast = w.hours_on(&DeviceProfile::gtx_1080ti());
        let slow = w.hours_on(&DeviceProfile::jetson_tx2());
        assert!(slow > fast * 1.5, "tx2 {slow} vs 1080ti {fast}");
    }

    #[test]
    fn time_scales_with_rounds() {
        let base = SearchWorkload {
            macs_per_sample: 1_000_000,
            batch_size: 64,
            rounds: 100,
            payload_bytes: 100_000,
            mean_bandwidth_mbps: 10.0,
        };
        let double = SearchWorkload {
            rounds: 200,
            ..base
        };
        let d = DeviceProfile::gtx_1080ti();
        assert!((double.hours_on(&d) - 2.0 * base.hours_on(&d)).abs() < 1e-9);
    }

    #[test]
    fn bigger_payload_takes_longer() {
        let small = SearchWorkload {
            macs_per_sample: 1_000_000,
            batch_size: 64,
            rounds: 100,
            payload_bytes: 100_000,
            mean_bandwidth_mbps: 10.0,
        };
        let big = SearchWorkload {
            payload_bytes: 10_000_000,
            ..small
        };
        let d = DeviceProfile::jetson_tx2();
        assert!(big.hours_on(&d) > small.hours_on(&d));
    }

    #[test]
    fn step_time_includes_backward_factor() {
        let d = DeviceProfile::gtx_1080ti();
        let t = d.train_step_secs(d.effective_macs_per_sec as u64);
        assert!((t - 3.0).abs() < 1e-9);
    }
}
