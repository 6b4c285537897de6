//! Hand-rolled JSON export of per-job communication statistics — the one
//! serialization path shared by the control plane's `StatsDump` reply and
//! the CLI's `--stats-json` flag. (The workspace's `serde` is an offline
//! marker stub, so the encoder is written out by hand; the format is
//! stable, append-only JSON.)

use fedrlnas_fed::{CommStats, CODEC_NAMES};

/// Renders `comm` (plus round progress) as a self-contained JSON object.
/// Keys are stable; new keys only ever get appended.
pub fn comm_stats_json(comm: &CommStats, rounds_completed: usize, total_rounds: usize) -> String {
    let mut out = String::with_capacity(768);
    out.push('{');
    push_u64(&mut out, "rounds_completed", rounds_completed as u64);
    push_u64(&mut out, "total_rounds", total_rounds as u64);
    push_u64(&mut out, "bytes_down", comm.bytes_down);
    push_u64(&mut out, "bytes_up", comm.bytes_up);
    push_u64(&mut out, "rounds", comm.rounds);
    push_u64(&mut out, "resumes", comm.resumes);

    out.push_str("\"faults\":{");
    push_u64(&mut out, "frames_dropped", comm.faults.frames_dropped);
    push_u64(&mut out, "frames_corrupt", comm.faults.frames_corrupt);
    push_u64(&mut out, "frames_duplicated", comm.faults.frames_duplicated);
    push_u64(&mut out, "frames_reordered", comm.faults.frames_reordered);
    push_u64(&mut out, "frames_delayed", comm.faults.frames_delayed);
    push_u64(&mut out, "retransmits", comm.faults.retransmits);
    push_u64(&mut out, "evictions", comm.faults.evictions);
    close_object(&mut out);

    out.push_str("\"rejects\":{");
    push_u64(&mut out, "rejected_shape", comm.rejects.rejected_shape);
    push_u64(
        &mut out,
        "rejected_nonfinite",
        comm.rejects.rejected_nonfinite,
    );
    push_u64(&mut out, "rejected_norm", comm.rejects.rejected_norm);
    push_u64(
        &mut out,
        "suspected_byzantine",
        comm.rejects.suspected_byzantine,
    );
    close_object(&mut out);

    out.push_str("\"compression\":{");
    push_u64(&mut out, "raw_bytes", comm.compression.raw_bytes);
    push_u64(&mut out, "encoded_bytes", comm.compression.encoded_bytes);
    out.push_str("\"frames\":{");
    for (name, frames) in CODEC_NAMES.iter().zip(comm.compression.frames) {
        push_u64(&mut out, name, frames);
    }
    close_object(&mut out);
    close_object(&mut out);

    out.push_str("\"timing_ns\":{");
    push_u64(&mut out, "ship", comm.timing.ship_ns);
    push_u64(&mut out, "collect", comm.timing.collect_ns);
    push_u64(&mut out, "decode", comm.timing.decode_ns);
    push_u64(&mut out, "validate", comm.timing.validate_ns);
    push_u64(&mut out, "aggregate", comm.timing.aggregate_ns);
    close_object(&mut out);

    out.push_str("\"io\":{");
    push_u64(&mut out, "torn_writes", comm.io.torn_writes);
    push_u64(&mut out, "dropped_fsyncs", comm.io.dropped_fsyncs);
    push_u64(&mut out, "io_errors", comm.io.io_errors);
    push_u64(&mut out, "disk_full", comm.io.disk_full);
    push_u64(&mut out, "retries", comm.io.retries);
    push_u64(&mut out, "quarantined", comm.io.quarantined);
    push_u64(&mut out, "scrub_repaired", comm.io.scrub_repaired);
    close_object(&mut out);

    out.push_str("\"churn\":{");
    push_u64(&mut out, "sampled", comm.churn.sampled);
    push_u64(&mut out, "unavailable", comm.churn.unavailable);
    push_u64(&mut out, "flaps", comm.churn.flaps);
    push_u64(&mut out, "evicted", comm.churn.evicted);
    push_u64(&mut out, "readmitted", comm.churn.readmitted);
    close_object(&mut out);

    // Drop the trailing separator left by the last nested object.
    debug_assert!(out.ends_with(','));
    out.pop();
    out.push('}');
    out
}

fn push_u64(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
    out.push(',');
}

/// Closes a `{` opened after a `push_u64` run: strips the trailing comma,
/// closes the object, and re-adds a separator for whatever follows.
fn close_object(out: &mut String) {
    debug_assert!(out.ends_with(','));
    out.pop();
    out.push_str("},");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_has_every_field_and_balanced_braces() {
        let mut comm = CommStats::new();
        comm.record_down(100);
        comm.record_up(40);
        let json = comm_stats_json(&comm, 1, 15);

        for key in [
            "rounds_completed",
            "total_rounds",
            "bytes_down",
            "bytes_up",
            "\"rounds\":",
            "resumes",
            "faults",
            "frames_dropped",
            "retransmits",
            "evictions",
            "rejects",
            "suspected_byzantine",
            "compression",
            "raw_bytes",
            "fp16",
            "topk",
            "timing_ns",
            "aggregate",
            "\"io\":",
            "torn_writes",
            "scrub_repaired",
            "\"churn\":",
            "sampled",
            "unavailable",
            "flaps",
            "\"evicted\":",
            "readmitted",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"bytes_down\":100"));
        assert!(json.contains("\"bytes_up\":40"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );
        assert!(!json.contains(",}"), "dangling comma: {json}");
    }

    #[test]
    fn a_population_search_reports_its_churn() {
        use fedrlnas_core::{FederatedModelSearch, PopulationConfig, SearchConfig};
        use fedrlnas_netsim::AvailabilitySpec;
        use rand::{rngs::StdRng, SeedableRng};

        let config = SearchConfig::tiny().with_population(PopulationConfig {
            size: 50,
            cohort: 4,
            availability: AvailabilitySpec::default(),
        });
        let mut rng = StdRng::seed_from_u64(3);
        let mut search = FederatedModelSearch::new(config, &mut rng);
        search.run(&mut rng);
        let json = comm_stats_json(
            search.server().comm(),
            search.rounds_completed(),
            search.total_rounds(),
        );
        assert!(json.contains("\"churn\":{\"sampled\":"), "{json}");
        assert!(
            !json.contains("\"churn\":{\"sampled\":0,"),
            "a population search samples cohorts: {json}"
        );
    }
}
