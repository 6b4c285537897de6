//! The in-process round trains its participants on `num_threads()` workers
//! pulling from a queue; how many there are, and in what order they finish,
//! must never reach the outcome. One test in a binary of its own, because
//! `set_num_threads` is process-wide.

use fedrlnas_core::{PopulationConfig, SearchConfig, SearchServer};
use fedrlnas_darts::Genotype;
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_fed::CommStats;
use fedrlnas_netsim::AvailabilitySpec;
use fedrlnas_tensor::{num_threads, set_num_threads};
use rand::{rngs::StdRng, SeedableRng};

/// Everything a search leaves behind, the curves as exact bit patterns.
type Outcome = (Genotype, Vec<[u32; 2]>, Vec<[u32; 2]>, CommStats);

fn search(config: &SearchConfig, workers: usize) -> Outcome {
    set_num_threads(workers);
    let mut rng = StdRng::seed_from_u64(17);
    let data = SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(12, 4), &mut rng);
    let mut server = SearchServer::new(config.clone(), &data, &mut rng);
    server.run_warmup(&data, 3, &mut rng);
    server.run_search(&data, 6, &mut rng);
    let bits = |curve: &fedrlnas_core::CurveRecorder| {
        curve
            .steps()
            .iter()
            .map(|s| [s.mean_accuracy.to_bits(), s.mean_loss.to_bits()])
            .collect()
    };
    (
        server.derive_genotype(),
        bits(server.warmup_curve()),
        bits(server.search_curve()),
        *server.comm(),
    )
}

#[test]
fn worker_count_never_reaches_the_outcome() {
    let saved = num_threads();
    let fixed = SearchConfig::tiny();
    // a flapping population: most rounds some slot sits out, and the queue
    // must skip exactly the slots the round marked inactive
    let churned = SearchConfig::tiny().with_population(PopulationConfig {
        size: 40,
        cohort: 4,
        availability: AvailabilitySpec::parse("flap=0.3,churn=0.1").unwrap(),
    });
    for (name, config) in [("fixed fleet", fixed), ("churn", churned)] {
        let k = config.num_participants;
        let one = search(&config, 1);
        assert_eq!(one.1.len() + one.2.len(), 9, "{name}: every round recorded");
        if config.population.is_some() {
            let sat_out = 9 * k as u64 - (one.3.bytes_up - one.3.bytes_down) / 4;
            assert!(
                one.3.churn.flaps > 0 && sat_out > 0,
                "{name}: the schedule must idle some slot"
            );
        }
        // two workers share the queue; K + 3 leaves workers with nothing
        for workers in [2, k + 3] {
            assert_eq!(
                search(&config, workers),
                one,
                "{name}: {workers} workers vs 1"
            );
        }
    }
    set_num_threads(saved);
}
