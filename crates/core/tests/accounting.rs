//! The in-process arm's estimated byte accounting, checked against an
//! independent record of what each round planned.

use std::sync::{Arc, Mutex};

use fedrlnas_core::{
    PopulationConfig, RoundBackend, RoundOutcome, RoundRequest, SearchConfig, SearchServer,
};
use fedrlnas_darts::ArchMask;
use fedrlnas_data::{DatasetSpec, SyntheticDataset};
use fedrlnas_netsim::{AssignmentStrategy, AvailabilitySpec};
use rand::{rngs::StdRng, SeedableRng};

/// A backend that trains nobody: it only writes down the architecture
/// assigned to every participating slot.
struct Spy(Arc<Mutex<Vec<ArchMask>>>);

impl RoundBackend for Spy {
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome {
        let mut seen = self.0.lock().expect("spy log");
        for (p, mask) in request.masks.iter().enumerate() {
            if request.is_active(p) {
                seen.push(mask.clone());
            }
        }
        RoundOutcome::default()
    }
}

fn server(assignment: AssignmentStrategy) -> (SearchServer, SyntheticDataset, StdRng) {
    let mut rng = StdRng::seed_from_u64(11);
    let data = SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(12, 4), &mut rng);
    let mut config = SearchConfig::tiny().with_population(PopulationConfig {
        size: 40,
        cohort: 4,
        availability: AvailabilitySpec::parse("flap=0.3,churn=0.1").unwrap(),
    });
    config.assignment = assignment;
    let server = SearchServer::new(config, &data, &mut rng);
    (server, data, rng)
}

#[test]
fn in_process_bytes_are_one_submodel_per_participating_slot() {
    // fp32 + hard sync + warm-up over a flapping population: no draw on the
    // main RNG depends on what the participants report (α is frozen, hard
    // sync draws no staleness), so a same-seed run over the spy plans the
    // very rounds the in-process run executes — masks, assignment, and who
    // sits out.
    const ROUNDS: usize = 8;
    for assignment in [
        AssignmentStrategy::Adaptive,
        AssignmentStrategy::AverageSize,
    ] {
        let planned = Arc::new(Mutex::new(Vec::new()));
        let (mut spied, data, mut rng) = server(assignment);
        spied.set_backend(Box::new(Spy(planned.clone())));
        spied.run_warmup(&data, ROUNDS, &mut rng);
        let planned = planned.lock().unwrap();
        let k = spied.config().num_participants;
        assert!(
            !planned.is_empty() && planned.len() < ROUNDS * k,
            "{assignment}: the schedule must idle some slot, not all ({})",
            planned.len()
        );
        let want_down: u64 = planned
            .iter()
            .map(|mask| spied.supernet_mut().submodel_bytes(mask) as u64)
            .sum();

        let (mut server, data, mut rng) = server(assignment);
        server.run_warmup(&data, ROUNDS, &mut rng);
        // every participating slot downloads its assigned sub-model, uploads
        // the same bytes plus a 4-byte reward, and contributes; a slot
        // sitting out moves nothing
        let comm = server.comm();
        assert_eq!(comm.bytes_down, want_down, "{assignment}");
        assert_eq!(
            comm.bytes_up - comm.bytes_down,
            4 * planned.len() as u64,
            "{assignment}"
        );
        let contributors: usize = server
            .warmup_curve()
            .steps()
            .iter()
            .map(|s| s.contributors)
            .sum();
        assert_eq!(contributors, planned.len(), "{assignment}");
    }
}
