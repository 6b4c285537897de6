//! Evolutionary federated NAS (the EvoFedNAS rows of Tables II–V):
//! a population of genotypes whose fitness is evaluated on participants'
//! shards, evolved with tournament selection, crossover and mutation.
//! Faithful to the method's character: simple search spaces, long
//! evaluation time, whole candidate models shipped to participants.

use fedrlnas_core::{CurveRecorder, StepMetric};
use fedrlnas_darts::{DerivedModel, Genotype, GenotypeEdge, OpKind, SupernetConfig};
use fedrlnas_data::{dirichlet_partition, iid_partition, SyntheticDataset};
use fedrlnas_fed::{evaluate_model, CommStats};
use fedrlnas_nn::{CrossEntropy, Mode, Sgd, SgdConfig};
use rand::Rng;

/// Search-space variant: the paper evaluates a "big" and a "small"
/// EvoFedNAS configuration with visibly different model sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvoSpace {
    /// Full operation set, wider channels — more accurate, much larger.
    Big,
    /// Restricted operation set (no 5x5/dilated convs), narrower channels.
    Small,
}

impl EvoSpace {
    /// Operations this space may place on an edge.
    pub fn allowed_ops(self) -> &'static [OpKind] {
        match self {
            EvoSpace::Big => &[
                OpKind::SkipConnect,
                OpKind::MaxPool3x3,
                OpKind::AvgPool3x3,
                OpKind::SepConv3x3,
                OpKind::SepConv5x5,
                OpKind::DilConv3x3,
                OpKind::DilConv5x5,
            ],
            EvoSpace::Small => &[
                OpKind::SkipConnect,
                OpKind::MaxPool3x3,
                OpKind::AvgPool3x3,
                OpKind::SepConv3x3,
            ],
        }
    }

    /// Channel multiplier relative to the base configuration.
    pub fn channel_multiplier(self) -> usize {
        match self {
            EvoSpace::Big => 2,
            EvoSpace::Small => 1,
        }
    }
}

/// Evolutionary federated NAS driver.
pub struct EvoFedNas {
    space: EvoSpace,
    net: SupernetConfig,
    population: Vec<Genotype>,
    comm: CommStats,
    curve: CurveRecorder,
    shards: Vec<Vec<usize>>,
    fitness_steps: usize,
    batch: usize,
}

impl EvoFedNas {
    /// Builds the search with a random initial population of
    /// `population_size` genotypes over `k` participants' shards.
    ///
    /// # Panics
    ///
    /// Panics if `population_size == 0` or `k == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        space: EvoSpace,
        mut net: SupernetConfig,
        dataset: &SyntheticDataset,
        k: usize,
        population_size: usize,
        fitness_steps: usize,
        batch: usize,
        dirichlet_beta: Option<f64>,
        rng: &mut R,
    ) -> Self {
        assert!(population_size > 0, "population must be non-empty");
        net.init_channels *= space.channel_multiplier();
        let population = (0..population_size)
            .map(|_| random_genotype(space, net.nodes, rng))
            .collect();
        let shards = match dirichlet_beta {
            Some(beta) => dirichlet_partition(dataset.labels(), k, beta, rng),
            None => iid_partition(dataset.len(), k, rng),
        };
        EvoFedNas {
            space,
            net,
            population,
            comm: CommStats::new(),
            curve: CurveRecorder::new(),
            shards,
            fitness_steps,
            batch,
        }
    }

    /// Communication tally (whole candidate models travel every
    /// evaluation).
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }

    /// Best-fitness-per-generation curve.
    pub fn curve(&self) -> &CurveRecorder {
        &self.curve
    }

    /// Fitness: train the candidate briefly on one participant's shard and
    /// return its training accuracy (EvoFedNAS distributes each candidate
    /// to a user for local evaluation).
    fn fitness<R: Rng + ?Sized>(
        &mut self,
        genotype: &Genotype,
        shard: usize,
        dataset: &SyntheticDataset,
        rng: &mut R,
    ) -> f32 {
        let mut model = DerivedModel::new(genotype.clone(), self.net.clone(), rng);
        let bytes = model.param_bytes();
        self.comm.record_down(bytes);
        let indices = &self.shards[shard % self.shards.len()];
        let mut sgd = Sgd::new(SgdConfig::default());
        let mut ce = CrossEntropy::new();
        let mut last_acc = 0.0f32;
        for _ in 0..self.fitness_steps.max(1) {
            let batch_idx: Vec<usize> = (0..self.batch.min(indices.len()))
                .map(|_| indices[rng.gen_range(0..indices.len())])
                .collect();
            let (x, y) = dataset.batch(&batch_idx);
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train);
            let out = ce.forward(&logits, &y);
            let dl = ce.backward();
            model.backward(&dl);
            sgd.step_visitor(|f| model.visit_params(f));
            last_acc = out.accuracy();
        }
        self.comm.record_up(bytes);
        last_acc
    }

    /// One generation: evaluate all candidates on (round-robin) shards,
    /// keep the top half, refill with mutated/crossed-over children.
    pub fn generation<R: Rng + ?Sized>(&mut self, dataset: &SyntheticDataset, rng: &mut R) -> f32 {
        let pop = self.population.clone();
        let mut scored: Vec<(f32, Genotype)> = pop
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                let f = self.fitness(&g, i, dataset, rng);
                (f, g)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite fitness"));
        let best = scored[0].0;
        let keep = (scored.len() / 2).max(1);
        let survivors: Vec<Genotype> = scored[..keep].iter().map(|(_, g)| g.clone()).collect();
        let mut next = survivors.clone();
        while next.len() < self.population.len() {
            let a = &survivors[rng.gen_range(0..survivors.len())];
            let b = &survivors[rng.gen_range(0..survivors.len())];
            let mut child = crossover(a, b, rng);
            mutate(&mut child, self.space, rng);
            next.push(child);
        }
        self.population = next;
        self.comm.end_round();
        let step = self.curve.len();
        self.curve.record(StepMetric {
            step,
            mean_accuracy: best,
            mean_loss: 0.0,
            contributors: self.shards.len(),
        });
        best
    }

    /// Runs `generations` and returns the champion (re-scored on a held-out
    /// evaluation pass).
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        dataset: &SyntheticDataset,
        generations: usize,
        rng: &mut R,
    ) -> Genotype {
        for _ in 0..generations {
            self.generation(dataset, rng);
        }
        // champion = best by a final test-split evaluation of the top few
        let mut best = (f32::NEG_INFINITY, self.population[0].clone());
        for g in self.population.iter().take(3) {
            let mut model = DerivedModel::new(g.clone(), self.net.clone(), rng);
            let acc = evaluate_model(&mut model, dataset, 64);
            if acc > best.0 {
                best = (acc, g.clone());
            }
        }
        best.1
    }
}

/// Samples a random genotype from the space (two random incoming edges per
/// node, random allowed op each).
fn random_genotype<R: Rng + ?Sized>(space: EvoSpace, nodes: usize, rng: &mut R) -> Genotype {
    let ops = space.allowed_ops();
    let cell = |rng: &mut R| -> Vec<[GenotypeEdge; 2]> {
        (0..nodes)
            .map(|i| {
                let pick = |rng: &mut R| GenotypeEdge {
                    src: rng.gen_range(0..2 + i),
                    op: ops[rng.gen_range(0..ops.len())],
                };
                [pick(rng), pick(rng)]
            })
            .collect()
    };
    Genotype {
        normal: cell(rng),
        reduction: cell(rng),
    }
}

/// Uniform crossover: each node's edge pair comes from either parent.
fn crossover<R: Rng + ?Sized>(a: &Genotype, b: &Genotype, rng: &mut R) -> Genotype {
    let mix = |xa: &[[GenotypeEdge; 2]], xb: &[[GenotypeEdge; 2]], rng: &mut R| {
        xa.iter()
            .zip(xb)
            .map(|(ea, eb)| if rng.gen_bool(0.5) { *ea } else { *eb })
            .collect()
    };
    Genotype {
        normal: mix(&a.normal, &b.normal, rng),
        reduction: mix(&a.reduction, &b.reduction, rng),
    }
}

/// Point mutation: re-randomize one edge of one node.
fn mutate<R: Rng + ?Sized>(g: &mut Genotype, space: EvoSpace, rng: &mut R) {
    let ops = space.allowed_ops();
    let nodes = g.nodes();
    let node = rng.gen_range(0..nodes);
    let slot = rng.gen_range(0..2);
    let edge = GenotypeEdge {
        src: rng.gen_range(0..2 + node),
        op: ops[rng.gen_range(0..ops.len())],
    };
    if rng.gen_bool(0.5) {
        g.normal[node][slot] = edge;
    } else {
        g.reduction[node][slot] = edge;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrlnas_data::DatasetSpec;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn spaces_differ_in_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(6, 2), &mut rng);
        let big = EvoFedNas::new(
            EvoSpace::Big,
            SupernetConfig::tiny(),
            &data,
            2,
            2,
            1,
            4,
            None,
            &mut rng,
        );
        let small = EvoFedNas::new(
            EvoSpace::Small,
            SupernetConfig::tiny(),
            &data,
            2,
            2,
            1,
            4,
            None,
            &mut rng,
        );
        // Big space yields strictly wider models on average; compare via a
        // conv-heavy genotype realized in both channel plans.
        assert!(big.net.init_channels > small.net.init_channels);
    }

    #[test]
    fn evolution_runs_and_improves_or_holds() {
        let mut rng = StdRng::seed_from_u64(1);
        let data =
            SyntheticDataset::generate(&DatasetSpec::svhn_like().with_sizes(10, 3), &mut rng);
        let mut evo = EvoFedNas::new(
            EvoSpace::Small,
            SupernetConfig::tiny(),
            &data,
            2,
            4,
            2,
            6,
            Some(0.5),
            &mut rng,
        );
        let champion = evo.run(&data, 2, &mut rng);
        assert_eq!(champion.nodes(), 2);
        assert_eq!(evo.curve().len(), 2);
        assert!(evo.comm().total_bytes() > 0);
        // restricted space: no 5x5 or dilated ops anywhere
        for pair in champion.normal.iter().chain(champion.reduction.iter()) {
            for e in pair {
                assert!(EvoSpace::Small.allowed_ops().contains(&e.op), "{:?}", e.op);
            }
        }
    }

    #[test]
    fn mutation_changes_exactly_one_slot() {
        let mut rng = StdRng::seed_from_u64(2);
        let g0 = random_genotype(EvoSpace::Big, 3, &mut rng);
        let mut g = g0.clone();
        mutate(&mut g, EvoSpace::Big, &mut rng);
        let diffs: usize = g0
            .normal
            .iter()
            .chain(g0.reduction.iter())
            .flatten()
            .zip(g.normal.iter().chain(g.reduction.iter()).flatten())
            .filter(|(a, b)| a != b)
            .count();
        assert!(diffs <= 1);
    }
}
