//! Instance generators shared by the crate's unit tests.

use crate::{
    ChargeSpec, GainKind, GeometricInstanceBuilder, Instance, InstanceBuilder, InstanceSampler,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wrsn_energy::Energy;
use wrsn_geom::Field;

fn e(nj: f64) -> Energy {
    Energy::from_njoules(nj)
}

/// A random instance drawn from `seed`: 2..=`max_posts` posts with up
/// to two spare nodes each on average; a linear, sublinear or measured
/// gain curve (one with a plateau), at a random `η`; an optional
/// per-post cap; uniform or random report rates; zero or random
/// sensing. Half are geometric. The other half are explicit: each post
/// has a direct uplink to the base station and random uplinks to other
/// posts, so optimal trees are often stars, where the exact search's
/// floors are tight.
pub(crate) fn random_instance(seed: u64, max_posts: usize) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.random_range(2..=max_posts);
    let m = n as u32 + rng.random_range(0..=2 * n as u32);
    let gain = match rng.random_range(0..4) {
        0 => GainKind::Linear,
        1 => GainKind::Sublinear(rng.random_range(0.3..=1.0)),
        2 => GainKind::Measured(vec![1.0, 1.8, 1.8, 1.8, 2.6]),
        _ => GainKind::Measured(vec![1.0, 1.5, 1.9]),
    };
    let charge = ChargeSpec::new(rng.random_range(0.05..=1.0), gain);
    let cap = rng
        .random::<bool>()
        .then(|| rng.random_range(m.div_ceil(n as u32)..=m));
    let rates: Vec<f64> = if rng.random::<bool>() {
        (0..n).map(|_| rng.random_range(0.5..3.0)).collect()
    } else {
        vec![1.0; n]
    };
    let sensing: Vec<Energy> = if rng.random::<bool>() {
        (0..n).map(|_| e(rng.random_range(0.0..200.0))).collect()
    } else {
        vec![Energy::ZERO; n]
    };
    if rng.random::<bool>() {
        let layout =
            InstanceSampler::new(Field::square(rng.random_range(100.0..250.0)), n, m).sample(seed);
        let posts = layout.geometry().expect("sampled").posts.clone();
        let mut builder = GeometricInstanceBuilder::new(posts, m)
            .charge(charge)
            .report_rates(rates)
            .sensing_energies(sensing);
        if let Some(cap) = cap {
            builder = builder.max_nodes_per_post(cap);
        }
        builder.build().unwrap()
    } else {
        let mut builder = InstanceBuilder::new(n, m)
            .rx_energy(e(rng.random_range(0.0..60.0)))
            .charge(charge)
            .report_rates(rates)
            .sensing_energies(sensing);
        for u in 0..n {
            builder = builder.uplink(u, n, e(rng.random_range(1.0..100.0)));
            for v in (0..n).filter(|&v| v != u) {
                if rng.random_range(0.0..1.0) < 0.4 {
                    builder = builder.uplink(u, v, e(rng.random_range(0.0..150.0)));
                }
            }
        }
        if let Some(cap) = cap {
            builder = builder.max_nodes_per_post(cap);
        }
        builder.build().unwrap()
    }
}
