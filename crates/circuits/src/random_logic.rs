//! Seeded random control logic — the paper's AND/OR-intensive "random
//! logic" class.

#![expect(
    clippy::expect_used,
    reason = "generator circuits on an unlimited manager; node creation cannot fail"
)]

use bds_network::{Network, SignalId};
use bds_prop::Rng;
use bds_sop::{Cover, Cube};

/// Parameters for [`random_logic`].
#[derive(Copy, Clone, Debug)]
pub struct RandomLogicParams {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Internal SOP nodes to create.
    pub nodes: usize,
    /// Maximum fanins per node.
    pub max_fanin: usize,
    /// Maximum cubes per node cover.
    pub max_cubes: usize,
}

impl Default for RandomLogicParams {
    fn default() -> Self {
        RandomLogicParams {
            inputs: 16,
            outputs: 8,
            nodes: 60,
            max_fanin: 4,
            max_cubes: 4,
        }
    }
}

/// Generates a seeded random multi-level AND/OR-style network. The same
/// seed always yields the same circuit, so experiments are reproducible.
pub fn random_logic(params: &RandomLogicParams, seed: u64) -> Network {
    let mut rng = Rng::new(seed);
    let mut net = Network::new(format!("rand{}_{seed}", params.inputs));
    let mut pool: Vec<SignalId> = (0..params.inputs)
        .map(|i| net.add_input(format!("i{i}")).expect("unique"))
        .collect();
    for k in 0..params.nodes {
        let fanin_count = rng.range_usize(2..params.max_fanin.min(pool.len()) + 1);
        // Bias toward recent signals to get depth.
        let mut fanins: Vec<SignalId> = Vec::new();
        while fanins.len() < fanin_count {
            let idx = if rng.bool() && pool.len() > 8 {
                rng.range_usize(pool.len() - 8..pool.len())
            } else {
                rng.range_usize(0..pool.len())
            };
            if !fanins.contains(&pool[idx]) {
                fanins.push(pool[idx]);
            }
        }
        let n_cubes = rng.range_usize(1..params.max_cubes + 1);
        let mut cubes = Vec::new();
        for _ in 0..n_cubes {
            let mut lits = Vec::new();
            for (pos, _) in fanins.iter().enumerate() {
                match rng.range_u32(0..3) {
                    0 => lits.push((pos as u32, true)),
                    1 => lits.push((pos as u32, false)),
                    _ => {}
                }
            }
            if lits.is_empty() {
                lits.push((0, rng.bool()));
            }
            cubes.push(Cube::new(lits).expect("positions are distinct"));
        }
        let sig = net
            .add_node(format!("n{k}"), fanins, Cover::from_cubes(cubes))
            .expect("unique");
        pool.push(sig);
    }
    // Outputs: the most recent distinct nodes.
    let take = params.outputs.min(params.nodes.max(1));
    let picks: Vec<SignalId> = pool.iter().rev().take(take).copied().collect();
    for (i, sig) in picks.into_iter().enumerate() {
        let buf = net
            .add_node(
                format!("o{i}"),
                vec![sig],
                Cover::from_cubes(vec![Cube::lit(0, true)]),
            )
            .expect("unique");
        net.mark_output(buf).expect("valid");
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let p = RandomLogicParams::default();
        let a = random_logic(&p, 7);
        let b = random_logic(&p, 7);
        let c = random_logic(&p, 8);
        assert_eq!(bds_network::blif::write(&a), bds_network::blif::write(&b));
        assert_ne!(bds_network::blif::write(&a), bds_network::blif::write(&c));
    }

    #[test]
    fn shape_matches_params() {
        let p = RandomLogicParams {
            inputs: 10,
            outputs: 4,
            nodes: 30,
            ..Default::default()
        };
        let net = random_logic(&p, 3);
        assert_eq!(net.inputs().len(), 10);
        assert_eq!(net.outputs().len(), 4);
        // Simulation smoke test.
        let out = net.eval(&[false; 10]).unwrap();
        assert_eq!(out.len(), 4);
    }
}
