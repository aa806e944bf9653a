//! Noisy asserted programs through the campaign routing: the paper's
//! SWAP, OR and NDD assertions on GHZ-2 and GHZ-3 add ancillas that no
//! gate touches until the assertion begins, so their compiled density
//! prefix evolves over a register that widens as the assertion runs.
//! Counts must equal the dense walker's (`run_interpreted`) exactly, at
//! one and two simulator threads, cached or not.

use std::sync::Arc;

use qra_algorithms::states;
use qra_core::{insert_assertion, Design, StateSpec};
use qra_faults::{default_executor, BackendKind, CampaignConfig};
use qra_sim::{DensityMatrixSimulator, DevicePreset, ProgramCache};

#[test]
fn asserted_ghz_counts_match_the_walker() {
    for n in [2, 3] {
        let spec = StateSpec::pure(states::ghz_vector(n)).unwrap();
        let qubits: Vec<usize> = (0..n).collect();
        for design in [Design::Swap, Design::LogicalOr, Design::Ndd] {
            let mut circuit = states::ghz(n);
            insert_assertion(&mut circuit, &qubits, &spec, design).unwrap();
            for preset in [DevicePreset::LowNoise, DevicePreset::MelbourneLike] {
                let noise = preset.noise_model();
                let seed = 17 + n as u64;
                let walker = DensityMatrixSimulator::with_noise(noise.clone())
                    .run_interpreted(&circuit, 2048, seed)
                    .unwrap();
                for (sim_threads, cache) in [(1, None), (2, Some(Arc::new(ProgramCache::new())))] {
                    let config = CampaignConfig {
                        shots: 2048,
                        noise: noise.clone(),
                        jobs: 1,
                        sim_threads,
                        cache,
                        ..CampaignConfig::default()
                    };
                    let (counts, backend) = default_executor(&circuit, &config, seed).unwrap();
                    let ctx = format!("GHZ-{n} {design:?} under {preset}, {sim_threads} threads");
                    assert_eq!(backend, BackendKind::DensityMatrix, "{ctx}");
                    assert_eq!(counts, walker, "{ctx}");
                }
            }
        }
    }
}
