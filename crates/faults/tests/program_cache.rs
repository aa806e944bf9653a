//! Compiled-program cache integration: campaign cells sharing a circuit
//! reuse one lowered program, and cached execution is byte-identical to
//! compiling fresh per cell (DESIGN.md cache determinism contract).

use std::sync::Arc;

use qra_algorithms::states;
use qra_core::StateSpec;
use qra_faults::{
    default_executor, run_campaign, run_campaign_with_executor, CampaignConfig, CampaignDesign,
};
use qra_sim::ProgramCache;

#[test]
fn cells_sharing_a_circuit_hit_the_cache() {
    let program = states::ghz(3);
    let spec = StateSpec::pure(states::ghz_vector(3)).unwrap();
    let qubits = [0, 1, 2];
    let mutants = qra_faults::FaultInjector::new(5).enumerate_single(&program);
    // Duplicate a mutant: its cells lower circuits already cached by the
    // original's cells, which is exactly the "mutant leaves the design
    // circuit unchanged" shape the cache exists for.
    let mut doubled = mutants.clone();
    doubled.push(mutants[0].clone());

    let cache = Arc::new(ProgramCache::new());
    let config = CampaignConfig {
        shots: 256,
        seed: 9,
        designs: vec![CampaignDesign::Swap, CampaignDesign::Ndd],
        cache: Some(Arc::clone(&cache)),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&program, &qubits, &spec, &doubled, &config);

    assert_eq!(report.failed(), 0);
    // The duplicated mutant contributes one asserted circuit per design,
    // each already lowered for the original mutant.
    assert!(
        cache.hits() >= config.designs.len() as u64,
        "expected >= {} cache hits, got {} (misses {})",
        config.designs.len(),
        cache.hits(),
        cache.misses()
    );
    assert!(cache.entries() > 0);
}

#[test]
fn repeat_campaign_is_all_hits_and_byte_identical() {
    let program = states::ghz(3);
    let spec = StateSpec::pure(states::ghz_vector(3)).unwrap();
    let qubits = [0, 1, 2];
    let mutants = qra_faults::FaultInjector::new(5).enumerate_single(&program);

    let cache = Arc::new(ProgramCache::new());
    let config = CampaignConfig {
        shots: 512,
        seed: 21,
        designs: vec![CampaignDesign::Swap, CampaignDesign::Ndd],
        jobs: 2,
        cache: Some(Arc::clone(&cache)),
        ..CampaignConfig::default()
    };

    // A cache-less reference: strip the cache before the executor sees
    // the config, so every cell compiles fresh.
    let uncached = run_campaign_with_executor(
        &program,
        &qubits,
        &spec,
        &mutants,
        &config,
        &|circuit, cfg, seed| {
            let fresh = CampaignConfig {
                cache: None,
                ..cfg.clone()
            };
            default_executor(circuit, &fresh, seed)
        },
    );

    let first = run_campaign(&program, &qubits, &spec, &mutants, &config);
    let misses_after_first = cache.misses();
    let second = run_campaign(&program, &qubits, &spec, &mutants, &config);

    // Same matrix again: every lowering is already cached.
    assert_eq!(cache.misses(), misses_after_first);
    assert!(cache.hits() > 0);

    // Cached vs fresh compilation must be byte-identical, cache hits or
    // not — the serve daemon's determinism contract rides on this.
    assert_eq!(uncached.to_json(), first.to_json());
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(first.render_text(), second.render_text());
}

#[test]
fn evicting_cache_is_byte_identical() {
    let program = states::ghz(3);
    let spec = StateSpec::pure(states::ghz_vector(3)).unwrap();
    let qubits = [0, 1, 2];
    let mutants = qra_faults::FaultInjector::new(5).enumerate_single(&program);
    let config = CampaignConfig {
        shots: 256,
        seed: 13,
        designs: vec![CampaignDesign::Ndd],
        noise: qra_sim::DevicePreset::melbourne_like(),
        ..CampaignConfig::default()
    };
    let roomy_cache = Arc::new(ProgramCache::new());
    let roomy = CampaignConfig {
        cache: Some(Arc::clone(&roomy_cache)),
        ..config.clone()
    };
    let roomy = run_campaign(&program, &qubits, &spec, &mutants, &roomy);
    assert_eq!(roomy_cache.evictions(), 0);

    // A quarter of the campaign's working set: cells keep evicting, and
    // the repeat run recompiles what was evicted.
    let cap = roomy_cache.bytes() / 4;
    let cache = Arc::new(ProgramCache::with_capacity(cap));
    let pressed = CampaignConfig {
        cache: Some(Arc::clone(&cache)),
        ..config.clone()
    };
    let first = run_campaign(&program, &qubits, &spec, &mutants, &pressed);
    let second = run_campaign(&program, &qubits, &spec, &mutants, &pressed);
    assert!(cache.evictions() > 0, "the cap never bound");
    assert!(cache.bytes() <= cap);
    assert_eq!(roomy.to_json(), first.to_json());
    assert_eq!(first.to_json(), second.to_json());
}
