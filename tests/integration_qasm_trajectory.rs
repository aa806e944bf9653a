//! Integration tests spanning the QASM import/export pipeline and the
//! trajectory noise back-end: assertion circuits survive a QASM roundtrip,
//! and the trajectory simulator reproduces the exact noisy statistics of
//! the density back-end on assertion workloads.

use qra::algorithms::states;
use qra::circuit::qasm::to_qasm;
use qra::circuit::qasm_parser::from_qasm;
use qra::prelude::*;
use qra::sim::TrajectorySimulator;

/// Lowers opaque gates so the exporter accepts the circuit.
fn lower_for_export(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    for inst in circuit.instructions() {
        match &inst.operation {
            qra::circuit::Operation::Gate(g) => match g {
                Gate::Ccz => {
                    out.h(inst.qubits[2]);
                    out.ccx(inst.qubits[0], inst.qubits[1], inst.qubits[2]);
                    out.h(inst.qubits[2]);
                }
                Gate::Unitary(m, _) if m.rows() == 2 => {
                    let angles = qra::circuit::synthesis::zyz_decompose(m).unwrap();
                    out.rz(angles.delta, inst.qubits[0]);
                    out.ry(angles.gamma, inst.qubits[0]);
                    out.rz(angles.beta, inst.qubits[0]);
                }
                g => {
                    out.append(g.clone(), &inst.qubits).unwrap();
                }
            },
            qra::circuit::Operation::Measure => {
                out.measure(inst.qubits[0], inst.clbits[0]).unwrap();
            }
            qra::circuit::Operation::Reset => {
                out.reset(inst.qubits[0]).unwrap();
            }
            qra::circuit::Operation::Barrier => {
                out.barrier_on(inst.qubits.clone());
            }
        }
    }
    out
}

#[test]
fn assertion_circuit_roundtrips_through_qasm() {
    for design in [Design::Swap, Design::LogicalOr, Design::Ndd] {
        let mut program = states::ghz(3);
        let handle = insert_assertion(
            &mut program,
            &[0, 1, 2],
            &StateSpec::pure(states::ghz_vector(3)).unwrap(),
            design,
        )
        .unwrap();
        let lowered = lower_for_export(&program);
        let text = to_qasm(&lowered).unwrap();
        let parsed = from_qasm(&text).unwrap();
        assert_eq!(parsed.num_qubits(), program.num_qubits());
        // The reparsed circuit must behave identically: zero error rate.
        let counts = StatevectorSimulator::with_seed(1)
            .run(&parsed, 4096)
            .unwrap();
        assert_eq!(
            handle.error_rate(&counts),
            0.0,
            "{design} assertion broke across the QASM roundtrip"
        );
    }
}

#[test]
fn trajectory_matches_density_on_assertion_workload() {
    // The §IX-B style check through BOTH noisy back-ends must agree.
    let mut circuit = states::ghz(3);
    let handle = insert_assertion(
        &mut circuit,
        &[0, 1, 2],
        &StateSpec::pure(states::ghz_vector(3)).unwrap(),
        Design::Swap,
    )
    .unwrap();
    let noise = DevicePreset::melbourne_like();

    // Exact error rate from the density back-end.
    let exact: f64 = DensityMatrixSimulator::with_noise(noise.clone())
        .outcome_distribution(&circuit)
        .unwrap()
        .iter()
        .filter(|(k, _)| handle.clbits.iter().any(|&b| (k >> b) & 1 == 1))
        .map(|(_, p)| p)
        .sum();

    // Sampled error rate from trajectories.
    let counts = TrajectorySimulator::new(noise, 11)
        .run(&circuit, 20_000)
        .unwrap();
    let sampled = handle.error_rate(&counts);
    assert!(
        (exact - sampled).abs() < 0.02,
        "density {exact} vs trajectory {sampled}"
    );
}

#[test]
fn trajectory_detects_bug_above_noise_floor() {
    let spec = StateSpec::pure(states::ghz_vector(3)).unwrap();
    let noise = DevicePreset::melbourne_like();
    let rate = |program: Circuit, seed: u64| {
        let mut circuit = program;
        let handle = insert_assertion(&mut circuit, &[0, 1, 2], &spec, Design::Swap).unwrap();
        let counts = TrajectorySimulator::new(noise.clone(), seed)
            .run(&circuit, 8192)
            .unwrap();
        handle.error_rate(&counts)
    };
    let floor = rate(states::ghz(3), 3);
    let bug = rate(states::ghz_bug1(3), 4);
    assert!(bug > floor + 0.2, "floor {floor}, bug {bug}");
}

#[test]
fn wide_noisy_assertion_beyond_density_limit() {
    // 6-qubit GHZ + 6 SWAP ancillas = 12 qubits with noise: the density
    // back-end caps at 10 qubits; trajectories handle it, and the
    // assertion still detects a sign bug. (The SWAP design keeps the gate
    // count linear, which keeps debug-mode trajectories fast.)
    let n = 6;
    let spec = StateSpec::pure(states::ghz_vector(n)).unwrap();
    let noise = DevicePreset::LowNoise.noise_model();
    let rate = |program: Circuit, seed: u64| {
        let mut circuit = program;
        let qubits: Vec<usize> = (0..n).collect();
        let handle = insert_assertion(&mut circuit, &qubits, &spec, Design::Swap).unwrap();
        assert!(
            circuit.num_qubits() > 10,
            "must exceed the density back-end limit"
        );
        let counts = TrajectorySimulator::new(noise.clone(), seed)
            .run(&circuit, 512)
            .unwrap();
        handle.error_rate(&counts)
    };
    let floor = rate(states::ghz(n), 5);
    let bug = rate(states::ghz_bug1(n), 6);
    assert!(floor < 0.5, "floor too high: {floor}");
    assert!(bug > floor + 0.2, "floor {floor}, bug {bug}");
}
