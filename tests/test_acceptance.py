"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from hypercnot import (
    CavityParams,
    ElementKind,
    ReflectionPair,
    HyperBellState,
    analyze_hyper_bell,
    apply_operator,
    element_matrix,
    fidelity_up_to_global_phase,
    hyper_cnot_checkpoints,
    hyper_cnot_state,
    photon_state,
    prepare_cluster_stages,
    reference_check,
    reflect_cold,
    tensor_product,
    truth_table,
    uniform_two_photon_state,
)
from hypercnot.cli import main as cli_main
from conftest import random_state, random_unitary, three_registers
from oracles import (
    cluster_after_flip_expected,
    cluster_after_hadamards_expected,
    cluster_expected,
    control_spatial_expected,
    efficiency_oracle,
    embed_matrix,
    gate_output_expected,
    hybrid_cz_expected,
    pre_measurement_expected,
    random_amplitude_pair,
    target_scattered_expected,
)

FID_TOL = 1e-10


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_truth_table_exactness():
    start = time.perf_counter()
    rows = truth_table()
    elapsed = time.perf_counter() - start
    exact = all(row.ok and row.min_fidelity >= 1 - FID_TOL for row in rows)
    _verdict(
        1,
        "ideal truth table is the double-CNOT permutation on every spin branch",
        exact and len(rows) == 16 and elapsed < 1.0,
        f"worst fidelity deficit {1 - min(r.min_fidelity for r in rows):.3e}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_general_state_outputs():
    rng = np.random.default_rng(1205)
    worst = 1.0
    for _ in range(100):
        alpha, gamma, beta, delta = (random_amplitude_pair(rng) for _ in range(4))
        joint = tensor_product(photon_state("a", alpha, gamma), photon_state("b", beta, delta))
        runs = hyper_cnot_state(joint)
        want = gate_output_expected(alpha, gamma, beta, delta)
        for run in runs:
            worst = min(worst, fidelity_up_to_global_phase(run.final_state, want))
    _verdict(
        2,
        "100 random inputs match the analytic corrected output",
        worst >= 1 - FID_TOL,
        f"worst fidelity deficit {1 - worst:.3e}",
    )


def test_criterion_3_staged_regression():
    rng = np.random.default_rng(1306)
    oracles = {
        "control_spatial": control_spatial_expected,
        "hybrid_cz": hybrid_cz_expected,
        "target_scattered": target_scattered_expected,
        "pre_measurement": pre_measurement_expected,
    }
    worst = 1.0
    for _ in range(10):
        alpha, gamma, beta, delta = (random_amplitude_pair(rng) for _ in range(4))
        stages = hyper_cnot_checkpoints(
            tensor_product(photon_state("a", alpha, gamma), photon_state("b", beta, delta))
        )
        for name, build in oracles.items():
            fid = fidelity_up_to_global_phase(stages[name], build(alpha, gamma, beta, delta))
            worst = min(worst, fid)
    _verdict(
        3,
        "staged outputs match the four closed-form checkpoints",
        worst >= 1 - FID_TOL,
        f"worst fidelity deficit {1 - worst:.3e}",
    )


def test_criterion_4_published_benchmark_numbers():
    start = time.perf_counter()
    rows = reference_check()
    elapsed = time.perf_counter() - start
    ok = all(row.within(0.005) for row in rows)
    worst = max(max(r.fidelity_delta, r.efficiency_delta) for r in rows)
    _verdict(
        4,
        "all four benchmark (F, eta) pairs reproduce within 0.005",
        ok and elapsed < 1.0,
        f"worst |delta| {worst:.5f}, {elapsed * 1000:.1f} ms",
    )


def test_criterion_5_operating_point_phase_anchor():
    r0 = reflect_cold(CavityParams(g=0.0, kappa_s=0.0, detuning=0.5))
    delta = abs(np.angle(r0) + np.pi / 2)
    _verdict(
        5,
        "bare reflection phase is -pi/2 at the operating point",
        delta < 1e-12,
        f"|arg(r0) + pi/2| = {delta:.2e}",
    )


def test_criterion_6_efficiency_cross_validation():
    worst = 0.0
    joint = uniform_two_photon_state()
    for g in np.linspace(0.3, 3.0, 10):
        for ks in np.linspace(0.0, 1.2, 10):
            params = CavityParams(g=float(g), kappa_s=float(ks))
            runs = hyper_cnot_state(joint, ReflectionPair.from_params(params))
            worst = max(
                worst, abs(runs[0].survival_probability - efficiency_oracle(params))
            )
    _verdict(
        6,
        "simulated survival equals the four-reflection counting formula on a 10x10 grid",
        worst < 1e-9,
        f"worst |delta| {worst:.3e}",
    )


def test_criterion_7_cluster_state():
    stages = prepare_cluster_stages()
    checks = [
        (stages.after_control_hadamards, cluster_after_hadamards_expected()),
        (stages.after_conditional_flip, cluster_after_flip_expected()),
        (stages.cluster, cluster_expected()),
    ]
    fids = [fidelity_up_to_global_phase(got, want) for got, want in checks]
    _verdict(
        7,
        "cluster preparation hits both checkpoints and the final target",
        min(fids) >= 1 - FID_TOL,
        f"stage fidelity deficits {[f'{1 - f:.1e}' for f in fids]}",
    )


def test_criterion_8_bell_analysis():
    patterns = []
    ok = True
    for pol in range(4):
        for spatial in range(4):
            result = analyze_hyper_bell(HyperBellState(pol, spatial))
            ok = ok and result.deterministic
            ok = ok and (result.pol_index, result.spatial_index) == (pol, spatial)
            patterns.append(result.pattern)
    distinct = len(set(patterns)) == 16
    _verdict(
        8,
        "16 hyperentangled Bell states decode to 16 distinct deterministic patterns",
        ok and distinct,
        f"{len(set(patterns))} distinct patterns",
    )


def test_criterion_9_property_suite(tmp_path):
    rng = np.random.default_rng(1407)
    problems = []

    # unitarity of every fixed-matrix element, 1e-14
    for kind in ElementKind:
        m = element_matrix(kind)
        if not np.allclose(m.conj().T @ m, np.eye(2), atol=1e-14):
            problems.append(f"{kind} not unitary")

    # ideal-mode norm preservation through the whole circuit, 1e-12
    stages = hyper_cnot_checkpoints(
        tensor_product(
            photon_state("a", random_amplitude_pair(rng), random_amplitude_pair(rng)),
            photon_state("b", random_amplitude_pair(rng), random_amplitude_pair(rng)),
        )
    )
    if any(abs(state.norm2 - 1.0) > 1e-12 for state in stages.values()):
        problems.append("ideal circuit does not preserve norm")

    # operator embedding vs explicit full matrices on random 3-register states
    regs = three_registers()
    for _ in range(5):
        state = random_state(regs, rng)
        targets = list(rng.permutation(3)[:2])
        mat = random_unitary(4, rng)
        fast = apply_operator(state, [regs[t].label for t in targets], mat)
        slow = embed_matrix(3, targets, mat) @ state.amplitudes
        if not np.allclose(fast.amplitudes, slow, atol=1e-12):
            problems.append("embedding mismatch")
            break

    # the gate squares to the identity
    joint = tensor_product(
        photon_state("a", random_amplitude_pair(rng), random_amplitude_pair(rng)),
        photon_state("b", random_amplitude_pair(rng), random_amplitude_pair(rng)),
    )
    once = hyper_cnot_state(joint, None)[0].final_state
    twice = hyper_cnot_state(once, None)[0].final_state
    if fidelity_up_to_global_phase(twice, joint) < 1 - FID_TOL:
        problems.append("gate squared is not the identity")

    # sweep determinism: byte-identical CSV on rerun
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli_main(["sweep", "--resolution", "5", "--out", str(csv_a)])
    cli_main(["sweep", "--resolution", "5", "--out", str(csv_b)])
    if csv_a.read_bytes() != csv_b.read_bytes():
        problems.append("sweep CSV not deterministic")

    _verdict(
        9,
        "property suite (unitarity, norms, embeddings, involution, determinism)",
        not problems,
        "; ".join(problems) if problems else "all properties hold",
    )
