"""The gate path held bit for bit to its per-branch form.

The gate builds its branch states as one validated stack, picks and samples
its branches on Python floats, and takes its unit-scaled Kraus operators
from a plan cached per reflection pair. The references here are the
per-branch form it replaced: numpy branch selection (np.flatnonzero,
Generator.choice on the weight arrays), numpy weight sums, the pair rescaled
with frexp and ldexp on every call, and one StateVector, with its own
validation, per branch and per cluster stage. The Bell readout after the
gate is shared, so the Bell comparison checks the gate's bits. The compiled
coefficients are evaluated, for evaluate_branches, the plan and the staged
checkpoints, as their first form evaluated them: one np.tensordot over the
power axis (oracles.tensordot_evaluate).
Every output is compared as raw bytes (amplitudes) or float.hex (floats).
"""

import dataclasses
import math

import numpy as np
import pytest

from hypercnot import (
    BellAnalysis,
    CavityParams,
    GateRun,
    HyperBellState,
    Register,
    ReflectionPair,
    StateVector,
    analyze_hyper_bell,
    evaluate_branches,
    hyper_cnot_checkpoints,
    hyper_cnot_state,
    prepare_cluster_stages,
    reorder_registers,
    truth_table,
    uniform_two_photon_state,
)
from hypercnot import analysis, protocols
from hypercnot.protocols import BRANCH_FLOOR, PHOTON_LABELS
from conftest import random_state
from oracles import PHOTON_REGS, tensordot_evaluate

# -- the per-branch form ------------------------------------------------------


def per_branch_unit_kraus(reflection):
    pair = reflection if reflection is not None else ReflectionPair.ideal()
    exponent = math.frexp(max(abs(pair.r_cold), abs(pair.r_hot)))[1]
    r_cold, r_hot = (
        complex(math.ldexp(r.real, -exponent), math.ldexp(r.imag, -exponent))
        for r in (pair.r_cold, pair.r_hot)
    )
    return evaluate_branches(r_cold, r_hot)[0], exponent


def per_branch_gate_outputs(joint, reflection):
    # the photon registers first, then the others in input order, always by
    # a transpose, the library's general path
    rest = tuple(label for label in joint.labels if label not in PHOTON_LABELS)
    ordered = reorder_registers(joint, PHOTON_LABELS + rest)
    kraus, exponent = per_branch_unit_kraus(reflection)
    outputs = kraus @ ordered.amplitudes.reshape(16, -1)
    weights = np.sum(np.abs(outputs) ** 2, axis=(2, 3))
    total = float(weights.sum())
    weights[weights <= BRANCH_FLOOR * total] = 0.0
    return ordered, outputs, weights, total, math.ldexp(total, 8 * exponent)


def per_branch_gate_runs(joint, reflection, branch_mode="enumerate", seed=None):
    mode = "ideal" if reflection is None else "physical"
    ordered, outputs, weights, total, survival = per_branch_gate_outputs(joint, reflection)
    if branch_mode == "sample":
        rng = np.random.default_rng(seed)
        marginal = weights.sum(axis=1)
        o1 = int(rng.choice(2, p=marginal / marginal.sum()))
        live = [2 * o1 + int(rng.choice(2, p=weights[o1] / weights[o1].sum()))]
    else:
        live = np.flatnonzero(weights).tolist()
        seed = None
    weights = weights.reshape(4)[live]
    finals = outputs.reshape(4, 16, -1)[live] / np.sqrt(weights)[:, None, None]
    finals = protocols._input_order(finals, ordered, joint)
    runs = []
    for branch, final, probability in zip(live, finals, (weights / total).tolist()):
        outcomes = divmod(branch, 2)
        ops = tuple(
            label for label, outcome in zip(protocols._FEED_FORWARD_TARGETS, outcomes) if outcome
        )
        state = StateVector(joint.registers, final)
        runs.append(GateRun(mode, outcomes, ops, state, survival, probability, seed))
    return runs


def per_branch_bell_pattern(state, reflection):
    # the readout after the gate is the library's own: its reference is
    # oracles.reduction_bell_pattern, in test_protocols
    ordered, outputs, weights, _, _ = per_branch_gate_outputs(state, reflection)
    branch = outputs.reshape(4, 16, -1)[np.flatnonzero(weights)[0]]
    return ordered.registers[:4], *protocols._bell_readout(branch)


def per_branch_cluster_stages(reflection):
    stages = [per_branch_gate_runs(protocols._cluster_input(), reflection)[0].final_state]
    for segment in protocols._CLUSTER_SEGMENTS:
        amplitudes = protocols._optics_map(segment) @ stages[-1].amplitudes
        stages.append(StateVector(stages[0].registers, amplitudes))
    return stages


def per_branch_simulated_performance(params, joint):
    ordered, outputs, _, total, survival = per_branch_gate_outputs(
        joint, ReflectionPair.from_params(params)
    )
    ideal = (per_branch_unit_kraus(None)[0][0, 0] @ ordered.amplitudes.reshape(16, -1)).reshape(-1)
    overlap2 = np.abs(outputs.reshape(4, -1) @ ideal.conj()) ** 2
    return float(overlap2.sum() / (np.sum(np.abs(ideal) ** 2) * total)), survival


# -- the cases ----------------------------------------------------------------

SPECTATOR = Register("c", ("0", "1"))
PAIRS = {
    "ideal": None,
    "physical": ReflectionPair.from_params(CavityParams(g=1.56, kappa_s=0.2)),
    "g0": ReflectionPair.from_params(CavityParams(g=0.0, kappa_s=0.3)),
    "tiny": ReflectionPair(0.0, 1.57900383923873e-40),
}
PARAMS = [CavityParams(g=1.56, kappa_s=0.2), CavityParams(g=0.0, kappa_s=0.3), CavityParams(g=2.4)]


def _inputs():
    rng = np.random.default_rng(20131017)
    a_pol, a_spatial, b_pol, b_spatial = PHOTON_REGS
    photon_major = random_state(PHOTON_REGS, rng)
    inputs = {
        "photon-major": photon_major,
        "permuted": reorder_registers(photon_major, ["b.spatial", "a.pol", "b.pol", "a.spatial"]),
        "spectator": random_state((b_spatial, SPECTATOR, a_pol, b_pol, a_spatial), rng),
    }
    # the photon registers first, in PHOTON_LABELS order, then the spectator
    inputs["photon-prefix"] = reorder_registers(inputs["spectator"], PHOTON_LABELS + ("c",))
    # more draws, so that a change in the last bit of some branch shows
    inputs.update((f"random-{i}", random_state(PHOTON_REGS, rng)) for i in range(6))
    return inputs


INPUTS = _inputs()


def _hex(x: float) -> str:
    return float.hex(x)


def assert_same_state(got: StateVector, want: StateVector) -> None:
    assert got.registers == want.registers
    assert got.amplitudes.dtype == want.amplitudes.dtype
    assert got.amplitudes.shape == want.amplitudes.shape
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    assert not got.amplitudes.flags.writeable


def assert_same_run(got: GateRun, want: GateRun) -> None:
    assert type(got) is GateRun
    assert (got.mode, got.spin_outcomes, got.feed_forward_ops, got.seed) == (
        want.mode, want.spin_outcomes, want.feed_forward_ops, want.seed
    )
    assert _hex(got.survival_probability) == _hex(want.survival_probability)
    assert _hex(got.branch_probability) == _hex(want.branch_probability)
    assert_same_state(got.final_state, want.final_state)


# -- the tests ----------------------------------------------------------------


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
@pytest.mark.parametrize("joint", INPUTS.values(), ids=INPUTS.keys())
def test_gate_runs_are_bitwise_the_per_branch_form(joint, pair):
    runs = hyper_cnot_state(joint, pair)
    want = per_branch_gate_runs(joint, pair)
    assert len(runs) == len(want)
    for run, ref in zip(runs, want):
        assert_same_run(run, ref)
    for seed in range(12):
        run = hyper_cnot_state(joint, pair, branch_mode="sample", seed=seed)
        assert_same_run(run, per_branch_gate_runs(joint, pair, "sample", seed)[0])


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_applications_are_bitwise_the_per_branch_form(pair, monkeypatch):
    stages = prepare_cluster_stages(pair)
    got_stages = [getattr(stages, f.name) for f in dataclasses.fields(stages)]
    for got, want in zip(got_stages, per_branch_cluster_stages(pair), strict=True):
        assert_same_state(got, want)
    rows = truth_table(pair)
    analyses = [analyze_hyper_bell(HyperBellState(p, s), pair) for p in range(4) for s in range(4)]
    # the same applications with the gate and the Bell analysis in their
    # per-branch form; the code around them is shared
    with monkeypatch.context() as patched:
        patched.setattr(protocols, "hyper_cnot_state", per_branch_gate_runs)
        patched.setattr(protocols, "_bell_pattern", per_branch_bell_pattern)
        want_rows = truth_table(pair)
        want_analyses = [
            analyze_hyper_bell(HyperBellState(p, s), pair) for p in range(4) for s in range(4)
        ]
    for row, want in zip(rows, want_rows, strict=True):
        assert (row.input_names, row.expected_names, row.observed_names, row.ok) == (
            want.input_names, want.expected_names, want.observed_names, want.ok
        )
        assert _hex(row.min_fidelity) == _hex(want.min_fidelity)
    for got, want in zip(analyses, want_analyses, strict=True):
        assert (got.pol_index, got.spatial_index, got.pattern, got.deterministic) == (
            want.pol_index, want.spatial_index, want.pattern, want.deterministic
        )
        assert _hex(got.min_outcome_probability) == _hex(want.min_outcome_probability)


@pytest.mark.parametrize("params", PARAMS, ids=["physical", "g0", "g2.4"])
def test_simulated_performance_is_bitwise_the_per_branch_form(params):
    for joint in (uniform_two_photon_state(), *INPUTS.values()):
        got = analysis.simulated_performance(params, joint)
        want = per_branch_simulated_performance(params, joint)
        assert [_hex(x) for x in got] == [_hex(x) for x in want]


def test_ideal_unit_pair_is_the_rescaled_ideal_pair():
    # the ideal plan is bitwise what frexp and ldexp make of the ideal pair,
    # the sign of each zero part included
    ideal = ReflectionPair.ideal()
    r_cold, r_hot, exponent = protocols._unit_pair(ideal.r_cold, ideal.r_hot)
    assert exponent == 1
    for got, want in ((r_cold, complex(-0.0, -0.5)), (r_hot, complex(0.5, 0.0))):
        assert (_hex(got.real), _hex(got.imag)) == (_hex(want.real), _hex(want.imag))
    plan = protocols._gate_plan(None)
    assert plan.exponent == 1
    assert plan.matrix.tobytes() == per_branch_unit_kraus(None)[0].tobytes()


@pytest.mark.parametrize("pair", [PAIRS["ideal"], PAIRS["physical"]], ids=["ideal", "physical"])
def test_bulk_runs_behave_like_constructed_runs(pair):
    # the gate writes each run's fields straight into a bare instance, which
    # is only the constructor's state while GateRun has no __post_init__
    assert not hasattr(GateRun, "__post_init__")
    joint = INPUTS["photon-major"]
    runs = hyper_cnot_state(joint, pair) + [hyper_cnot_state(joint, pair, "sample", seed=3)]
    for run in runs:
        built = GateRun(*(getattr(run, f.name) for f in dataclasses.fields(run)))
        assert run == built and built == run
        assert hash(run) == hash(built)
        assert repr(run) == repr(built)
        assert list(vars(run).items()) == list(vars(built).items())
        assert dataclasses.replace(run) == built
        assert dataclasses.replace(run, seed=7) == dataclasses.replace(built, seed=7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.branch_probability = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del run.seed


@pytest.mark.parametrize("pair", [PAIRS["ideal"], PAIRS["physical"]], ids=["ideal", "physical"])
def test_bell_analyses_behave_like_constructed_analyses(pair):
    # BellAnalysis stays a plain frozen record, so an analysis equals one
    # built from its own fields; the 16 Bell inputs and one input that is
    # not a Bell state
    assert not hasattr(BellAnalysis, "__post_init__")
    inputs = [HyperBellState(p, s) for p in range(4) for s in range(4)]
    for state in inputs + [INPUTS["photon-major"]]:
        result = analyze_hyper_bell(state, pair)
        built = BellAnalysis(
            pol_index=result.pol_index,
            spatial_index=result.spatial_index,
            pattern=result.pattern,
            deterministic=result.deterministic,
            min_outcome_probability=result.min_outcome_probability,
        )
        assert type(result) is BellAnalysis
        assert result == built and built == result
        assert hash(result) == hash(built)
        assert repr(result) == repr(built)
        assert list(vars(result).items()) == list(vars(built).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.pol_index = 0
        if isinstance(state, HyperBellState):
            indices = (result.pol_index, result.spatial_index)
            assert indices == (state.pol_index, state.spatial_index)


def test_kraus_evaluation_is_bitwise_the_tensordot_form():
    # evaluate_branches at batches of N pairs, the plan at its unit-scaled
    # pair and every staged checkpoint, each against the tensordot form at
    # the same N; the pairs include the ideal one and a signed-zero one
    rng = np.random.default_rng(20130301)
    magnitudes, phases = rng.uniform(0.0, 1.0, (2, 300)), rng.uniform(-np.pi, np.pi, (2, 300))
    r_cold, r_hot = magnitudes * np.exp(1j * phases)
    ideal = ReflectionPair.ideal()
    r_cold[:2] = ideal.r_cold, 0.5 - 0.5j
    r_hot[:2] = ideal.r_hot, complex(-0.0, -0.0)
    kraus = protocols._compile_stages()[1]
    for n in (0, 1, 3, 300):
        got = evaluate_branches(r_cold[:n], r_hot[:n])
        want = tensordot_evaluate(kraus, r_cold[:n], r_hot[:n])
        assert got.shape == want.shape == (n, 2, 2, 16, 16)
        assert got.tobytes() == want.tobytes()
    # the plan evaluates one pair, at the pair scaled to unit size
    for cold, hot in zip(r_cold[:50].tolist(), r_hot[:50].tolist()):
        unit_cold, unit_hot, _ = protocols._unit_pair(cold, hot)
        want = tensordot_evaluate(kraus, unit_cold, unit_hot)[0].reshape(64, 16)
        assert protocols._gate_plan(ReflectionPair(cold, hot)).matrix.tobytes() == want.tobytes()
    # a checkpoint of a photon-major input is its operator times the input
    joint = INPUTS["photon-major"]
    column = joint.amplitudes.reshape(16, -1)
    for pair in (None, PAIRS["physical"], ReflectionPair(complex(r_cold[2]), complex(r_hot[2]))):
        states = hyper_cnot_checkpoints(joint, pair)
        at = pair or ideal
        for name, coefficients in protocols._compile_stages()[0]:
            operator = tensordot_evaluate(coefficients, at.r_cold, at.r_hot)[0]
            want = (operator @ column).reshape(-1)
            assert states[name].amplitudes.tobytes() == want.tobytes(), name
