import gzip
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import hypercnot
from hypercnot import analysis, cli, protocols, sweep
from hypercnot.cli import load_config, main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- truth-table ----------------------------------------------------------


def test_truth_table_ideal(capsys):
    code, out, _ = run_cli(capsys, "truth-table")
    assert code == 0
    assert "16/16 PASS" in out
    assert out.count("PASS") == 17  # 16 rows plus the summary


def test_truth_table_physical_strong_coupling(capsys):
    code, out, _ = run_cli(capsys, "truth-table", "--mode", "physical", "--g", "2.4")
    assert code == 0
    assert "16/16 PASS" in out


def test_truth_table_physical_weak_coupling_reports_fidelity(capsys):
    code, out, _ = run_cli(capsys, "truth-table", "--mode", "physical", "--g", "0.5")
    assert code == 0
    fidelities = [
        float(line.split()[-2]) for line in out.splitlines()[1:17]
    ]
    assert all(f < 1.0 for f in fidelities)


def test_truth_table_physical_requires_g(capsys):
    with pytest.raises(SystemExit) as err:
        main(["truth-table", "--mode", "physical"])
    assert err.value.code == 2


# -- gate -----------------------------------------------------------------


def test_gate_basis_preset(capsys):
    code, out, _ = run_cli(capsys, "gate", "--input", "basis:L,a2,R,b1")
    assert code == 0
    assert "|L,a2,L,b2>" in out
    assert "survival=1.000000000" in out


@pytest.mark.parametrize(
    "preset, register", [("basis:X,a2,R,b1", "a.pol"), ("basis:L,a2,R,a1", "b.spatial")]
)
def test_gate_basis_preset_rejects_unknown_names(preset, register, capsys):
    with pytest.raises(SystemExit) as err:
        main(["gate", "--input", preset])
    assert err.value.code == 2
    assert f"register {register!r} has no basis state" in capsys.readouterr().err


def test_gate_final_state_prints_no_round_off(capsys):
    code, out, _ = run_cli(capsys, "gate", "--a-pol", "0.6,0.8001", "--b-spatial", "1,1j")
    assert code == 0
    ket = out.splitlines()[-1]
    assert ket.startswith("final state (ideal, last branch): (0.212115+0j)|R,a1,R,b1> + ")
    assert "(0+0.212115j)|R,a1,R,b2>" in ket and "e-" not in ket


def test_gate_amplitude_flags_renormalize_with_warning(capsys):
    code, out, err = run_cli(capsys, "gate", "--a-pol", "0.6,0.8001")
    assert code == 0
    assert "renormalized" in err


@pytest.mark.parametrize(
    "argv,cfg,flags",
    [
        (["--input", "bogus", "--a-pol", "1,0"], None, "--a-pol"),
        (
            ["--input", "basis:L,a2,R,b1", "--a-pol", "1,0", "--b-spatial", "0,1"],
            None,
            "--a-pol, --b-spatial",
        ),
        (["--b-spatial", "0,1"], "input = uniform\n", "--b-spatial"),
        (["--input", "uniform"], "a_spatial = 0.6,0.8001\n", "--a-spatial"),
    ],
    ids=["unknown-preset", "basis-preset", "input-in-config", "amplitude-in-config"],
)
def test_gate_input_and_amplitude_flags_are_a_usage_error(argv, cfg, flags, tmp_path, capsys):
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg)
        argv = ["--config", str(tmp_path / "run.cfg"), *argv]
    with pytest.raises(SystemExit) as err:
        main(["gate", *argv])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"hypercnot gate: error: --input cannot be combined with {flags}"
    )
    assert "warning" not in captured.err  # rejected before any amplitude is renormalized


def test_gate_sampling_is_deterministic(capsys):
    _, out_a, _ = run_cli(capsys, "gate", "--seed", "5")
    _, out_b, _ = run_cli(capsys, "gate", "--seed", "5")
    assert out_a == out_b


@pytest.mark.parametrize("mode", [[], ["--mode", "physical", "--g", "2.4"]], ids=["ideal", "g2.4"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gate_default_input_is_the_uniform_preset(mode, fmt, capsys):
    # the default input and --input uniform are one product state, built one way
    default = run_cli(capsys, "gate", "--format", fmt, *mode)
    uniform = run_cli(capsys, "gate", "--input", "uniform", "--format", fmt, *mode)
    assert default[0] == 0
    assert default == uniform


def test_gate_physical_reports_branch_fidelities(capsys):
    code, out, _ = run_cli(
        capsys, "gate", "--mode", "physical", "--g", "0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "physical"
    assert len(payload["branches"]) == 4
    assert 0 < payload["survival_probability"] < 1
    for branch in payload["branches"]:
        assert 0 <= branch["fidelity_vs_ideal"] <= 1


# -- cluster / bell-analyze --------------------------------------------------


def test_cluster_command(capsys):
    code, out, _ = run_cli(capsys, "cluster")
    assert code == 0
    assert "cluster state:" in out
    assert out.count("1.000000000") >= 4


def test_bell_analyze_all(capsys):
    code, out, _ = run_cli(capsys, "bell-analyze")
    assert code == 0
    assert "16/16 distinct patterns: PASS" in out


def test_bell_analyze_single(capsys):
    code, out, _ = run_cli(capsys, "bell-analyze", "--pol", "2", "--spatial", "1")
    assert code == 0
    assert "psi+,phi-" in out


# -- paper-check ----------------------------------------------------------------


def test_paper_check_passes_at_default_tolerance(capsys):
    code, out, _ = run_cli(capsys, "paper-check")
    assert code == 0
    assert out.count("PASS") == 4
    assert "all within tolerance" in out


def test_paper_check_fails_at_unrealistic_tolerance(capsys):
    code, out, _ = run_cli(capsys, "paper-check", "--tolerance", "0.0001")
    assert code == 1
    assert "FAIL" in out


def test_paper_check_simulate_flag(capsys):
    code, out, _ = run_cli(capsys, "paper-check", "--simulate")
    assert code == 0
    assert "circuit-level cross-check" in out
    assert "F_sim" in out


# -- sweep ------------------------------------------------------------------------


def test_sweep_row_count_and_header(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--resolution", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g_over_kappa,kappa_s_over_kappa,gamma_over_kappa,F,eta"
    assert len(lines) == 1 + 9


def test_sweep_single_point_matches_paper_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--g-min", "0.5", "--g-max", "0.5",
        "--kappa-s-min", "0", "--kappa-s-max", "0",
        "--resolution", "1",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[3]) - 0.9431595580655449) < 1e-9
    assert abs(float(row[4]) - 0.48860888984641626) < 1e-9


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--resolution", "4", "--out", str(out_a)]) == 0
    assert main(["sweep", "--resolution", "4", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert b"\r" not in out_a.read_bytes()  # LF endings


def test_sweep_invalid_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--g-min", "3", "--g-max", "1"])
    assert err.value.code == 2


def old_sweep_csv(result, simulate):
    """The CSV as the CLI rendered it row by row, five or seven f-string fields."""
    header = "g_over_kappa,kappa_s_over_kappa,gamma_over_kappa,F,eta"
    lines = [header + ",F_sim,eta_sim" if simulate else header]
    for point in result.grid:
        line = (
            f"{point.g_over_kappa:.10g},{point.kappa_s_over_kappa:.10g},"
            f"{point.gamma_over_kappa:.10g},{point.F_formula:.10g},{point.eta_formula:.10g}"
        )
        if simulate:
            line += f",{point.F_sim:.10g},{point.eta_sim:.10g}"
        lines.append(line)
    return "\n".join(lines) + "\n"


SWEEP_LATTICES = [
    # (g_range, kappa_s_range, resolution, gamma)
    ((0.0, 3.0), (0.0, 2.0), 1, 0.1),
    ((0.0, 3.0), (0.0, 2.0), 2, 0.1),
    ((1.5, 1.5), (0.0, 2.0), 3, 0.1),
    ((0.0, 3.0), (0.2, 0.2), 3, 0.1),
    ((1.5, 1.5), (0.2, 0.2), 3, 0.1),
    ((0.25, 4.75), (0.1, 1.7), 7, 0.3),
    ((0.3, 2.9), (0.05, 1.95), 4, 0.123456789012),
]


@pytest.mark.parametrize("simulate", [False, True], ids=["plain", "simulate"])
@pytest.mark.parametrize("g_range,ks_range,resolution,gamma", SWEEP_LATTICES)
def test_sweep_csv_is_the_grid_rendered_row_by_row(
    g_range, ks_range, resolution, gamma, simulate, capsys
):
    argv = [
        "sweep",
        "--g-min", repr(g_range[0]), "--g-max", repr(g_range[1]),
        "--kappa-s-min", repr(ks_range[0]), "--kappa-s-max", repr(ks_range[1]),
        "--resolution", str(resolution), "--gamma", repr(gamma),
    ]
    code, out, _ = run_cli(capsys, *argv, *(["--simulate"] if simulate else []))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        result = sweep(g_range, ks_range, resolution, gamma, include_simulation=simulate)
    assert code == 0
    assert out == old_sweep_csv(result, simulate)


@pytest.mark.parametrize(
    "golden,simulate", [("sweep.csv.gz", False), ("sweep_simulate.csv.gz", True)]
)
def test_library_grid_renders_to_the_default_golden_csv(golden, simulate):
    # the library rows, not only the CLI's columns, are tied to committed bytes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        result = sweep(include_simulation=simulate)
    assert len(result.grid) == 101 * 101
    want = gzip.decompress((GOLDEN_DIR / golden).read_bytes())
    assert old_sweep_csv(result, simulate).encode() == want


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("sweep_resolution5.csv", ["--resolution", "5"]),
        ("sweep_resolution5_simulate.csv", ["--resolution", "5", "--simulate"]),
    ],
)
def test_cli_sweep_builds_no_row_objects(golden, argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI sweep built a PerformancePoint")

    monkeypatch.setattr(analysis, "PerformancePoint", refuse)
    monkeypatch.setattr(analysis, "_rows", refuse)  # rows are built in bulk, not by calls
    code, out, _ = run_cli(capsys, "sweep", *argv)
    assert code == 0
    assert out == (GOLDEN_DIR / golden).read_text()


def test_simulated_sweep_never_runs_the_engine(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a simulated sweep ran the compiled gate engine")

    monkeypatch.setattr(protocols, "_plan_for_bits", refuse)
    monkeypatch.setattr(protocols, "_evaluate", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # side-leakage guidance
        result = sweep(include_simulation=True)
    assert len(result.grid) == 101 * 101
    assert all(point.eta_sim is not None for point in result.grid)
    code, out, _ = run_cli(capsys, "sweep", "--resolution", "5", "--simulate")
    assert code == 0
    assert out == (GOLDEN_DIR / "sweep_resolution5_simulate.csv").read_text()


# -- library warnings --------------------------------------------------------------

GUIDANCE = "kappa guidance for reaching the -pi/2 relative reflection phase\n"


def test_physical_gate_side_leakage_warning_is_one_plain_line(capsys):
    code, out, err = run_cli(capsys, "gate", "--mode", "physical", "--g", "1", "--kappa-s", "1.5")
    assert code == 0
    # captured from the command before its warnings were reformatted
    assert out == (GOLDEN_DIR / "gate_g1_ks1.5.txt").read_text()
    assert err == "warning: kappa_s = 1.5 kappa is at or above the 1.3 " + GUIDANCE


def test_simulated_sweep_side_leakage_warning_is_one_plain_line(tmp_path, capsys):
    out_file = tmp_path / "sim.csv"
    code, out, err = run_cli(capsys, "sweep", "--simulate", "--out", str(out_file))
    assert (code, out) == (0, "")
    assert err == "warning: 3636 of 10201 lattice points have kappa_s at or above the 1.3 " + GUIDANCE
    # the closed-form columns are the plain sweep's, byte for byte
    rows = out_file.read_text().splitlines()
    plain = gzip.decompress((GOLDEN_DIR / "sweep.csv.gz").read_bytes()).decode().splitlines()
    assert rows[0] == plain[0] + ",F_sim,eta_sim"
    assert [row.rsplit(",", 2)[0] for row in rows[1:]] == plain[1:]
    # a lattice with a golden simulated CSV, also above the guidance
    code, out, err = run_cli(capsys, "sweep", "--resolution", "5", "--simulate", "--out", str(out_file))
    assert (code, out) == (0, "")
    assert err == "warning: 10 of 25 lattice points have kappa_s at or above the 1.3 " + GUIDANCE
    assert out_file.read_bytes() == (GOLDEN_DIR / "sweep_resolution5_simulate.csv").read_bytes()


# -- config file -------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = physical\ng = 2.4\n# comment line\nkappa_s = 0.0\n")
    code, out, _ = run_cli(capsys, "truth-table", "--config", str(cfg))
    assert code == 0
    assert "16/16 PASS" in out
    fidelities = [float(line.split()[-2]) for line in out.splitlines()[1:17]]
    assert all(f < 1.0 for f in fidelities)  # physical mode took effect


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # editors on some platforms save UTF-8 with a leading byte-order mark
    text = "mode = physical\ng = 2.4\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(str(marked)) == load_config(str(plain)) == {"mode": "physical", "g": "2.4"}
    marked_run = run_cli(capsys, "truth-table", "--config", str(marked))
    assert marked_run == run_cli(capsys, "truth-table", "--config", str(plain))
    code, out, _ = marked_run
    assert code == 0 and "16/16 PASS" in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("resolution = 3\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--resolution", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))
    with pytest.raises(SystemExit) as err:
        main(["truth-table", "--config", str(cfg)])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command,line",
    [
        ("truth-table", "format = xml"),
        ("truth-table", "g = abc"),
        ("truth-table", "g = nan"),
        ("truth-table", "mode = lossy"),
        ("sweep", "resolution = 1.5"),
    ],
)
def test_config_values_get_flag_type_and_choice_checks(command, line, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(cfg)])
    assert err.value.code == 2


def test_config_sweep_is_the_flag_sweep(tmp_path, capsys):
    cfg = tmp_path / "gamma0.2.cfg"
    cfg.write_text("gamma = 0.2\n")
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    want = gzip.decompress((GOLDEN_DIR / "sweep_gamma0.2.csv.gz").read_bytes())
    assert out_file.read_bytes() == want


def test_config_sets_amplitude_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a-pol = 0,1\na_spatial = 0,1\nb_pol = 1,0\nb_spatial = 1,0\n")
    code, out, _ = run_cli(capsys, "gate", "--config", str(cfg))
    assert code == 0
    assert "|L,a2,L,b2>" in out


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    _, simulated, _ = run_cli(capsys, "sweep", "--resolution", "3", "--simulate")
    _, plain, _ = run_cli(capsys, "sweep", "--resolution", "3")
    assert "F_sim" in simulated
    assert "F_sim" not in plain  # --simulate does not outlive its call
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = physical\ng = 2.4\n")
    _, physical, _ = run_cli(capsys, "gate", "--config", str(cfg), "--format", "json")
    _, ideal, _ = run_cli(capsys, "gate", "--format", "json")
    assert json.loads(physical)["mode"] == "physical"
    assert json.loads(ideal)["mode"] == "ideal"  # nor do a config file's values
    assert len(built) == 1


def test_config_keys_of_other_commands_are_ignored(capsys):
    # sample.cfg sets mode, g, kappa_s, detuning and format, which sweep lacks
    _, plain, _ = run_cli(capsys, "sweep", "--resolution", "3")
    code, seeded, _ = run_cli(
        capsys, "sweep", "--config", str(REPO_ROOT / "scripts" / "sample.cfg"), "--resolution", "3"
    )
    assert code == 0
    assert seeded == plain


# -- options and inputs that are rejected ------------------------------------------

FLOAT_OPTIONS = [
    (command, flag)
    for command in ("truth-table", "gate", "cluster", "bell-analyze")
    for flag in ("--g", "--kappa-s", "--gamma", "--detuning")
] + [
    ("sweep", flag)
    for flag in ("--gamma", "--g-min", "--g-max", "--kappa-s-min", "--kappa-s-max")
] + [("paper-check", "--gamma"), ("paper-check", "--tolerance")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,flag", FLOAT_OPTIONS)
def test_non_finite_float_options_are_usage_errors(command, flag, value, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, f"{flag}={value}"])
    assert err.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_negative_tolerance_is_a_usage_error(via_config, tmp_path, capsys):
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tolerance = -1\n")
        argv = ["paper-check", "--config", str(cfg)]
    else:
        argv = ["paper-check", "--tolerance", "-1"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "hypercnot paper-check: error: argument --tolerance: "
        "expected a non-negative number, got '-1'"
    )


def test_zero_tolerance_is_accepted(capsys):
    # the published values are rounded, so none is met exactly
    code, out, _ = run_cli(capsys, "paper-check", "--tolerance", "0")
    assert code == 1
    assert out.endswith("out of tolerance 0\n")


# the library's CavityParams check, reached through each command that builds parameters
NEGATIVE_CAVITY_ARGV = [
    ["truth-table", "--mode", "physical", "--g", "-1"],
    ["gate", "--mode", "physical", "--g", "1", "--kappa-s", "-1"],
    ["cluster", "--mode", "physical", "--g", "1", "--gamma", "-1"],
    ["bell-analyze", "--mode", "physical", "--g", "-1"],
    ["paper-check", "--gamma", "-1"],
]


# ideal mode runs no cavity, but validates the cavity values it is given all the same
NEGATIVE_IDEAL_ARGV = [
    ["truth-table", "--g", "-1"],
    ["gate", "--gamma", "-5"],
    ["cluster", "--kappa-s", "-3"],
    ["bell-analyze", "--g", "-1"],
]


def assert_negative_cavity_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # reported through the command's own parser, as argparse type errors are
    assert captured.err.startswith(f"usage: hypercnot {argv[0]} ")
    assert (
        f"hypercnot {argv[0]}: error: g, kappa_s and gamma must be non-negative and finite"
        in captured.err
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", NEGATIVE_CAVITY_ARGV, ids=[argv[0] for argv in NEGATIVE_CAVITY_ARGV])
def test_negative_cavity_parameters_are_usage_errors(argv, capsys):
    assert_negative_cavity_usage_error(argv, capsys)


@pytest.mark.parametrize("argv", NEGATIVE_IDEAL_ARGV, ids=[argv[0] for argv in NEGATIVE_IDEAL_ARGV])
def test_negative_cavity_parameters_are_usage_errors_in_ideal_mode(argv, capsys):
    assert_negative_cavity_usage_error(argv, capsys)


def test_ideal_mode_accepts_valid_cavity_parameters_silently(capsys):
    # above the side-leakage guidance, where physical mode warns
    code, out, err = run_cli(capsys, "truth-table", "--g", "2.4", "--kappa-s", "1.5")
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "truth-table.txt").read_text()


@pytest.mark.parametrize("pair", ["1e200,1e200", "1e-200,0"], ids=["overflow", "underflow"])
def test_amplitude_pairs_without_a_usable_norm_are_usage_errors(pair, capsys):
    with pytest.raises(SystemExit) as err:
        main(["gate", "--a-pol", pair])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --a-pol: expected two comma-separated amplitudes" in captured.err
    assert f"with a finite, nonzero norm, got {pair!r}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,cfg,message",
    [
        (["sweep"], "gamma 0.2\n", "{cfg}:1: expected key = value, got 'gamma 0.2'"),
        (
            ["gate", "--a-pol", "x,y"],
            None,
            "argument --a-pol: could not parse 'x,y' as complex amplitudes",
        ),
        (
            ["gate", "--input", "basis:L,a2,R"],
            None,
            "basis preset needs four names, e.g. basis:L,a2,R,b1",
        ),
        (["gate", "--input", "foo"], None, "unknown input preset 'foo'"),
        (["bell-analyze", "--pol", "1"], None, "--pol and --spatial must be given together"),
        (["bell-analyze", "--spatial", "1"], None, "--pol and --spatial must be given together"),
    ],
    ids=["config-line", "amplitudes", "basis-names", "input-preset", "pol-alone", "spatial-alone"],
)
def test_usage_errors_are_one_error_line(argv, cfg, message, tmp_path, capsys):
    if cfg is not None:
        path = tmp_path / "run.cfg"
        path.write_text(cfg)
        argv = [*argv, "--config", str(path)]
        message = message.format(cfg=path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"hypercnot {argv[0]}: error: {message}"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_must_be_a_non_negative_integer(seed, via_config, tmp_path, capsys):
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {seed}\n")
        argv = ["gate", "--config", str(cfg)]
    else:
        argv = ["gate", "--seed", seed]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"hypercnot gate: error: argument --seed: expected a non-negative integer, got {seed!r}"
    )
    assert "Traceback" not in captured.err


def test_seed_zero_and_large_seeds_sample(capsys):
    for seed in ("0", str(2**70)):
        code, out, _ = run_cli(capsys, "gate", "--mode", "physical", "--g", "1.56", "--seed", seed)
        assert code == 0
        assert len(out.splitlines()) == 4  # one sampled branch


CAVITY_COMMANDS = ["gate", "truth-table", "cluster", "bell-analyze"]

# a g above CavityParams' bound of 1e150, where g**2 would overflow a float,
# or a gamma and detuning above it, where r_hot would be nan at g = 1: a
# usage error naming the bound
HUGE_G_ARGV = [
    ["gate", "--mode", "physical", "--g", "1e200"],
    ["truth-table", "--mode", "physical", "--g", "1e200"],
    ["cluster", "--mode", "physical", "--g", "1e200"],
    ["bell-analyze", "--mode", "physical", "--g", "1e200"],
    ["sweep", "--g-max", "1e308", "--resolution", "2"],
]
HUGE_RATE_ARGV = [
    [command, "--mode", "physical", "--g", "1", "--gamma", "1e200", "--detuning", "1e200"]
    for command in CAVITY_COMMANDS
]


@pytest.mark.parametrize(
    "argv",
    HUGE_G_ARGV + HUGE_RATE_ARGV,
    ids=[argv[0] for argv in HUGE_G_ARGV] + [f"{argv[0]}-gamma" for argv in HUGE_RATE_ARGV],
)
def test_huge_g_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"hypercnot {argv[0]}: error: g, kappa_s and gamma must be non-negative and finite, "
        "at most 1e+150"
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("g", ["1e-200", "1e-170"])
@pytest.mark.parametrize("command", CAVITY_COMMANDS)
def test_zero_dipole_term_runs_at_any_coupling(command, g, capsys):
    # gamma = 0 on resonance: d = 0 and r_hot = 1 at every g > 0, also where
    # g**2 underflows, so the run is the one at g = 1: the same lines and the
    # same verdict (truth-table and bell-analyze FAIL there, and exit 1)
    argv = [command, "--mode", "physical", "--gamma", "0", "--detuning", "0", "--g"]
    want = run_cli(capsys, *argv, "1")
    assert want[0] == (1 if command in ("truth-table", "bell-analyze") else 0)
    assert want[2] == ""
    assert run_cli(capsys, *argv, g) == want


@pytest.mark.parametrize(
    "cavity",
    [["--gamma", "1e-323", "--detuning", "0"], ["--gamma", "0", "--detuning", "5e-324"]],
    ids=["subnormal-gamma", "subnormal-detuning"],
)
@pytest.mark.parametrize("command", CAVITY_COMMANDS)
def test_denominator_rounding_to_zero_is_a_usage_error(command, cavity, capsys):
    # a subnormal gamma or detuning would leave d != 0 while d*c + g**2
    # rounds to 0: CavityParams rejects it, and the CLI reports one error line
    with pytest.raises(SystemExit) as err:
        main([command, "--mode", "physical", "--g", "1e-200", *cavity])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"hypercnot {command}: error: gamma and detuning must both be 0, or the larger of "
        "gamma and |detuning| at least the smallest normal float, 2.22507e-308"
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--detuning", "0"],
        ["sweep", "--mode", "physical"],
        ["sweep", "--g", "1"],
        ["sweep", "--kappa-s", "0.1"],
        ["sweep", "--format", "csv"],
        ["paper-check", "--g", "1"],
        ["paper-check", "--mode", "physical"],
        ["paper-check", "--kappa-s", "0.1"],
        ["paper-check", "--detuning", "0.1"],
    ],
)
def test_options_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("extra", [[], ["--seed", "1"]])
def test_gate_at_zero_survival_is_one_error_line(extra, capsys):
    argv = ["gate", "--mode", "physical", "--g", "0", "--kappa-s", "1", "--detuning", "0"]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: zero survival")


# -- golden outputs captured before the CLI refactor ---------------------------------

GOLDEN_CASES = [
    # (golden file, exit code, argv); .csv and .csv.gz cases write through --out
    ("truth-table.txt", 0, "truth-table"),
    ("truth-table_g2.4.txt", 0, "truth-table --mode physical --g 2.4"),
    ("truth-table_g0.5.txt", 0, "truth-table --mode physical --g 0.5"),
    ("truth-table_sample-cfg.txt", 0, "truth-table --config scripts/sample.cfg"),
    ("gate.txt", 0, "gate"),
    ("gate_g2.4.txt", 0, "gate --mode physical --g 2.4"),
    ("gate_g0.5.txt", 0, "gate --mode physical --g 0.5"),
    ("gate_basis.txt", 0, "gate --input basis:L,a2,R,b1"),
    ("gate_seed5.txt", 0, "gate --seed 5"),
    ("cluster.txt", 0, "cluster"),
    ("cluster_g2.4.txt", 0, "cluster --mode physical --g 2.4"),
    ("cluster_g0.5.txt", 0, "cluster --mode physical --g 0.5"),
    ("bell-analyze.txt", 0, "bell-analyze"),
    ("bell-analyze_g2.4.txt", 0, "bell-analyze --mode physical --g 2.4"),
    ("bell-analyze_g0.5.txt", 0, "bell-analyze --mode physical --g 0.5"),
    ("paper-check.txt", 0, "paper-check"),
    ("paper-check_simulate.txt", 0, "paper-check --simulate"),
    ("paper-check_tolerance.txt", 1, "paper-check --tolerance 0.0001"),
    ("sweep.csv.gz", 0, "sweep"),
    ("sweep_resolution5.csv", 0, "sweep --resolution 5"),
    # rendered from the scalar per-point simulation before the batched engine existed
    ("sweep_resolution5_simulate.csv", 0, "sweep --resolution 5 --simulate"),
    # rendered by the compiled engine before the exact uniform-input form replaced it
    ("sweep_simulate.csv.gz", 0, "sweep --simulate"),
    ("sweep_gamma0.2.csv.gz", 0, "sweep --gamma 0.2"),
    # one simulated point: the resolution-1 lattice, recorded before the
    # closed forms were evaluated on the broadcast (g, kappa_s) grid
    (
        "sweep_point_simulate.csv",
        0,
        "sweep --g-min 1.56 --g-max 1.56 --kappa-s-min 0.2 --kappa-s-max 0.2"
        " --resolution 1 --simulate",
    ),
    # recorded while F_sim was a flat complex pass, before it moved to the
    # grid's real planes; 168 of its 441 points are above the side-leakage
    # guidance
    (
        "sweep_resolution21_gamma0.3_simulate.csv",
        0,
        "sweep --simulate --gamma 0.3 --resolution 21",
    ),
]


@pytest.mark.parametrize("golden,expected_code,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(golden, expected_code, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)  # config paths are relative to the repo root
    argv = argv.split()
    out_file = tmp_path / "out.csv"
    if ".csv" in golden:
        argv += ["--out", str(out_file)]
    code = main(argv)
    captured = capsys.readouterr()
    stdout = captured.out.encode()
    want = (GOLDEN_DIR / golden).read_bytes()
    if golden.endswith(".gz"):
        want = gzip.decompress(want)
    got = out_file.read_bytes() if ".csv" in golden else stdout
    assert code == expected_code
    assert got == want
    if ".csv" in golden:
        assert stdout == b""
    # only the simulated sweeps write to stderr: their side-leakage warning
    if not (argv[0] == "sweep" and "--simulate" in argv):
        assert captured.err == ""


# JSON outputs captured before the gate was compiled once. Floats may move in
# their last bits (sums run in another order), so they match within 1e-12;
# structure, keys, strings, integers and booleans match exactly.
JSON_GOLDEN_CASES = [
    ("gate.json", "gate"),
    ("gate_g0.5.json", "gate --mode physical --g 0.5"),
    ("gate_seed5.json", "gate --seed 5"),
    ("truth-table_g2.4.json", "truth-table --mode physical --g 2.4"),
    ("cluster_g2.4.json", "cluster --mode physical --g 2.4"),
    ("bell-analyze_g0.5.json", "bell-analyze --mode physical --g 0.5"),
    ("paper-check_simulate.json", "paper-check --simulate"),
]


def assert_json_matches(got, want, path="$"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_json_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (got_item, want_item) in enumerate(zip(got, want)):
            assert_json_matches(got_item, want_item, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12, path
    else:
        assert got == want, path


@pytest.mark.parametrize("golden,argv", JSON_GOLDEN_CASES, ids=[c[0] for c in JSON_GOLDEN_CASES])
def test_golden_json_output(golden, argv, capsys):
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    want = json.loads((GOLDEN_DIR / golden).read_text())
    assert_json_matches(json.loads(out), want)


# -- text and JSON: one set of rows ---------------------------------------------------

REPORT_ARGV = [
    f"{command} {mode}".strip()
    for command in ("truth-table", "gate", "cluster", "bell-analyze")
    for mode in ("", "--mode physical --g 0.5")
] + ["paper-check --simulate", "paper-check --tolerance 0.0001"]


def json_floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from json_floats(item)


@pytest.mark.parametrize("argv", REPORT_ARGV)
def test_text_report_prints_the_json_rows(argv, capsys):
    text_code, text, _ = run_cli(capsys, *argv.split())
    json_code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    payload = json.loads(out)
    assert text_code == json_code
    # every JSON float is printed at the text's fixed precision: each one claims
    # the most precise printed number it rounds to, and no number twice
    printed = Counter(re.findall(r"\d+\.\d+", text))
    for value in json_floats(payload):
        shown = [f"{value:.{digits}f}" for digits in range(12, 0, -1)]
        match = next((number for number in shown if printed[number]), None)
        assert match is not None, f"{value!r} is not printed in the text"
        printed[match] -= 1
    # the verdicts: PASS/FAIL and True/False per row, then the summary line
    lines = text.splitlines()
    for row, line in zip(payload.get("rows", []), lines[1:]):
        if "ok" in row:
            assert line.split()[-1] == ("PASS" if row["ok"] else "FAIL")
        if "deterministic" in row:
            assert line.split()[3] == str(row["deterministic"])
    if "passed" in payload:
        assert lines[-1] == f"{payload['passed']}/16 PASS"
    if "distinct" in payload:
        shown, total = lines[-1].split()[0].split("/")
        assert (shown == total) == payload["distinct"]
    if argv.startswith("paper-check"):
        assert abs(payload["rows"][0]["fidelity_computed"] - 0.9431595580655449) < 1e-12


def test_main_runs_the_command_it_finds_by_name(monkeypatch, capsys):
    # the parser is built, and bound to nothing, before the command is replaced
    cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args, parser: calls.append(args.resolution) or 0)
    assert main(["sweep", "--resolution", "3"]) == 0
    assert calls == [3]
    assert capsys.readouterr().out == ""


# -- generic ------------------------------------------------------------------------


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["paper-check", "--out", str(target)]) == 0
    capsys.readouterr()
    assert "all within tolerance" in target.read_text()


def test_unwritable_out_path_fails(tmp_path, capsys):
    code = main(["paper-check", "--out", str(tmp_path / "missing" / "x.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


# -- the module entry point -------------------------------------------------


def run_module(*argv):
    # a fresh interpreter that imports the package this test run imported
    env = dict(os.environ, PYTHONPATH=str(Path(hypercnot.__file__).resolve().parents[1]))
    command = [sys.executable, "-m", "hypercnot.cli", *argv]
    return subprocess.run(command, capture_output=True, env=env, timeout=120, check=False)


def test_module_entry_point_prints_the_paper_check():
    result = run_module("paper-check")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN_DIR / "paper-check.txt").read_bytes()


def test_module_entry_point_exits_2_on_a_usage_error():
    result = run_module("gate", "--seed", "-1")
    assert result.returncode == 2
    assert b"--seed" in result.stderr
