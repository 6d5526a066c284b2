"""Command-line frontend: truth tables, gate runs, cluster preparation,
Bell-state analysis, parameter sweeps, and benchmark checks.

main() dispatches by name: command ``x-y`` runs this module's ``cmd_x_y``.
Every command but ``sweep`` is a report: it builds its rows once, as the
dicts ``--format json`` prints, and renders its text lines and computes its
exit code from those same rows. ``sweep`` always writes CSV.

Exit codes: 0 success, 1 validation failure (a mismatch, an out-of-
tolerance value, or a run the physics leaves undefined, such as zero
survival), 2 usage error. Output is deterministic for a fixed
(config, seed); sweeps rerun byte-identical. Warnings, from this module or
the library, go to stderr as one ``warning: <message>`` line each.

A flat key=value config file can seed any value-taking option. Its values
go through the same argparse types and choices as flags, command-line flags
win, and keys the running command does not define are ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    REFERENCE_TOLERANCE,
    _sweep_lattice,
    reference_check,
    simulated_performance,
)
from .cavity import CavityParams, ReflectionPair
from .hilbert import basis_state, fidelity_up_to_global_phase, tensor_product
from .protocols import (
    BELL_NAMES,
    HyperBellState,
    ZeroSurvivalError,
    _PHOTON_REGISTERS,
    _PLUS,
    analyze_hyper_bell,
    hyper_cnot_state,
    photon_state,
    prepare_cluster_stages,
    truth_table,
)


def _finite_float(raw: str) -> float:
    """argparse type for every float option: NaN and +-inf are usage errors."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def _tolerance(raw: str) -> float:
    """argparse type for --tolerance: a finite, non-negative number."""
    value = _finite_float(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {raw!r}")
    return value


def _seed(raw: str) -> int:
    """argparse type for --seed: a non-negative integer, as numpy's seeding
    requires."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return value


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Command name -> its own parser."""
    # argparse has no public accessor for a parser's actions
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _config_flags(parser: argparse.ArgumentParser) -> dict[str, dict[str, str]]:
    """Command -> {config key: flag} for its value-taking options except --config."""
    return {
        name: {
            action.dest: action.option_strings[0]
            for action in sub._actions
            if action.option_strings and action.nargs != 0 and action.dest != "config"
        }
        for name, sub in _subparsers(parser).items()
    }


def load_config(path: str) -> dict[str, str]:
    """Parse a flat key = value file into raw strings; '#' starts a comment.

    Every key must name a value-taking option of some command. Values stay
    strings: main() passes them through that option's own type and choices.
    """
    known = set().union(*_config_flags(_parser()).values())
    values: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        # lines without their ending, so that an error quotes the line alone
        for lineno, raw in enumerate(fh.read().split("\n"), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _reflection(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ReflectionPair | None:
    """The pair physical mode runs at, or None in ideal mode; the cavity
    values are validated in both modes."""
    ideal = args.mode == "ideal"
    if args.g is None and not ideal:
        parser.error("physical mode requires --g (or g in the config file)")
    g = 0.0 if args.g is None else args.g
    try:
        params = CavityParams(g=g, kappa_s=args.kappa_s, gamma=args.gamma, detuning=args.detuning)
    except ValueError as exc:
        parser.error(str(exc))
    if ideal:
        return None
    return ReflectionPair.from_params(params)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the text chunks, in order as they come, to ``out`` or stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _amplitude_pair(raw: str) -> np.ndarray:
    """argparse type for 'c0,c1': two complex amplitudes that can be
    renormalized. Their squared norm must be finite and at least the
    smallest normal float: below it the norm has lost its precision."""
    try:
        pair = np.array([complex(part.strip()) for part in raw.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {raw!r} as complex amplitudes") from None
    with np.errstate(all="ignore"):  # NaN, overflow and underflow are rejected below
        norm2 = np.vdot(pair, pair).real
    if len(pair) != 2 or not np.finfo(float).tiny <= norm2 < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated amplitudes with a finite, nonzero norm, got {raw!r}"
        )
    return pair


def _input_state(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """The joint input: a basis: preset, else the product of the amplitude
    flags with (|0> + |1>)/sqrt2 on every register no flag sets, the uniform
    preset and the default."""
    flags = {
        attr: "--" + attr.replace("_", "-")
        for attr in ("a_pol", "a_spatial", "b_pol", "b_spatial")
        if getattr(args, attr) is not None
    }
    if flags and args.input is not None:
        parser.error(f"--input cannot be combined with {', '.join(flags.values())}")
    if args.input not in (None, "uniform"):
        if not args.input.startswith("basis:"):
            parser.error(f"unknown input preset {args.input!r}")
        names = [n.strip() for n in args.input[len("basis:"):].split(",")]
        if len(names) != 4:
            parser.error("basis preset needs four names, e.g. basis:L,a2,R,b1")
        try:
            return basis_state(_PHOTON_REGISTERS, names)
        except ValueError as exc:
            parser.error(str(exc))
    pairs = {}
    for attr, flag in flags.items():
        pair = getattr(args, attr)
        norm = float(np.linalg.norm(pair))
        if abs(norm - 1.0) > 1e-6:
            print(f"warning: {flag} renormalized (norm was {norm:.9g})", file=sys.stderr)
        pairs[attr] = pair / norm
    a = photon_state("a", pairs.get("a_pol", _PLUS), pairs.get("a_spatial", _PLUS))
    b = photon_state("b", pairs.get("b_pol", _PLUS), pairs.get("b_spatial", _PLUS))
    return tensor_product(a, b)


# -- commands ------------------------------------------------------------


def _report(args: argparse.Namespace, lines: list[str], payload: dict, ok: bool = True) -> int:
    """Write the text lines, or the JSON payload under --format json; exit 0 if ok, else 1."""
    if args.format == "json":
        _emit([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.out)
    else:
        _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if ok else 1


def cmd_truth_table(args, parser) -> int:
    reflection = _reflection(args, parser)
    rows = [
        {
            "input": list(r.input_names),
            "expected": list(r.expected_names),
            "observed": list(r.observed_names),
            "min_fidelity": r.min_fidelity,
            "ok": r.ok,
        }
        for r in truth_table(reflection)
    ]
    passed = sum(row["ok"] for row in rows)
    lines = [f"{'input':<16} {'expected':<16} {'observed':<16} {'fidelity':>10}  result"]
    for row in rows:
        names = [",".join(row[key]) for key in ("input", "expected", "observed")]
        lines.append(
            f"{names[0]:<16} {names[1]:<16} {names[2]:<16} {row['min_fidelity']:>10.6f}  "
            f"{'PASS' if row['ok'] else 'FAIL'}"
        )
    lines.append(f"{passed}/16 PASS")
    return _report(args, lines, {"rows": rows, "passed": passed}, passed == 16)


def cmd_gate(args, parser) -> int:
    reflection = _reflection(args, parser)
    joint = _input_state(args, parser)
    ideal_final = hyper_cnot_state(joint, None)[0].final_state
    if args.seed is not None:
        runs = [hyper_cnot_state(joint, reflection, branch_mode="sample", seed=args.seed)]
    else:
        runs = hyper_cnot_state(joint, reflection)
    payload = {
        "mode": runs[0].mode,
        "survival_probability": runs[0].survival_probability,
        "branches": [
            {
                "spin_outcomes": list(run.spin_outcomes),
                "branch_probability": run.branch_probability,
                "fidelity_vs_ideal": fidelity_up_to_global_phase(run.final_state, ideal_final),
                "feed_forward_ops": list(run.feed_forward_ops),
            }
            for run in runs
        ],
    }
    lines = [
        f"mode={payload['mode']} survival={payload['survival_probability']:.9f}",
        f"{'e1':>4} {'e2':>4} {'p(branch)':>10} {'fidelity':>10}  feed-forward",
    ]
    for branch in payload["branches"]:
        e1, e2 = (("up", "down")[e] for e in branch["spin_outcomes"])
        lines.append(
            f"{e1:>4} {e2:>4} {branch['branch_probability']:>10.6f} "
            f"{branch['fidelity_vs_ideal']:>10.6f}  {','.join(branch['feed_forward_ops']) or '-'}"
        )
    lines.append(f"final state ({runs[-1].mode}, last branch): {runs[-1].final_state.terms()}")
    return _report(args, lines, payload)


def cmd_cluster(args, parser) -> int:
    reflection = _reflection(args, parser)
    stages = prepare_cluster_stages(reflection)
    ideal = prepare_cluster_stages(None)
    pairs = [
        ("hyperentangled bell", stages.hyper_bell, ideal.hyper_bell),
        ("after control hadamards", stages.after_control_hadamards, ideal.after_control_hadamards),
        ("after conditional flip", stages.after_conditional_flip, ideal.after_conditional_flip),
        ("cluster", stages.cluster, ideal.cluster),
    ]
    rows = [
        {"stage": name, "fidelity_vs_ideal": fidelity_up_to_global_phase(got, want)}
        for name, got, want in pairs
    ]
    lines = [
        f"{row['stage']:<26} fidelity vs ideal target: {row['fidelity_vs_ideal']:.9f}"
        for row in rows
    ]
    lines.append(f"cluster state: {stages.cluster.terms()}")
    return _report(args, lines, {"stages": rows})


def cmd_bell_analyze(args, parser) -> int:
    reflection = _reflection(args, parser)
    if args.pol is not None or args.spatial is not None:
        if args.pol is None or args.spatial is None:
            parser.error("--pol and --spatial must be given together")
        requests = [(args.pol, args.spatial)]
    else:
        requests = [(p, s) for p in range(4) for s in range(4)]
    rows = []
    for pol, spatial in requests:
        result = analyze_hyper_bell(HyperBellState(pol, spatial), reflection)
        rows.append(
            {
                "input": [pol, spatial],
                "pattern": list(result.pattern),
                "decoded": [result.pol_index, result.spatial_index],
                "deterministic": result.deterministic,
                "min_outcome_probability": result.min_outcome_probability,
            }
        )
    patterns = len({tuple(row["pattern"]) for row in rows})
    distinct = patterns == len(rows)
    ok = distinct and all(row["decoded"] == row["input"] for row in rows)
    lines = [f"{'input':<14} {'pattern':<22} {'decoded':<14} {'deterministic':<13} min-prob"]
    for row in rows:
        pol, spatial = (BELL_NAMES[i] for i in row["input"])
        decoded = ",".join(BELL_NAMES[i] for i in row["decoded"])
        lines.append(
            f"{pol},{spatial:<9} {','.join(row['pattern']):<22} {decoded:<14} "
            f"{str(row['deterministic']):<13} {row['min_outcome_probability']:.6f}"
        )
    lines.append(f"{patterns}/{len(rows)} distinct patterns: {'PASS' if ok else 'FAIL'}")
    return _report(args, lines, {"rows": rows, "distinct": distinct}, ok)


def cmd_sweep(args, parser) -> int:
    try:
        lattice = _sweep_lattice(
            (args.g_min, args.g_max),
            (args.kappa_s_min, args.kappa_s_max),
            args.resolution,
            args.gamma,
            include_simulation=args.simulate,
        )
    except ValueError as exc:
        parser.error(str(exc))
    # the figure columns, named and ordered by analysis, follow the three axis cells
    columns = lattice.columns
    header = ",".join(["g_over_kappa,kappa_s_over_kappa,gamma_over_kappa", *columns]) + "\n"
    # every axis value is formatted once, into one template per g value: its
    # cell joined before each kappa_s row; one % pass per g block then
    # converts that block's figures, point after point, and is written out
    # before the next block is formatted
    figures = ",".join(["%.10g"] * len(columns)) + "\n"
    gamma_cell = f"{args.gamma:.10g},"
    ks_rows = [f"{ks:.10g},{gamma_cell}{figures}" for ks in lattice.kappa_s_values]
    # the figures interleaved point by point, as the templates take them
    cells = [None] * sum(map(len, columns.values()))
    for i, column in enumerate(columns.values()):
        cells[i :: len(columns)] = column
    g_cells = [f"{g:.10g}," for g in lattice.g_values]
    step = len(columns) * len(ks_rows)
    blocks = (
        (g + g.join(ks_rows)) % tuple(cells[i * step : (i + 1) * step])
        for i, g in enumerate(g_cells)
    )
    _emit(chain([header], blocks), args.out)
    return 0


def cmd_paper_check(args, parser) -> int:
    try:
        checks = reference_check(args.gamma)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {"tolerance": args.tolerance, "rows": []}
    lines = [
        f"{'g/k':>6} {'ks/k':>5} {'F ref':>7} {'F calc':>8} {'|dF|':>8} "
        f"{'eta ref':>8} {'eta calc':>9} {'|deta|':>8}  result"
    ]
    for check in checks:
        row = {
            "g_over_kappa": check.point.g_over_kappa,
            "kappa_s_over_kappa": check.point.kappa_s_over_kappa,
            "fidelity_reference": check.point.fidelity,
            "fidelity_computed": check.fidelity_computed,
            "efficiency_reference": check.point.efficiency,
            "efficiency_computed": check.efficiency_computed,
            "ok": check.within(args.tolerance),
        }
        payload["rows"].append(row)
        lines.append(
            f"{row['g_over_kappa']:>6.2f} {row['kappa_s_over_kappa']:>5.2f} "
            f"{row['fidelity_reference']:>7.3f} {row['fidelity_computed']:>8.4f} "
            f"{check.fidelity_delta:>8.5f} {row['efficiency_reference']:>8.3f} "
            f"{row['efficiency_computed']:>9.4f} {check.efficiency_delta:>8.5f}"
            f"  {'PASS' if row['ok'] else 'FAIL'}"
        )
    if args.simulate:
        lines.append("")
        lines.append("circuit-level cross-check (uniform input, complex reflections):")
        payload["simulated"] = []
        for row in payload["rows"]:
            g, ks = row["g_over_kappa"], row["kappa_s_over_kappa"]
            f_sim, eta_sim = simulated_performance(CavityParams(g=g, kappa_s=ks, gamma=args.gamma))
            payload["simulated"].append(
                {"g_over_kappa": g, "kappa_s_over_kappa": ks, "F_sim": f_sim, "eta_sim": eta_sim}
            )
            lines.append(
                f"  g={g:.2f} ks={ks:.2f}: F_sim={f_sim:.4f} "
                f"(formula {row['fidelity_computed']:.4f}), "
                f"eta_sim={eta_sim:.6f} (formula {row['efficiency_computed']:.6f})"
            )
    ok = all(row["ok"] for row in payload["rows"])
    lines.append(f"{'all within' if ok else 'out of'} tolerance {args.tolerance:g}")
    return _report(args, lines, payload, ok)


# -- parser ---------------------------------------------------------------


def _command(commands, name: str, help: str, cavity: bool = True, formats: bool = True):
    """Add one subcommand with the options it shares with the others."""
    sub = commands.add_parser(name, help=help, allow_abbrev=False)
    sub.add_argument("--config", help="flat key=value config file; flags override it")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    if formats:
        sub.add_argument("--format", choices=["text", "json"], default="text")
    if cavity:
        sub.add_argument("--mode", choices=["ideal", "physical"], default="ideal")
        sub.add_argument("--g", type=_finite_float, help="coupling strength, units of kappa")
        sub.add_argument(
            "--kappa-s", type=_finite_float, default=CavityParams.kappa_s,
            help="side leakage rate, units of kappa",
        )
        sub.add_argument(
            "--detuning", type=_finite_float, default=CavityParams.detuning,
            help="probe minus cavity frequency",
        )
    sub.add_argument(
        "--gamma", type=_finite_float, default=CavityParams.gamma,
        help="dipole decay rate, units of kappa",
    )
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercnot",
        description="Simulate the two-photon spatial-polarization hyper-CNOT gate",
    )
    parser.add_argument("--version", action="version", version=f"hypercnot {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    _command(commands, "truth-table", "run all 16 basis inputs and verify the logic")

    p = _command(commands, "gate", "run the gate on a configurable input state")
    p.add_argument("--input", help="'uniform' (the default) or 'basis:R,a1,R,b1'")
    p.add_argument("--a-pol", type=_amplitude_pair, help="control polarization amplitudes 'c0,c1'")
    p.add_argument("--a-spatial", type=_amplitude_pair, help="control spatial amplitudes 'c0,c1'")
    p.add_argument("--b-pol", type=_amplitude_pair, help="target polarization amplitudes 'c0,c1'")
    p.add_argument("--b-spatial", type=_amplitude_pair, help="target spatial amplitudes 'c0,c1'")
    p.add_argument("--seed", type=_seed, help="sample one spin branch with this seed")

    _command(commands, "cluster", "prepare the two-photon four-qubit cluster state")

    p = _command(commands, "bell-analyze", "decode hyperentangled Bell states")
    p.add_argument("--pol", type=int, choices=range(4), help="analyze a single state: pol index")
    p.add_argument("--spatial", type=int, choices=range(4), help="spatial index")

    p = _command(
        commands, "sweep", "grid of closed-form performance figures as CSV",
        cavity=False, formats=False,
    )
    p.add_argument(
        "--simulate", action="store_true", help="add circuit-level F_sim,eta_sim columns"
    )
    p.add_argument("--g-min", type=_finite_float, default=0.0)
    p.add_argument("--g-max", type=_finite_float, default=3.0)
    p.add_argument("--kappa-s-min", type=_finite_float, default=0.0)
    p.add_argument("--kappa-s-max", type=_finite_float, default=2.0)
    p.add_argument(
        "--resolution", type=int, default=101, help="lattice points per axis (default %(default)s)"
    )

    p = _command(
        commands, "paper-check", "compare against the published benchmark values", cavity=False
    )
    p.add_argument(
        "--tolerance", type=_tolerance, default=REFERENCE_TOLERANCE, help="default %(default)s"
    )
    p.add_argument("--simulate", action="store_true", help="also report circuit-level figures")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: nothing changes a parser once it is
    built, and parse_args fills a fresh namespace on every call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = parser.parse_args(argv)
    # a command reports its usage errors through its own parser, as argparse
    # does for its type errors: "hypercnot gate: error: ..."
    command = _subparsers(parser)[args.command]
    if args.config:
        try:
            values = load_config(args.config)
        except (OSError, ValueError) as exc:
            command.error(str(exc))
        # config values go in front of the command's own flags, so flags win;
        # keys this command does not define are ignored
        flags = _config_flags(parser)[args.command]
        seeded = [f"{flags[key]}={value}" for key, value in values.items() if key in flags]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + seeded + argv[at:])
    with warnings.catch_warnings():
        # library warnings become one plain stderr line each, like the
        # amplitude-renormalization warning; the filters stay as they are
        warnings.showwarning = _show_warning
        # looked up by name on each call, so a patched cmd_* function is the one run
        run = globals()["cmd_" + args.command.replace("-", "_")]
        try:
            return run(args, command)
        except (OSError, ZeroSurvivalError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
