"""Smoke tests of the runnable scripts against outputs captured in golden/."""

import gzip
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_reproduce_benchmarks_output(capsys):
    runpy.run_path(str(SCRIPTS / "reproduce_benchmarks.py"), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN_DIR / "reproduce_benchmarks.txt").read_text()
    assert captured.err == ""


def test_performance_surface_writes_the_default_sweep(tmp_path, monkeypatch, capsys):
    out = tmp_path / "surface.csv"
    monkeypatch.setattr(sys, "argv", ["performance_surface.py", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "performance_surface.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == gzip.decompress((GOLDEN_DIR / "sweep.csv.gz").read_bytes())
