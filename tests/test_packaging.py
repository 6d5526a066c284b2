"""The package metadata in pyproject.toml."""

import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_version_is_read_from_the_package():
    # one spelling of the version, hypercnot.__version__, which the CLI's
    # --version and every sweep's provenance print too
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        config = tomllib.load(f)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hypercnot.__version__"}
