"""Smoke test of the README's library quickstart."""

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_readme_quickstart_runs(capsys):
    # the first ```python block after the quickstart heading, run as written;
    # its first print carries the expected ket as a trailing comment
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quickstart", "exec"), {})
    first_print = next(line for line in block.splitlines() if line.startswith("print("))
    expected = first_print.split("#", 1)[1].strip()
    assert expected == "(1+0j)|L,a2,L,b2>"
    assert capsys.readouterr().out.splitlines()[0] == expected
