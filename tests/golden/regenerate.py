"""Regenerate the golden CLI corpus.

    python tests/golden/regenerate.py

Runs every invocation of ``manifest.json`` in process through click's
``CliRunner``, as ``tests/test_golden.py`` replays it, and writes its
stdout, stderr and exit code to ``cases/<name>.stdout``, ``.stderr`` and
``.exit``.  A change that moves output bytes regenerates the corpus and
explains each changed file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases"
sys.path.insert(0, str(HERE.parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

from confinedgas.cli import main as cli  # noqa: E402


def manifest() -> list[dict]:
    """The invocations, each {"name": ..., "args": [...]}."""
    return json.loads((HERE / "manifest.json").read_text())


def invoke(args: list[str]) -> dict[str, str]:
    """{"stdout", "stderr", "exit"} of one in-process invocation."""
    try:
        runner = CliRunner(mix_stderr=False)
    except TypeError:  # click >= 8.2 always keeps stderr apart
        runner = CliRunner()
    result = runner.invoke(cli, args)
    if result.exit_code not in (0, 2, 3, 4):
        raise RuntimeError(f"{args}: exit {result.exit_code}") from result.exception
    return {"stdout": result.stdout, "stderr": result.stderr, "exit": f"{result.exit_code}\n"}


def expected(name: str) -> dict[str, str]:
    """The committed files of one case."""
    return {part: (CASES / f"{name}.{part}").read_text()
            for part in ("stdout", "stderr", "exit")}


def main() -> None:
    CASES.mkdir(exist_ok=True)
    for old in CASES.iterdir():
        old.unlink()
    for case in manifest():
        for part, text in invoke(case["args"]).items():
            (CASES / f"{case['name']}.{part}").write_text(text)


if __name__ == "__main__":
    main()
