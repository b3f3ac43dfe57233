"""Regenerate the golden CLI corpus.

    python tests/golden/regenerate.py

Runs every invocation of ``manifest.json`` in process through
``confinedgas.cli.main`` (``run``), as ``tests/test_golden.py`` replays it,
and writes its stdout, stderr and exit code to ``cases/<name>.stdout``,
``.stderr`` and ``.exit``.  A change that moves output bytes regenerates the
corpus and explains each changed file.  ``tests/test_cli.py`` runs its
commands through ``run`` too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases"
sys.path.insert(0, str(HERE.parents[1] / "src"))

from confinedgas.cli import main as cli  # noqa: E402


@dataclasses.dataclass
class Result:
    """What one in-process invocation printed and how it ended."""

    exit_code: int
    stdout: str
    stderr: str
    #: The SystemExit of a non-zero exit, or what the command raised instead.
    exception: BaseException | None

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def run(args) -> Result:
    """Run one command line through ``cli.main`` with stdout and stderr
    captured; the exit code is SystemExit's, or 1 for any other exception."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args=list(args), prog_name="confinedgas")
        except SystemExit as exc:
            code = exc.code
            exit_code = code if isinstance(code, int) else (0 if code is None else 1)
            exception = exc if exit_code else None
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            exit_code, exception = 1, exc
        else:
            exit_code = 0
    return Result(exit_code, out.getvalue(), err.getvalue(), exception)


def manifest() -> list[dict]:
    """The invocations, each {"name": ..., "args": [...]}."""
    return json.loads((HERE / "manifest.json").read_text())


def invoke(args: list[str]) -> dict[str, str]:
    """{"stdout", "stderr", "exit"} of one in-process invocation."""
    result = run(args)
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
