"""Self-test of the benchmark: references, checkers and output format.

    python3 perfbench/selftest.py

* the fast references agree with ``mpmath.polylog`` at 30 digits, within
  their own error estimates;
* every checker accepts the library's real answers and rejects a
  deliberately wrong one (a fugacity off by 1e-6 relative, an h value
  outside its certified bound, a broken heat trace or occupancy sum, a
  shifted disk level);
* the first ops of every workload are not refused, while a Bose grid of
  the specfun probe that passes 1 - 1e-6 is;
* an op that raises anything but the library's ConfinedGasError makes the
  run incorrect, while a library refusal only counts as failed;
* a tiny run of every workload, plain and traced, prints every metric of
  BENCHMARK.json with its unit;
* in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits non-zero without printing a result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, _check_disk_zeros  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def check_references() -> None:
    print("references against mpmath.polylog at 30 digits")
    rng = random.Random(7)
    for stat in ("bose", "fermi"):
        if stat == "bose":
            zs = [1.0 - 10.0 ** rng.uniform(-12, -0.01) for _ in range(40)] + [0.3, 0.5, 0.5000001]
        else:
            zs = [10.0 ** rng.uniform(-4, 5) for _ in range(40)] + [0.9, 0.9000001, 20.0, 20.000001]
        for twice in reference.ALL_ORDERS:
            worst_ratio = worst_rel = 0.0
            for z in zs:
                with mpmath.workdps(30):
                    exact = reference.h_mp(stat, twice, z)
                value, est = reference.h(stat, twice, z)
                err = float(abs(mpmath.mpf(value) - exact))
                worst_rel = max(worst_rel, err / float(abs(exact)))
                worst_ratio = max(worst_ratio, err / est if est > 0 else (0.0 if err == 0 else 9e9))
            expect(worst_ratio <= 1.0 and worst_rel <= 1e-12,
                   f"{stat} order {twice}/2: worst rel error {worst_rel:.1e}, "
                   f"error/estimate {worst_ratio:.2f}")


def _first_ops(name: str, count: int, seed: int = 11):
    return [op for op, _ in zip(WORKLOADS[name].generator(np.random.default_rng(seed)),
                                range(count))]


def check_tables(lib) -> None:
    for name in ("table-fermi-degenerate", "table-bose-condensation"):
        print(f"{name} checker")
        w = WORKLOADS[name]
        for op in _first_ops(name, 8):
            try:
                out = worker.run_table(lib, op.inputs)
            except lib.errors.ConfinedGasError as exc:
                expect(False, f"library refused a {op.label} row with {type(exc).__name__}")
                continue
            expect(w.check(op, out) is None, f"accepts the library's row at z={out[0]!r}")
            z_off = out[0] * (1.0 + 1e-6)
            expect(w.check(op, (z_off,) + out[1:]) is not None, "rejects z off by 1e-6 relative")
            expect(w.check(op, out[:3] + (out[3] * (1 + 1e-9),) + out[4:]) is not None,
                   "rejects S off by 1e-9 relative")


def check_specfun(lib) -> None:
    print("specfun-cli checker")
    w = WORKLOADS["specfun-cli"]
    tested = 0
    for op in _first_ops("specfun-cli", 40):
        out = worker.run_specfun(lib, op.inputs)
        if w.failure(out) is not None:
            expect(False, f"library refused {' '.join(op.inputs['args'][1:])}")
            continue
        tested += 1
        expect(w.check(op, out) is None, f"accepts {' '.join(op.inputs['args'][1:])}")
        lines = out["stdout"].splitlines()
        z, value, bound, method = lines[1].split(",")
        shifted = float(value) + 3.0 * float(bound) + 1e-12 * abs(float(value))
        bad = copy.deepcopy(out)
        bad["stdout"] = "\n".join([lines[0], f"{z},{shifted!r},{bound},{method}"] + lines[2:])
        expect(w.check(op, bad) is not None, "rejects a value outside its certified bound")
        loose = copy.deepcopy(out)
        loose["stdout"] = "\n".join([lines[0], f"{z},{value},1e-6,{method}"] + lines[2:])
        expect(w.check(op, loose) is not None, "rejects a bound that misses the 1e-10 contract")
        if tested == 6:
            break
    refused = next(op for op in w.probe(np.random.default_rng(11))
                   if op.expect["twice"] == 5 and op.expect["grid"][1] > 1.0 - 1e-6)
    expect(w.failure(worker.run_specfun(lib, refused.inputs)) is not None,
           "counts a Bose grid past 1 - 1e-6 as a failure")


def check_oracle(lib) -> None:
    print("oracle-spectra checker")
    w = WORKLOADS["oracle-spectra"]
    ops = _first_ops("oracle-spectra", 5)
    disk, rect = ops[0], ops[1]
    for op in (disk, rect):
        out = worker.run_oracle(lib, op.inputs)
        expect(w.check(op, out) is None, f"accepts the {op.label} spectrum")
        bad = dict(out, thetas=[out["thetas"][0] + 0.1] + out["thetas"][1:])
        expect(w.check(op, bad) is not None, "rejects a heat trace 0.1 off")
        bad = dict(out, z_exact=out["z_exact"] * (1.0 + 1e-6))
        expect(w.check(op, bad) is not None, "rejects exact occupancies that miss N")
        row = out["row"]
        bad = dict(out, row=row[:3] + (row[3] * (1 + 1e-9),) + row[4:])
        expect(w.check(op, bad) is not None, "rejects thermo_2d with S != (U-F)/T")
    out = worker.run_oracle(lib, disk.inputs)
    mu = out["mu"].copy()
    mu[len(mu) // 2] *= 1.0 + 1e-9
    expect(_check_disk_zeros(disk.inputs["shape"][1], disk.inputs["cutoff"], mu, out["mult"])
           is not None, "rejects a disk level 1e-9 away from scipy's Bessel zero")


def check_unexpected_errors(lib) -> None:
    print("failure accounting")
    w = WORKLOADS["table-fermi-degenerate"]
    for raised, counts_wrong in ((ZeroDivisionError("float division by zero"), True),
                                 (lib.errors.NoBracketError("no bracket"), False)):
        def call(lib, inputs, raised=raised):
            time.sleep(0.01)  # so that one chunk fills the loop's time
            raise raised

        executor = run.InProcess(w, lib)
        executor.call = call
        record = run.Pass(w)
        run.Loop(w, executor, 1, keep_ops=False).run_for(0.05, record)
        n = len(record.verdicts)
        failed = sum(1 for v in record.verdicts if not v[0])
        name = type(raised).__name__
        expect(n >= 1 and failed == n and record.wrong == (n if counts_wrong else 0),
               f"an op raising {name}: {failed} of {n} failed, {record.wrong} wrong, "
               f"so correct is {record.wrong == 0}")


def _run(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_runs() -> None:
    print("tiny runs print every metric with its unit")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)], ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            numeric = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                          for v in result.get("metrics", {}).values())
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and got == want and numeric and result["attempted"] >= 1,
                   f"{w['name']} --trace {trace}: {len(got)} metrics, correct "
                   f"{result.get('correct')}, exit {proc.returncode}")
            if trace == 0:
                report = "\n".join(lines[:-1])
                expect(all(f"{m['name']} " in report for m in spec[kind])
                       and "failed_share" in report,
                       f"{w['name']}: report names every end-to-end metric and failed_share")


def check_bare_directory() -> None:
    print("a directory without the library")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "specfun-cli", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], tmp)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"exits {proc.returncode} without printing a result")


def main() -> int:
    lib = worker.load_library(run.SRC, set().union(*worker.MODULES.values()))
    check_references()
    check_tables(lib)
    check_specfun(lib)
    check_oracle(lib)
    check_unexpected_errors(lib)
    check_runs()
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
