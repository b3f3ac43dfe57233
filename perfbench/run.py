"""Benchmark runner for confinedgas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop with a single client for ``--seconds``
of loop wall time, on one thread.  The library calls run in a worker process
(``worker.py``) that imports nothing but the workload's modules from
``src/`` next to this directory, so its peak memory is the program's.
Inputs are generated from the seed in chunks outside the timed window, and
each chunk's answers are checked against mpmath right after it, also outside
the timed window.  Fresh-interpreter imports, for ``setup_s``, are spread
through the run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it are a readable report.
"""

from __future__ import annotations

import os

# One thread: no BLAS or OpenMP pools, and the library's own pool is off.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONFINEDGAS_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter imports per run, taken at even steps of loop wall time.
SETUP_SAMPLES = 9
DIGEST_HEAD = 16
#: Loop times are scaled to a machine on which ``worker.calibration_kernel``
#: takes this long (about its median on a 2-core Xeon VM).
CALIBRATION_REF_S = 2.0e-3
#: Calibration samples in the rolling median that scales a chunk.
CALIBRATION_WINDOW = 5


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def import_code(workload) -> str:
    modules = ", ".join(worker.MODULES[workload.name])
    return f"import sys; sys.path.insert(0, {str(SRC)!r}); import {modules}"


def measure_setup(workload) -> float:
    """Wall time of one fresh interpreter importing the workload's modules."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", import_code(workload)], cwd=ROOT,
                   env=os.environ.copy(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                   timeout=120, check=True)
    return time.perf_counter() - t0


class WorkerProcess:
    """The worker process that runs the timed ops (see ``worker.py``)."""

    def __init__(self, workload):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload.name, str(SRC)],
            cwd=ROOT, env=os.environ.copy(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self._receive() != "ready":
            raise SystemExit("perfbench: the worker did not start")

    def _receive(self):
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            self.proc.kill()
            self.proc.wait()
            raise SystemExit(f"perfbench: the worker exited with code {self.proc.returncode}")

    def _send(self, message) -> None:
        pickle.dump(message, self.proc.stdin)
        self.proc.stdin.flush()

    def run_chunk(self, chunk: list[dict], budget: float):
        self._send((chunk, budget))
        return self._receive()

    def close(self) -> float:
        """Stop the worker; returns its peak resident set in MB."""
        self._send(None)
        peak_kb = self._receive()
        self.proc.stdin.close()
        self.proc.stdout.close()
        if self.proc.wait(timeout=60) != 0:
            raise SystemExit(f"perfbench: the worker exited with code {self.proc.returncode}")
        return peak_kb / 1024.0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class InProcess:
    """Runs ops in this process."""

    def __init__(self, workload, lib):
        self.lib = lib
        self.call = worker.CALLS[workload.name]

    def run_chunk(self, chunk: list[dict], budget: float):
        return worker.run_chunk(self.lib, self.call, chunk, budget)


def clear_caches(lib) -> None:
    """Empty the library's memo caches so a replay starts as cold as the loop."""
    for module in vars(lib).values():
        for value in list(getattr(module, "__dict__", {}).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Pass:
    """Verdicts and answer digests of one pass over the ops, kept as the
    pass goes so that no answer is held after it has been checked."""

    def __init__(self, workload):
        self.workload = workload
        self.verdicts: list[tuple] = []  # (ok, error, latency, raw latency, wrong)
        self.failures: Counter = Counter()
        self._head = hashlib.sha256()
        self._full = hashlib.sha256()
        self.levels = 0
        self.build_s = 0.0
        self.bytes_out = 0

    def add(self, op, out, err, latency: float, scale: float) -> None:
        text = f"error:{err}" if err else self.workload.digest(out)
        for h in (self._head, self._full) if len(self.verdicts) < DIGEST_HEAD else (self._full,):
            h.update(text.encode() + b"\n")
        wrong = err is not None and err.startswith(worker.UNEXPECTED)
        if err is None:
            refusal = getattr(self.workload, "failure", None)
            err = refusal(out) if refusal else None
        if err is None:
            reason = self.workload.check(op, out)
            if reason is not None:
                err, wrong = f"check: {reason}", True
        if err is None and isinstance(out, dict):
            self.levels += out.get("levels", 0)
            self.build_s += out.get("build_s", 0.0)
            self.bytes_out += len(out.get("stdout", "").encode())
        if err is not None:
            self.failures[(op.label, err.split(" at z=")[0])] += 1
        self.verdicts.append((err is None, err, latency * scale, latency, wrong))

    @property
    def digests(self) -> tuple[str, str]:
        return self._head.hexdigest()[:16], self._full.hexdigest()[:16]

    @property
    def wrong(self) -> int:
        return sum(1 for v in self.verdicts if v[4])


class Loop:
    """Closed loop, one client: the next op starts when the last returns."""

    def __init__(self, workload, executor, seed: int, keep_ops: bool):
        self.workload = workload
        self.executor = executor
        rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
        self.source = workload.generator(rng)
        self.keep_ops = keep_ops
        self.ops: list = []
        self.generate_s = 0.0
        self.check_s = 0.0
        self.calibration: list[float] = []
        self.setup: list[float] = []

    def run_for(self, seconds: float, record: Pass, setup_samples: int = 0) -> tuple[float, float]:
        """Run new ops until the loop wall time reaches ``seconds``, taking
        ``setup_samples`` fresh imports at even steps of loop wall time.

        Returns the wall time and the calibrated wall time of the loop.
        """
        wall = scaled = 0.0
        while wall < seconds:
            while len(self.setup) < setup_samples * wall / seconds:
                self.setup.append(measure_setup(self.workload))
            t0 = time.perf_counter()
            chunk = [next(self.source) for _ in range(self.workload.chunk)]
            self.generate_s += time.perf_counter() - t0
            results, elapsed, calibration = self.executor.run_chunk(
                [op.inputs for op in chunk], seconds - wall)
            self.calibration.append(calibration)
            scale = CALIBRATION_REF_S / statistics.median(
                self.calibration[-CALIBRATION_WINDOW:])
            wall += elapsed
            scaled += elapsed * scale
            t0 = time.perf_counter()
            for op, (out, err, latency) in zip(chunk, results):
                record.add(op, out, err, latency, scale)
            self.check_s += time.perf_counter() - t0
            if self.keep_ops:
                self.ops.extend(chunk[:len(results)])
        while len(self.setup) < setup_samples:
            self.setup.append(measure_setup(self.workload))
        return wall, scaled

    def replay(self, record: Pass, lib, tracer=None) -> float:
        """Run the kept ops again in this process (traced when ``tracer`` is
        given)."""
        call = worker.CALLS[self.workload.name]
        results = []
        t_start = time.perf_counter()
        for i, op in enumerate(self.ops):
            wrap = None if tracer is None else (lambda fn, *args, i=i: tracer.call(i, fn, *args))
            results.append(worker.execute(lib, call, op.inputs, wrap))
        wall = time.perf_counter() - t_start
        for op, (out, err, latency) in zip(self.ops, results):
            record.add(op, out, err, latency, 1.0)
        return wall


def tail_index(n: int) -> int:
    """Index (ascending order) of the tail percentile: p98, or the highest
    percentile with at least 10 ops above it when a run has under 550 ops."""
    return max(0, min(n - 11, math.ceil(0.98 * n) - 1))


def latency_summary(verdicts, column: int = 2) -> dict:
    lat = sorted(v[column] for v in verdicts)
    n = len(lat)
    k = tail_index(n)
    # Failure-ranked reading: every failure ranks above every success.
    ranked = sorted((0 if v[0] else 1, v[column]) for v in verdicts)

    def reading(i):
        return "failed" if ranked[i][0] else f"{ranked[i][1] * 1e3:.6g} ms"

    return {"n": n, "p50_ms": statistics.median(lat) * 1e3, "tail_ms": lat[k] * 1e3,
            "tail_pct": 100.0 * (k + 1) / n, "above": n - k - 1,
            "ranked_p50": reading((n - 1) // 2), "ranked_tail": reading(k)}


def report(lines: list[str], label: str, value, unit: str, note: str = "") -> None:
    lines.append(f"  {label:<14} {value!r:>24} {unit:<5} {note}")


def timed_run(workload, seconds: float, seed: int, out: list[str]):
    """Untraced run in the worker process.  Returns (values, record, wrong)."""
    executor = WorkerProcess(workload)
    try:
        loop = Loop(workload, executor, seed, keep_ops=False)
        record = Pass(workload)
        wall, scaled_wall = loop.run_for(seconds, record, SETUP_SAMPLES)
        peak_rss_mb = executor.close()
    finally:
        executor.kill()
    verdicts = record.verdicts
    lat = latency_summary(verdicts)
    raw = latency_summary(verdicts, column=3)
    n_ok = sum(1 for v in verdicts if v[0])
    setup = loop.setup
    cal = loop.calibration
    # Import time follows the host's speed as the calibration kernel does.
    setup_scale = CALIBRATION_REF_S / statistics.median(cal)
    values = {
        "setup_s": statistics.median(setup) * setup_scale,
        "ops_per_s": n_ok / scaled_wall,
        "op_p50_ms": lat["p50_ms"],
        "op_tail_ms": lat["tail_ms"],
        "ok_share": n_ok / len(verdicts),
        "peak_rss_mb": peak_rss_mb,
    }
    out.append(f"  {len(verdicts)} ops attempted in {wall:.6g} s loop wall time; outside it "
               f"{loop.generate_s:.3g} s generating inputs, {loop.check_s:.3g} s checking, "
               f"{sum(setup):.3g} s in fresh imports")
    out.append(f"  calibration kernel: median {statistics.median(cal) * 1e3:.4g} ms over "
               f"{len(cal)} chunks (range {min(cal) * 1e3:.4g}-{max(cal) * 1e3:.4g} ms); "
               f"loop times below are scaled to {CALIBRATION_REF_S * 1e3:g} ms. Unscaled: "
               f"{n_ok / wall:.6g} ops/s, p50 {raw['p50_ms']:.6g} ms, "
               f"tail {raw['tail_ms']:.6g} ms")
    report(out, "setup_s", values["setup_s"], "s",
           f"median of {len(setup)} fresh imports through the run, scaled by the run's "
           f"median calibration; unscaled {[round(s, 4) for s in setup]}")
    report(out, "ops_per_s", values["ops_per_s"], "1/s", f"{n_ok} checked ops")
    report(out, "op_p50_ms", values["op_p50_ms"], "ms",
           f"n={lat['n']}; failure-ranked: {lat['ranked_p50']}")
    report(out, "op_tail_ms", values["op_tail_ms"], "ms",
           f"p{lat['tail_pct']:.4g} of n={lat['n']} ({lat['above']} ops above); "
           f"failure-ranked: {lat['ranked_tail']}")
    report(out, "failed_share", 1.0 - values["ok_share"], "1",
           f"{len(verdicts) - n_ok} of {len(verdicts)}")
    report(out, "ok_share", values["ok_share"], "1")
    report(out, "peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of the worker process")
    if record.build_s:
        report(out, "levels_per_s", record.levels / record.build_s, "1/s",
               f"{record.levels} levels in {record.build_s:.4g} s of spectrum construction")
    return values, record, record.wrong


def defect_probe(workload, lib, seed: int, out: list[str]) -> tuple[dict, int]:
    """Run the workload's probe states once, untimed, and count refusals.

    The probe holds states inside the library's documented domain that it
    refuses today (see the workload's ``probe``), so a known defect stays
    visible although no timed op may fail.  Returns the two
    ``defects.*`` metrics and the number of wrong answers.
    """
    record = Pass(workload)
    probe = getattr(workload, "probe", None)
    if probe is not None:
        rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name), 1])
        call = worker.CALLS[workload.name]
        for op, _ in zip(probe(rng), range(workload.probe_ops)):
            record.add(op, *worker.execute(lib, call, op.inputs), 1.0)
    n = len(record.verdicts)
    refused = sum(1 for v in record.verdicts if not v[0])
    kinds = ", ".join(f"[{label}] {err}: {count}"
                      for (label, err), count in sorted(record.failures.items()))
    if probe is None:
        out.append("  defect probe: none for this workload")
    else:
        out.append(f"  defect probe, untimed: {refused} of {n} in-domain states refused"
                   + (f" ({kinds})" if kinds else ""))
    return {"defects.probe_ops": n, "defects.probe_refused": refused}, record.wrong


def traced_run(workload, seconds: float, seed: int, out: list[str]):
    """Traced run: import breakdown, spans over a replay of the ops, and the
    defect probe."""
    values = tracing.import_breakdown(sys.executable, import_code(workload),
                                      os.environ.copy(), str(ROOT))
    lib = worker.load_library(SRC, worker.MODULES[workload.name])
    # A third of the time picks the ops; they are then replayed traced and
    # untraced, each from empty caches, and the difference is the overhead.
    loop = Loop(workload, InProcess(workload, lib), seed, keep_ops=True)
    first = Pass(workload)
    loop.run_for(seconds / 3.0, first)
    clear_caches(lib)
    record = Pass(workload)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        wall = loop.replay(record, lib, tracer)
    finally:
        tracer.uninstall()
    clear_caches(lib)
    plain = Pass(workload)
    plain_wall = loop.replay(plain, lib)
    metrics, extra = tracing.layer_metrics(tracer.spans, record.bytes_out)
    values.update(metrics)
    values["trace.overhead_s"] = wall - plain_wall
    values["trace.overhead_share"] = (wall - plain_wall) / plain_wall
    out.append(f"  traced replay of {len(loop.ops)} ops: {wall:.6g} s traced, "
               f"{plain_wall:.6g} s untraced, overhead {wall - plain_wall:+.6g} s; "
               f"{extra['spans']} spans")
    out.append(f"  h routes {extra['routes']}; raised {extra['raised']}")
    probe_values, probe_wrong = defect_probe(workload, lib, seed, out)
    values.update(probe_values)
    for name, value in values.items():
        out.append(f"  {name:<34} {value!r}")
    agree = first.digests == record.digests == plain.digests
    out.append(f"  answers identical across the three passes: {agree}")
    return values, record, first.wrong + record.wrong + plain.wrong + probe_wrong + (not agree)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    out = [f"perfbench {workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}",
           f"  why: {why}",
           "  env: " + ", ".join(f"{k} {v}" for k, v in environment(args.seed).items()),
           "  closed loop, 1 client, 1 thread, inputs generated outside the timed window"]
    run = traced_run if args.trace else timed_run
    values, record, wrong = run(workload, args.seconds, args.seed, out)

    for (label, err), count in sorted(record.failures.items()):
        out.append(f"  failures [{label}] {err}: {count}")
    head, full = record.digests
    n = len(record.verdicts)
    out.append(f"  answer digest: first {min(DIGEST_HEAD, n)} ops {head}, all {n} ops {full}")
    print("\n".join(out))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": n,
        "failed": sum(1 for v in record.verdicts if not v[0]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
