"""knnsweep benchmark: CLI job time, set-up time and memory, with a traced mode.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_kd_d3 --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` (see workloads.py) into
a scratch directory inside the checkout, then the real CLI path,
``knnsweep.cli.main(argv)``, runs in this process, one job after another
(a closed loop with one client), for ``--seconds``. Every job's stdout and
output files are compared byte for byte with the oracle's (oracle.py) and,
for the seeds in golden.json, with digests recorded from the CLI at the
commit that defined the benchmark.

``--trace 0`` reports the end-to-end metrics:
  job_s        median wall seconds of one CLI job, argv to last file written
  setup_s      median wall seconds for a fresh interpreter to import knnsweep.cli
  peak_rss_mb  peak resident memory of a child process that runs one job only
Both timings are scaled to reference speed: each job and each import is
bracketed by calibrate.reference(), and its wall time is multiplied by
REFERENCE_S over the mean of the two reference times. The raw medians are
printed on the summary lines above the result.
``--trace 1`` alternates untraced jobs with jobs traced by spans.py and
reports the per-layer metrics of the median traced job, unscaled.

The last line of stdout is the JSON result; ``failed / attempted`` is the
error rate. KNN_SWEEP_THREADS is pinned to the number of usable CPUs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np

import calibrate
import oracle
import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60.0
_IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import knnsweep.cli"
_RUN_CLI = """import sys
sys.path.insert(0, sys.argv[1])
from knnsweep.cli import main
code = main(sys.argv[3:])
with open("/proc/self/status") as fh:
    kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
with open(sys.argv[2], "w") as fh:
    fh.write(kib)
sys.exit(code)
"""


class Job:
    """One workload's CLI invocation and the bytes it must produce."""

    def __init__(self, cli, argv, outs, expected):
        self.cli, self.argv, self.outs, self.expected = cli, argv, outs, expected
        self.attempted = 0
        self.failed = 0

    def mismatches(self, stdout: bytes) -> list[str]:
        """Names of the outputs whose bytes differ from the expected ones."""
        bad = [] if stdout == self.expected["stdout"] else ["stdout"]
        for key, path in self.outs.items():
            data = path.read_bytes() if path.is_file() else None
            if data != self.expected[key]:
                bad.append(key)
        return bad

    def record(self, code, stdout: bytes, stderr: str) -> None:
        self.attempted += 1
        bad = self.mismatches(stdout)
        if code != 0 or bad:
            self.failed += 1
            print(f"job failed: exit={code} differing={bad} stderr={stderr.strip()[-500:]!r}",
                  file=sys.stderr)

    def run(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run the job in this process; return (wall s, CPU s), checked afterwards."""
        for path in self.outs.values():
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    code = self.cli.main(self.argv)
                else:
                    code = tracer.call("cli.main", self.cli.main, self.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # any crash is one failed job, not a dead benchmark
                code = "exception"
                traceback.print_exc(file=err)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.record(code, out.getvalue().encode(), err.getvalue())
        return wall, cpu

    def run_child(self, workdir: Path) -> float:
        """Run the job alone in a fresh interpreter; return its peak RSS in MiB.

        The child reads its own VmHWM: the kernel's ru_maxrss for a child
        also counts the parent's memory at fork, which would hide the job's.
        """
        for path in self.outs.values():
            path.unlink(missing_ok=True)
        hwm_path = workdir / "child.vmhwm"
        try:
            proc = subprocess.run([sys.executable, "-c", _RUN_CLI, str(SRC), str(hwm_path),
                                   *self.argv], capture_output=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            code, stdout, stderr = "timeout", b"", ""
        self.record(code, stdout, stderr)
        return int(hwm_path.read_text()) / 1024.0 if hwm_path.is_file() else float("nan")

    def canary(self, seed: int) -> bool:
        """Flip one byte of an output the last job wrote; the check must notice."""
        key, path = next(iter(self.outs.items()))
        data = bytearray(path.read_bytes())
        pos = seed % len(data)
        data[pos] ^= 0x01
        path.write_bytes(bytes(data))
        caught = key in self.mismatches(self.expected["stdout"])
        print(f"checker canary: flipped byte {pos} of {key}: "
              f"{'reported as a mismatch' if caught else 'NOT DETECTED'}")
        return caught


def at_reference_speed(measure, more) -> tuple[list[float], list[float]]:
    """Call ``measure`` while ``more(calls so far)``, timing calibrate.reference()
    before and after each call; return (walls, walls at reference speed)."""
    walls, scaled = [], []
    before = calibrate.reference()
    while more(len(walls)):
        wall = measure()
        after = calibrate.reference()
        walls.append(wall)
        scaled.append(wall * calibrate.REFERENCE_S * 2.0 / (before + after))
        before = after
    return walls, scaled


def import_cli() -> float:
    """Wall seconds for a fresh interpreter to import the CLI module."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _IMPORT_CLI, str(SRC)], cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def expected_outputs(name: str, inputs: workloads.Inputs):
    """The oracle's bytes for this workload and the share of its special inputs."""
    w = workloads.WORKLOADS[name]
    if w.command == "sweep":
        return oracle.expected_sweep(inputs.train_x, inputs.train_y, k_max=w.k), {}
    if w.command == "predict":
        exp, share = oracle.expected_predict(inputs.train_x, inputs.train_y, inputs.query_x, w.k)
        return exp, {"exact_match_query_share": share}
    exp, share = oracle.expected_density(inputs.train_x, inputs.query_x, w.k)
    return exp, {"zero_radius_query_share": share}


def golden_ok(name: str, seed: int, expected: dict) -> bool:
    """Compare the oracle with CLI digests recorded for this seed, if any."""
    recorded = json.loads((BENCH_DIR / "golden.json").read_text())["digests"]
    digests = recorded.get(name, {}).get(str(seed))
    if digests is None:
        return True
    actual = {k: hashlib.sha256(v).hexdigest() for k, v in expected.items()}
    if actual != digests:
        print(f"oracle disagrees with the recorded digests for seed {seed}", file=sys.stderr)
        return False
    print(f"oracle matches the CLI digests recorded for seed {seed}")
    return True


def remove_workdir(workdir: Path) -> None:
    """Delete a run's scratch directory, and its parent once that is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
        workdir.parent.rmdir()


def source_loc() -> int:
    """Non-blank lines of the package's Python source."""
    return sum(1 for path in (SRC / "knnsweep").rglob("*.py")
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def _describe(name: str, walls: list[float], scaled: list[float]) -> None:
    print(f"{name}: median {statistics.median(scaled):.4f} s at reference speed, "
          f"{statistics.median(walls):.4f} s measured, over {len(walls)} samples "
          f"(measured min {min(walls):.4f}, max {max(walls):.4f})")


def timed_phase(job: Job, seconds: float, workdir: Path) -> dict[str, float]:
    setup = at_reference_speed(import_cli, lambda n: n < SETUP_SAMPLES)
    rss = job.run_child(workdir)
    deadline = time.perf_counter() + seconds
    jobs = at_reference_speed(lambda: job.run()[0],
                              lambda n: n < 3 or time.perf_counter() < deadline)
    _describe("job_s", *jobs)
    _describe("setup_s", *setup)
    print(f"peak_rss_mb: {rss:.1f} MiB")
    return {"job_s": statistics.median(jobs[1]), "setup_s": statistics.median(setup[1]),
            "peak_rss_mb": rss}


def traced_phase(job: Job, seconds: float) -> dict[str, float]:
    walls, cpus, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        wall, cpu = job.run()
        walls.append(wall)
        cpus.append(cpu)
        tracer = Tracer()
        tracer.install()
        try:
            job.run(tracer)
        finally:
            tracer.uninstall()
        traced.append(tracer.summary())
    # Report one whole job, the median by traced time, so its parts add up.
    traced.sort(key=lambda s: s["cli.main.s"])
    layers = dict(traced[(len(traced) - 1) // 2])
    job_s = statistics.median(walls)
    layers["process.cpu_s"] = statistics.median(cpus)
    layers["trace.overhead_frac"] = layers["cli.main.s"] / job_s - 1.0
    layers["static.src_loc"] = source_loc()
    parts = {k: v for k, v in layers.items() if k.endswith(".self_s") and k.count(".") == 1}
    print(f"traced job {layers['cli.main.s']:.4f} s (median of {len(traced)}), "
          f"untraced {job_s:.4f} s (median of {len(walls)}); self times:")
    for key, value in parts.items():
        print(f"  {key:18s} {value:9.4f} s  {value / layers['cli.main.s']:6.1%}")
    print(f"  {'sum':18s} {sum(parts.values()):9.4f} s")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "knnsweep" / "cli.py").is_file():
        print(f"error: no knnsweep source under {SRC}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    os.environ["KNN_SWEEP_THREADS"] = str(threads)
    sys.path.insert(0, str(SRC))
    import knnsweep
    import knnsweep.cli as cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = {
        "nproc": threads,
        "KNN_SWEEP_THREADS": os.environ["KNN_SWEEP_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "knnsweep": getattr(knnsweep, "__version__", "unknown"),
        "platform": platform.platform(),
        "load": "closed loop: one process runs one CLI job at a time, "
                "with at most nproc threads",
    }
    print("env " + json.dumps(env))

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.generate(args.workload, args.seed, workdir)
        expected, special = expected_outputs(args.workload, inputs)
        record = {**asdict(workloads.WORKLOADS[args.workload]), "seed": args.seed,
                  "measured": special}
        print("workload " + json.dumps(record))
        checks_ok = golden_ok(args.workload, args.seed, expected)
        argv_job, outs = workloads.argv_for(args.workload, inputs, workdir)
        job = Job(cli, argv_job, outs, expected)
        job.run()  # warm-up; a fresh process's costs show in setup_s and peak_rss_mb
        checks_ok &= job.canary(args.seed)
        if args.trace:
            values = traced_phase(job, args.seconds)
        else:
            values = timed_phase(job, args.seconds, workdir)
    finally:
        remove_workdir(workdir)

    print(f"error_rate: {job.failed / job.attempted:.4f} "
          f"({job.failed} of {job.attempted} jobs failed)")
    result = {
        "correct": bool(checks_ok and job.failed == 0),
        "attempted": job.attempted,
        "failed": job.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
