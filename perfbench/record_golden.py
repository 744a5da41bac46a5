"""Record sha256 digests of the CLI's outputs into golden.json.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_golden.py

For every workload and seeds 0..9 it runs the CLI once, refuses to record
if the oracle disagrees with it, and rewrites golden.json. The benchmark
then checks the oracle against these digests whenever it runs one of
those seeds. Re-record only when a change to the workloads or the oracle
is meant to change the expected bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout

import run
import workloads

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.environ["KNN_SWEEP_THREADS"] = str(len(os.sched_getaffinity(0)))
    import knnsweep
    import knnsweep.cli as cli

    workdir = run.ROOT / ".perfbench_work" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    digests: dict = {}
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                inputs = workloads.generate(name, seed, workdir)
                argv, outs = workloads.argv_for(name, inputs, workdir)
                stdout = io.StringIO()
                with redirect_stdout(stdout):
                    code = cli.main(argv)
                got = {"stdout": stdout.getvalue().encode(),
                       **{key: path.read_bytes() for key, path in outs.items()}}
                expected, _ = run.expected_outputs(name, inputs)
                if code != 0 or got != expected:
                    print(f"{name} seed {seed}: CLI and oracle disagree; nothing recorded",
                          file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = {
                    key: hashlib.sha256(data).hexdigest() for key, data in got.items()}
                print(f"{name} seed {seed}: recorded")
    finally:
        run.remove_workdir(workdir)
    version = getattr(knnsweep, "__version__", "unknown")
    (run.BENCH_DIR / "golden.json").write_text(json.dumps({
        "about": f"sha256 of the CLI's stdout and output files, recorded from knnsweep "
                 f"{version} at the commit that defined this benchmark, per workload and seed",
        "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
