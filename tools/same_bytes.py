"""Check that two source trees give the same output bytes.

    python3 tools/same_bytes.py OLD NEW [SEED ...]

OLD and NEW are source checkouts, each with its package under ``src/``.
For each workload of ``perfbench/workloads.py`` and each seed (default
1 2 3), the workload's input files are prepared and its commands run once
under each tree, as ``python3 -m burgerslab`` with that tree's ``src`` on
PYTHONPATH, in the same working directory so that paths in the commands
match.  Every output file, each command's exit code, standard output and
standard error, and each manifest with its timings removed must be equal.
The timings are a manifest's ``wall_clock_seconds``, each replicate's
``wall_s`` and each chaos eps's ``sampling_s``; the rest of a manifest (the
per-run steps and blow-up times, ``qv_limit_final``, Lambda's provenance,
the digests of the outputs) is compared as it is.

One line is printed per (workload, seed); the exit code is 1 on any
difference, else 0.  Only the standard library is used, and the workload
definitions are imported read-only from this checkout's ``perfbench/``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import workloads  # noqa: E402

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def without_timings(manifest):
    """The bytes of a manifest's JSON with its timings removed (see the
    module docstring), keys sorted."""
    data = json.loads(manifest)
    data.pop("wall_clock_seconds", None)
    for row in data.get("replicates", ()):
        row.pop("wall_s", None)
    for row in data.get("per_eps", ()):
        row.pop("sampling_s", None)
    return json.dumps(data, indent=2, sort_keys=True).encode()


def run_tree(tree, workload, seed, workdir):
    """Run the workload's commands once under ``tree``; returns what they
    left, by name: each output file's bytes, a manifest's without its
    timings (named ``<file> without timings``), and each command's exit code
    and streams (named ``<label> exit code``, ``<label> stdout`` and
    ``<label> stderr``)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    plan = workloads.prepare(workload, seed, workdir)
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()), **SINGLE_THREAD)
    got = {}
    for label, argv in plan.commands:
        proc = subprocess.run(
            [sys.executable, "-m", "burgerslab", *argv], cwd=workdir, env=env, capture_output=True, timeout=1800
        )
        got[f"{label} exit code"] = str(proc.returncode).encode()
        got[f"{label} stdout"] = proc.stdout
        got[f"{label} stderr"] = proc.stderr
    for path in sorted(plan.out.iterdir()) if plan.out.exists() else ():
        if path.name.endswith("_manifest.json"):
            got[f"{path.name} without timings"] = without_timings(path.read_bytes())
        else:
            got[path.name] = path.read_bytes()
    return got


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="source tree of the reference")
    parser.add_argument("new", type=Path, help="source tree of the change")
    parser.add_argument("seeds", type=int, nargs="*", default=[1, 2, 3], help="workload seeds (default 1 2 3)")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "burgerslab").is_dir():
            parser.error(f"{tree} has no src/burgerslab")
    differs = False
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as scratch:
        workdir = Path(scratch) / "work"
        for workload in workloads.NAMES:
            for seed in args.seeds:
                old = run_tree(args.old, workload, seed, workdir)
                new = run_tree(args.new, workload, seed, workdir)
                bad = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
                if bad:
                    differs = True
                    print(f"{workload} seed {seed}: DIFFERENT in {', '.join(bad)}")
                else:
                    print(f"{workload} seed {seed}: identical in {len(old)} items: {', '.join(sorted(old))}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
