"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/probe_setup.py <workload> <workdir> <program seed>

Set-up is what a user pays before the first operation: importing
burgerslab, parsing the config and the scheme, validating the scheme and
resolving Lambda.  Prints {"setup_s": seconds} on one line.
"""

import json
import sys
import time
from pathlib import Path

import workloads as W


def main():
    workload, workdir, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    start = time.perf_counter()
    from burgerslab import cli  # noqa: F401  (the command-line entry point imports every module)

    if workload == "stationary":
        from burgerslab.schemes import identity_scheme, load_scheme_file

        schemes = [load_scheme_file(workdir / W.SCHEME_FILE), identity_scheme(1, 0)]
        if not all(s.validate().ok for s in schemes):
            return 1
    else:
        from burgerslab.integrator import resolve_lambda
        from burgerslab.runconfig import load_run_config

        spec = load_run_config(workdir / W.CONFIG_FILE)
        if not spec.scheme.validate().ok:
            return 1
        resolve_lambda(spec.sim_config(seed=seed))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
