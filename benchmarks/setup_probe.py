"""Start-up cost in a fresh process: import ecs_diqkd, then make a workload's first call.

Usage: ``python3 setup_probe.py '[KIND, SPEC]'`` with the package's source
directory on PYTHONPATH.  KIND is cli, sweep, point or oracle.  Prints the
import and first-call times it measured as one JSON object; the caller times
the whole process, interpreter start included.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout


def main() -> int:
    start = time.perf_counter()
    kind, spec = json.loads(sys.argv[1])
    if kind == "cli":
        from ecs_diqkd import cli

        imported = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            ok = cli.main(spec) == 0
    elif kind == "sweep":
        from ecs_diqkd import optimize

        imported = time.perf_counter()
        ok = len(optimize.sweep(optimize.SweepConfig(**spec))) == 1
    elif kind == "point":
        from ecs_diqkd import optimize, rates

        imported = time.perf_counter()
        mu, distance, beta, eta_d, p_d, e_d = spec
        eta = rates.channel_efficiency(distance, beta, eta_d)
        rates.key_rate(rates.ecs_misaligned_stats(mu, eta, p_d, e_d))
        ok = not optimize.optimize_mu(distance, beta, eta_d, p_d, e_d).rate_star < 0.0
    elif kind == "oracle":
        from ecs_diqkd import oracle

        imported = time.perf_counter()
        ok = oracle.verify_grid(points=[tuple(spec)]).passed
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "first_call_s": done - imported}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
