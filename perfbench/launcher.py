"""Starts the CLI requests of the cli-desk workload.

A child's peak RSS as the kernel reports it includes the peak of the process
that forked it, so a large parent hides its children's size. This small
process starts every CLI request instead of the worker. Each line on stdin is
a JSON list: the argv after ``python -m timed_plactic``. Each reply line is a
JSON object with ``code``, base64 ``stdout``/``stderr`` and the wall time
``ms`` from spawn to exit. A request that runs longer than the timeout is
killed and gets ``code`` null. At end of input the last line is
``{"maxrss_kb": ...}``, the peak RSS of the largest child.

Usage: launcher.py TIMEOUT_S
"""

import base64
import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> int:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        argv = [sys.executable, "-m", "timed_plactic", *json.loads(line)]
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=timeout)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = None, exc.stdout or b"", exc.stderr or b""
        ms = (perf_counter() - t0) * 1e3
        reply = {
            "code": code,
            "stdout": base64.b64encode(out).decode(),
            "stderr": base64.b64encode(err).decode(),
            "ms": ms,
        }
        print(json.dumps(reply), flush=True)
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
