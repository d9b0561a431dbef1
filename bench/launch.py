"""Start the measured processes for bench/run.py and report what each cost.

    python bench/launch.py

Reads one JSON job per line on stdin, ``{"argv", "stdin", "stdout",
"stderr", "timeout"}`` (the three streams are file paths), runs the command
with those files as its standard streams, reaps it with ``wait4`` and writes
one JSON line: ``{"rc", "wall", "cpu", "maxrss_kb"}``.  Exits when stdin
closes.

Why a process of its own: on Linux a child's ``ru_maxrss`` starts at the
resident size of the process that spawned it, and the benchmark client holds
every output in memory.  Spawned from this small process, ``maxrss_kb`` is
the request's own.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(job):
    with open(job["stdin"], "rb") as fin, open(job["stdout"], "wb") as fout, open(job["stderr"], "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdin=fin, stdout=fout, stderr=ferr)
        # os.kill, not proc.kill: proc.kill polls and could reap the child first
        timer = threading.Timer(job["timeout"], os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
