"""Spawns the benchmark's children one at a time and reports each one's wall
time and its own rusage.

Reads one JSON request per line on stdin: ``cmd``, ``stdout``, ``stderr``
(file paths) and ``kill_after`` (seconds).  Writes one JSON reply per line:
``start`` and ``end`` (``time.monotonic()`` around spawn and exit),
``status`` (exit code), ``cpu_s`` and ``maxrss_kb``.  Exits at end of input.

It runs as its own small process because a child's ``ru_maxrss`` starts at
the resident size of the process that forked it: spawned straight from the
benchmark, which holds the checks' data, every child would report at least
the benchmark's own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in iter(sys.stdin.readline, ""):
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err)
            killer = threading.Timer(req["kill_after"], proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"start": start, "end": end, "status": proc.returncode,
                 "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
