"""Child launcher for the benchmark; standard library only.

Linux carries a process's resident-set high-water mark across ``exec``, so
a child forked straight from the benchmark (which holds numpy and parsed
outputs) would report the benchmark's memory as its own max-RSS.  This
small process starts every timed child instead, so each child's ``rusage``
reflects the child alone.

Protocol: one JSON request per line on stdin,
``{"argv", "cwd", "stdout", "stderr", "timeout"}``; one JSON reply per line
on stdout, ``{"wall_s", "rss_kb", "exit", "timed_out"}``.  Exits at EOF.
"""

import json
import os
import subprocess
import sys
import threading
import time


def launch(request: dict) -> dict:
    fired = threading.Event()
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(max(request["timeout"], 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_kb": usage.ru_maxrss, "exit": proc.returncode,
            "timed_out": fired.is_set()}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
