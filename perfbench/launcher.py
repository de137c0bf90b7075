"""Job launcher for run.py, kept small on purpose.

Linux reports a child's peak RSS as at least the RSS of the process that
forked it, so jobs are started from this process, which imports nothing
heavy, rather than from run.py, which holds numpy and the references.

Reads one JSON request per line on stdin, {"argv", "log", "timeout"}, runs
the command to its end (killing it after ``timeout`` seconds) with this
process's environment and working directory, and answers one JSON line
{"exit", "wall_s", "cpu_s", "rss_mb"}.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, log: str, timeout: float) -> dict:
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
