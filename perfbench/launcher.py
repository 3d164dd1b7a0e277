"""Child launcher: spawns each requested command and reports what it cost.

    python3 perfbench/launcher.py WORKDIR

It runs as a small process of its own because Linux charges a child's
max-RSS with the resident set of the process that forked it: children
forked by run.py, which holds the reference and the snapshot, would
report run.py's size instead of their own.

Reads one JSON command list per line on stdin and answers each with one
JSON line: {"wall", "code", "stdout", "stderr", "rss_mb"}.  Wall time
runs from spawn to exit with stdout drained.  Children inherit this
process's environment and run in WORKDIR.  Exits at end of input.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time

#: Seconds after which a child counts as hung and is killed.
CHILD_TIMEOUT_S = 60


def spawn(command: list[str], workdir: str) -> dict:
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err,
                                cwd=workdir)
        # A hung child is killed, so one run still ends in bounded time.
        # os.kill, not proc.kill: that would poll and could reap it.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                                   (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as err:
        stderr = err.read()
    return {"wall": wall, "code": proc.returncode,
            "stdout": out.decode("utf-8", errors="replace"),
            "stderr": stderr, "rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    workdir = sys.argv[1]
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line), workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
