"""Child processes timed from spawn to exit, with resource use from wait4.

``os.wait4`` returns the rusage of the one child it reaps, so every
command gets its own ``ru_maxrss`` and CPU time.  ``RUSAGE_CHILDREN``
would not do: it reports the running maximum over all children reaped
so far.

On Linux a fresh child's ``ru_maxrss`` starts at the high-water RSS of
the process it was forked from (exec records the old address space's
peak).  Children are therefore spawned by a small helper process -- this
file run with ``python -S`` -- and not by the benchmark, whose own RSS
grows with the outputs it checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass
class ChildResult:
    returncode: int
    start: float
    end: float
    maxrss_kb: int
    cpu_s: float
    stdout: bytes = b""
    stderr: bytes = b""

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def spawn_and_wait(argv: list, env: dict, out_path: str, err_path: str) -> dict:
    """Run argv in the current directory; stdout and stderr go to the two files."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    t1 = time.perf_counter()
    return {"returncode": os.waitstatus_to_exitcode(status), "start": t0, "end": t1,
            "maxrss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}


class Spawner:
    """Runs commands one at a time through the helper process."""

    def __init__(self):
        self.helper = subprocess.Popen([sys.executable, "-S", os.path.abspath(__file__)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, env: dict, out_path: str, err_path: str) -> ChildResult:
        request = {"argv": argv, "env": env, "out": out_path, "err": err_path}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        result = ChildResult(**json.loads(reply))
        with open(out_path, "rb") as fh:
            result.stdout = fh.read()
        with open(err_path, "rb") as fh:
            result.stderr = fh.read()
        return result

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn_and_wait(req["argv"], req["env"], req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
