"""The checks that run as subprocesses, started when the session starts.

The in-process tests keep about one core busy, so on a 2-core host the
other one is idle for most of the suite.  `conftest.py` starts the
subprocess of every selected test named in `CHECKS` before the first test
runs, niced below the test process, so the subprocesses take the time the
in-process tests leave; each of those tests then waits for its own.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"

OTHER_PYTHONS = ("3.10", "3.12", "3.13")
HASH_SEED = "123"

# workload:seed[:trace].  Each workload at its default seed, whose four
# output digests bench/workloads.py pins, and one traced run per trust
# path: bench/layertrace.py patches engine, trust and community functions
# by name, so renaming one fails its run.  trust-scale runs drds with
# formation on; trust-malice runs dgds, whose candidates and groups the
# tracer counts.
WORKER_RUNS = ("central-outage:7", "trust-malice:1", "trust-scale:1",
               "trust-scale:1:trace", "trust-malice:1:trace")


def _version_of(exe, env):
    try:
        proc = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                              capture_output=True, text=True, env=env, timeout=60)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _find_python(version):
    """The environment under which `python<version>` on PATH runs that
    version, or None.  A pyenv shim runs an installed version that is not
    selected once PYENV_VERSION names it."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        return None
    env = dict(os.environ)
    if _version_of(exe, env) != version and shutil.which("pyenv"):
        listed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True,
                                text=True, timeout=60).stdout.split()
        patches = [v[len(version) + 1:] for v in listed if v.startswith(version + ".")]
        patches = [int(p) for p in patches if p.isdigit()]
        if patches:
            env["PYENV_VERSION"] = f"{version}.{max(patches)}"
    return env if _version_of(exe, env) == version else None


def golden_command(variant):
    """`golden_cases.py` under python `variant`, or under this Python with
    PYTHONHASHSEED fixed; or the reason it cannot run."""
    running = "%d.%d" % sys.version_info[:2]
    if variant == "hashseed":
        exe, env = sys.executable, dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    elif variant == running:
        return f"the in-process cases ran under python{variant}"
    else:
        exe, env = f"python{variant}", _find_python(variant)
        if env is None:
            return f"python{variant} is not installed"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return [exe, str(TESTS / "golden_cases.py")], env


def worker_command(run, tmp):
    """One untimed `bench/worker.py --check` run, traced for a `:trace` run,
    writing its outputs under `tmp`."""
    workload, seed, *trace = run.split(":")
    return [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
            "--seed", seed, "--out", str(tmp / run.replace(":", "-")), "--check",
            *(["--trace"] if trace else [])], None


# The name of each test that reads a subprocess -> its (argv, env), or the
# reason it cannot run, given a scratch directory.
CHECKS = {f"test_golden_digests_under_other_interpreters[{variant}]":
          lambda tmp, v=variant: golden_command(v)
          for variant in OTHER_PYTHONS + ("hashseed",)}
CHECKS.update({f"test_benchmark_worker_check[{run}]":
               lambda tmp, r=run: worker_command(r, tmp) for run in WORKER_RUNS})


class Background:
    """Subprocesses run at most one per core at a time, each niced below
    this process.  `result(name)` waits for the run of test `name`."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory()
        self._pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._procs = []
        self._closed = False
        self._runs = {}

    def start(self, name):
        self._runs[name] = self._pool.submit(self._run, CHECKS[name])

    def _run(self, check):
        command = check(Path(self._tmp.name))
        if isinstance(command, str):
            return command
        argv, env = command
        with self._lock:
            if self._closed:
                return None
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, env=env)
            self._procs.append(proc)
        try:
            os.setpriority(os.PRIO_PROCESS, proc.pid, 10)
        except (AttributeError, OSError):  # no setpriority, or the process is gone
            pass
        out, err = proc.communicate()
        return proc.returncode, out, err

    def result(self, name, timeout=600):
        """The exit code, stdout and stderr of test `name`'s subprocess;
        skips the test when the subprocess cannot run here."""
        result = self._runs[name].result(timeout)
        if isinstance(result, str):
            pytest.skip(result)
        return result

    def close(self):
        with self._lock:
            self._closed = True
            for proc in self._procs:
                if proc.poll() is None:
                    proc.kill()
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._tmp.cleanup()
