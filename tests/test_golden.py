"""Golden digests: the bundled scenarios' outputs are pinned byte for byte.

The cases and their digests live in `golden_cases.py`, which imports no
test framework, so the same cases also run under every other installed
Python: the determinism contract holds across interpreters, not just
across reruns of one.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import CASES, GOLDEN, REJECTION_GOLDEN, SCENARIOS, pinned, run_case
from tdgsim.engine import WuState

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_every_bundled_scenario_is_pinned():
    assert {p.stem for p in SCENARIOS.glob("*.ini")} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    _, digests = run_case(name, tmp_path)
    assert digests == pinned(name)


@pytest.mark.parametrize("strategy", sorted(REJECTION_GOLDEN))
def test_rejection_outputs_match_golden_digests(strategy, tmp_path):
    world, digests = run_case(f"rejections-{strategy}", tmp_path)
    assert any(ev.kind == "wu_rejected" for ev in world.events)
    assert digests == pinned(f"rejections-{strategy}")


def test_failed_tail_outputs_match_golden_digests(tmp_path):
    world, digests = run_case("failed-tail", tmp_path)
    assert any(wu.state is WuState.FAILED for wu in world.wus.values())
    last_terminal = max(ev.tick for ev in world.events
                        if ev.kind == "wu_validated"
                        or (ev.kind == "wu_redistributed" and ev.payload["terminal"]))
    assert last_terminal < world.config.horizon_ticks // 2
    assert digests == pinned("failed-tail")


# ------------------------------------------------- other interpreters

OTHER_PYTHONS = ("3.10", "3.12", "3.13")
HASH_SEED = "123"


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


@pytest.fixture(scope="module")
def interpreter_runs():
    """Start `golden_cases.py` under each other installed Python, and under
    this one with PYTHONHASHSEED fixed, all at once.  Maps each variant to
    its process, or to the reason it does not run."""
    running = "%d.%d" % sys.version_info[:2]
    runs = {}
    for variant in OTHER_PYTHONS + ("hashseed",):
        if variant == "hashseed":
            exe, env = sys.executable, dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        elif variant == running:
            runs[variant] = f"the in-process cases ran under python{variant}"
            continue
        else:
            exe, env = f"python{variant}", _find_python(variant)
            if env is None:
                runs[variant] = f"python{variant} is not installed"
                continue
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runs[variant] = subprocess.Popen([exe, str(TESTS / "golden_cases.py")],
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                         text=True, env=env)
    yield runs
    for proc in runs.values():
        if not isinstance(proc, str) and proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("variant", OTHER_PYTHONS + ("hashseed",))
def test_golden_digests_under_other_interpreters(variant, interpreter_runs):
    proc = interpreter_runs[variant]
    if isinstance(proc, str):
        pytest.skip(proc)
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err[-2000:]
    result = json.loads(out)
    print(f"{variant}: ran under Python {result['python']}")
    wrong = {case: sorted(name for name, digest in pinned(case).items()
                          if result["digests"].get(case, {}).get(name) != digest)
             for case in CASES}
    assert {case: names for case, names in wrong.items() if names} == {}
