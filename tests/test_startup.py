"""`import randfan` loads numpy with OpenBLAS's shortest idle-thread timeout
and leaves the environment as it found it.  Each case runs in a fresh
interpreter, where a sys.meta_path finder records the variable at the
moment numpy is looked up."""

import json
import os
import subprocess
import sys

import pytest

_PROBE = """
import importlib.abc, json, os, sys

seen = []

class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Watch())
before = dict(os.environ)
{first}
import randfan
print(json.dumps({{"seen": seen, "environ_unchanged": dict(os.environ) == before}}))
"""


def _probe(first: str = "", **env) -> dict:
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(first=first)], env={**environ, **env},
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_numpy_loads_with_the_shortest_thread_timeout_and_the_environment_is_restored():
    assert _probe() == {"seen": ["4"], "environ_unchanged": True}


def test_a_timeout_the_user_set_wins():
    assert _probe(OPENBLAS_THREAD_TIMEOUT="9") == {"seen": ["9"], "environ_unchanged": True}


@pytest.mark.parametrize("env", [{}, {"OPENBLAS_THREAD_TIMEOUT": "9"}])
def test_numpy_imported_first_is_left_alone(env):
    # numpy is looked up once, before randfan, with the variable as the user left it
    want = env.get("OPENBLAS_THREAD_TIMEOUT")
    assert _probe("import numpy", **env) == {"seen": [want], "environ_unchanged": True}
