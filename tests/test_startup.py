"""The first randfan import that loads numpy loads it with OpenBLAS's
shortest idle-thread timeout and leaves the environment as it found it;
`import randfan`, the command line and the ratio table load no numpy.  Each
case runs in a fresh interpreter, where a sys.meta_path finder records the
variable at the moment numpy is looked up."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
import randfan, randfan.cli  # load no numpy: only the next import looks it up
import randfan.lattice
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


def test_one_module_imports_numpy():
    # every other module takes np from randfan._numpy, so no module can load
    # numpy before the timeout is set
    importers = set()
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "randfan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # not a randfan module
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"_numpy"}


# --- the module graph: a command loads only the modules it runs --------------

#: Modules the table commands never need: the sweep, sampling and fan code,
#: numpy's random package, and what a thread pool or a dataclass loads.
_TABLE_UNUSED = ["randfan.experiments", "randfan.sampling", "randfan.fans", "numpy.random",
                 "concurrent.futures", "dataclasses"]
#: Modules a sweep never needs: it builds no Fan and starts plain threads.
_SWEEP_UNUSED = ["randfan.fans", "concurrent.futures"]

_GRAPH_PROBE = """
import json, os, sys, tempfile
import randfan.cli
unused = {unused}
loaded = {{"import": [m for m in unused if m in sys.modules]}}
with tempfile.TemporaryDirectory() as tmp:
    for argv in {commands}:
        assert randfan.cli.main([*argv, "--out", os.path.join(tmp, "out")]) == 0, argv
        loaded[argv[0]] = [m for m in unused if m in sys.modules]
print(json.dumps(loaded))
"""


def _loaded_after(commands, unused) -> dict:
    # which of unused are loaded after `import randfan.cli`, then after each command in turn
    proc = subprocess.run([sys.executable, "-c", _GRAPH_PROBE.format(unused=unused, commands=commands)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_the_table_commands_load_no_sweep_sampling_or_fan_code():
    commands = [["rays", "--h", "3"], ["blowdown", "--h", "3", "--format", "json"],
                ["ratios", "--h", "5", "--h", "9", "--kmax", "3"], ["space", "--h", "3"],
                ["sample", "--h", "3", "--p", "0.5"]]  # the probe sees what a command loads
    assert _loaded_after(commands, _TABLE_UNUSED) == {
        "import": [], "rays": [], "blowdown": [], "ratios": [], "space": [],
        "sample": ["randfan.sampling", "numpy.random", "dataclasses"],
    }


def test_the_command_line_and_the_ratio_table_load_no_numpy():
    # `import randfan.cli` (so `import randfan` too) and the ratio table in
    # both formats count in plain integers
    commands = [["ratios", "--h", "5", "--h", "2000", "--kmax", "7"],
                ["ratios", "--h", "5", "--kmax", "3", "--format", "json"]]
    assert _loaded_after(commands, ["numpy"]) == {"import": [], "ratios": []}


def test_the_sweeps_load_no_fan_and_no_thread_pool():
    commands = [["threshold", "--h", "5", "--q", "0.5", "--trials", "4", "--workers", "2"],
                ["density", "--h", "5", "--c", "1", "--alpha", "1", "--trials", "3", "--k", "2", "--format", "json"]]
    assert _loaded_after(commands, _SWEEP_UNUSED) == {"import": [], "threshold": [], "density": []}


_EXPORT_PROBE = """
import json, sys
import randfan
report = {"submodules": [m for m in sys.modules if m.startswith("randfan.")],
          "bound": sorted(set(randfan.__all__) & set(vars(randfan))),
          "unlisted": sorted(set(randfan.__all__) - set(dir(randfan)))}
scope = {}
exec("from randfan import *", scope)
report["exported"] = sorted(set(scope) - {"__builtins__"})
report["misbound"] = [name for name in randfan.__all__ if not
                      scope[name] is getattr(randfan, name) is getattr(sys.modules[scope[name].__module__], name)]
try:
    randfan.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_exports_are_imported_from_their_modules_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _EXPORT_PROBE], capture_output=True, text=True, timeout=60,
                          check=True)
    import randfan

    assert json.loads(proc.stdout) == {
        "submodules": [], "bound": [], "unlisted": [], "exported": sorted(randfan.__all__), "misbound": [],
        "unknown": "module 'randfan' has no attribute 'no_such_name'",
    }
