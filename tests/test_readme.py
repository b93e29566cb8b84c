"""The README's library tour runs, names only what the package exports, and
every public definition in the package has a use."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import randfan

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

EXPORTS = {
    # reached through `rf.` by the acceptance criteria
    "ExperimentSpec", "PowerSchedule", "run_threshold_sweep", "run_density_sweep",
    "complete_fan", "is_smooth", "prob_complete", "conjectured_ratio", "emit",
    "space_report", "sweep_columns", "sweep_rows_as_dicts",
    # used by the README tour
    "enumerate_rays", "blowdown_table", "SampleConfig", "sample_fan", "delta_k",
    # the errors callers catch
    "ValidationError", "InvariantError",
}


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_all_is_exactly_the_public_surface():
    assert len(randfan.__all__) == len(set(randfan.__all__)) == 19
    assert set(randfan.__all__) == EXPORTS
    for name in randfan.__all__:
        assert hasattr(randfan, name), name


def test_readme_names_only_exported_names():
    names = set(re.findall(r"\brf\.(\w+)", README.read_text(encoding="utf-8")))
    assert names and names <= set(randfan.__all__), names - set(randfan.__all__)


def test_library_tour_runs_as_written():
    scope: dict = {}
    exec(compile(_tour(), str(README), "exec"), scope)
    assert len(scope["u"]) == 80
    assert scope["fan"].n_cones == 80
    assert scope["t"][(1, 1)] == 9
    assert scope["t"].ratio_geq(2) == Fraction(3, 5)
    assert len(scope["rows"]) == 1


def test_readme_states_the_workers_bound():
    from randfan.experiments import MAX_WORKERS

    assert f"MAX_WORKERS = {MAX_WORKERS}`" in README.read_text(encoding="utf-8")


def test_readme_states_the_memory_estimate():
    from randfan.lattice import _universe_bytes

    per_h2 = round(_universe_bytes([2000]) / 2000**2)
    assert f"about `{per_h2} * h^2`" in README.read_text(encoding="utf-8")


def test_readme_states_the_octant_bytes_of_a_streamed_height():
    # a sweep holds a long row's octant: 8 B per octant ray, n / 8 + 1 of them
    from randfan.lattice import _universe_bytes, count_geq

    octant = _universe_bytes([1000], [1000]) - _universe_bytes([1000])
    assert round(octant / count_geq(1000, 1)) == 1
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"about 1 B per ray of the circle ({octant / 1e6:.1f} MB at `h = 1000`)" in text


def test_readme_states_the_sweep_memory_per_thread():
    # a thread of one streamed cell, one trial per block, at any height
    from randfan.experiments import _THREAD_BYTES, _lane_bytes

    per_thread = _THREAD_BYTES + _lane_bytes(1, 1)
    assert f"about {per_thread / 2**20:.1f} MiB per thread" in README.read_text(encoding="utf-8")


def test_one_function_reads_the_available_memory():
    # every memory check goes through counting._check_bytes, the one rule
    readers = set()
    for path in sorted((ROOT / "src" / "randfan").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(stmt, "name", None)
            if "_mem_available" in _names(stmt) and name != "_mem_available":
                readers.add(f"{path.stem}.{name}")
    assert readers == {"counting._check_bytes"}


def test_one_module_imports_json():
    # every output leaves through emission's byte-block writer, so no
    # other module has a json.dumps to write with
    importers = set()
    for path in sorted((ROOT / "src" / "randfan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names):
                importers.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                importers.add(path.stem)
    assert importers == {"emission"}


def test_one_module_touches_the_environment():
    # only the module that loads numpy sets a variable, for numpy's load,
    # and restores it; no other module reads or writes os.environ
    touchers = set()
    for path in sorted((ROOT / "src" / "randfan").glob("*.py")):
        names = _names(ast.parse(path.read_text(encoding="utf-8")))
        if names & {"environ", "getenv", "putenv", "unsetenv"}:
            touchers.add(path.name)
    assert touchers == {"_numpy.py"}


def test_one_call_reads_philox_words():
    # sampling._trial_words is the one reader of a trial's stream, so no
    # second draw path (a cell drawing its own copy of the words) can return;
    # the method is named nowhere else, so no alias of it can be called
    named, called = [], []
    for path in sorted((ROOT / "src" / "randfan").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(stmt, 'name', None)}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and node.attr == "random_raw":
                    named.append(where)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "random_raw":
                    called.append(where)
    assert named == called == ["sampling._trial_words"]


def test_the_octant_is_the_one_check_of_a_universe():
    # lattice._octant's check carries to the whole circle by the symmetries
    # of the square, so no second pass over an unfolded circle can return
    called = []
    for path in sorted((ROOT / "src" / "randfan").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in {"_check_wedges", "_fail_count"}:
                        called.append(f"{path.stem}.{getattr(stmt, 'name', None)}.{name}")
    assert called == ["lattice._octant._check_wedges", "lattice._octant._fail_count"]


def test_one_function_forms_wedges():
    # lattice._wedge holds the rule that products of int32 coordinates are
    # formed in int64, so no kernel can form a wedge that wraps
    formed = []
    for path in sorted((ROOT / "src" / "randfan").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "multiply"
                        and any(k.arg == "dtype" and getattr(k.value, "attr", None) == "int64"
                                for k in node.keywords)):
                    formed.append(f"{path.stem}.{getattr(stmt, 'name', None)}")
    assert formed == ["lattice._wedge", "lattice._wedge"]


#: Each derivation, and the definition whose docstring is its one home in src.
DERIVATIONS = {
    "count_geq(h, k) = 8 * (P": "counting.count_geq",
    "tau + omega = k * u": "blowdown.blowdown_table",
    "ceil(p * 2**53)": "sampling._keep_threshold",
}


def test_each_derivation_is_stated_once_in_src():
    # a derivation is stated at the code that uses it, and other docstrings
    # point there, so no second copy in src can drift from it
    files, docstrings = {}, {}
    for path in sorted((ROOT / "src" / "randfan").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        files[path.stem] = " ".join(text.split())
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                docstrings[f"{path.stem}.{stmt.name}"] = " ".join((ast.get_docstring(stmt) or "").split())
    for derivation, home in DERIVATIONS.items():
        assert [m for m, text in files.items() if derivation in text] == [home.split(".")[0]], derivation
        assert derivation in docstrings[home], (derivation, home)


#: Public top-level functions and classes kept with no caller in src, no
#: mention in the README and no use in the acceptance tests, with the reason.
UNREFERENCED = {
    "lattice.angular_compare": "the exact pairwise order that oracles.comparison_order "
                               "sorts by, the reference for complete_fan's integer sort keys",
}


def _names(tree) -> set[str]:
    """Every name a tree reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_use():
    # a public function or class needs a reference in src outside its own
    # definition, a mention in the README or a use in the acceptance tests;
    # names are matched by name alone, whatever module they come from
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "randfan").glob("*.py"))}
    referenced_by = {}  # name -> the top-level definitions (None: module level) reading it
    for tree in modules.values():
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            for name in _names(stmt):
                referenced_by.setdefault(name, set()).add(owner)
    readme = README.read_text(encoding="utf-8")
    acceptance = _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = node.name
            if (referenced_by.get(name, set()) - {name}
                    or re.search(rf"\b{name}\b", readme) or name in acceptance):
                continue
            unused.append(f"{module}.{name}")
    assert sorted(unused) == sorted(UNREFERENCED)
