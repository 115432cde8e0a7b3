"""The package namespace: one list of public names, built from the submodules'
lists, with the test oracles kept apart."""

import dataclasses
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import blipsim
import oracles

ROOT = Path(__file__).resolve().parents[1]

SUBMODULES = ("errors", "lattice", "spectral", "observables", "fields", "scattering", "propagation")


def test_public_names_are_the_union_of_the_submodules_lists():
    modules = [importlib.import_module(f"blipsim.{name}") for name in SUBMODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert set(blipsim.__all__) == set(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(blipsim, name) is getattr(module, name), (module.__name__, name)


#: Top-level modules a fresh ``import blipsim.cli`` must not load: the test stack, and ``fractions``,
#: whose ``decimal`` import alone would add a measurable share to every CLI process's startup.
UNLOADED = ("fractions", "decimal", "scipy", "mpmath", "hypothesis")


def test_importing_the_cli_loads_no_test_or_exact_arithmetic_module():
    code = "import sys, blipsim.cli; print(*sys.modules)"
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = {name.split(".")[0] for name in run.stdout.split()}
    assert "blipsim" in loaded
    assert sorted(loaded & set(UNLOADED)) == []


def test_the_oracles_are_not_a_package_module():
    assert importlib.util.find_spec("blipsim.oracles") is None


def test_oracles_are_not_public_names_of_the_package():
    assert not set(blipsim.__all__) & set(oracles.__all__)
    for name in oracles.__all__:
        assert callable(getattr(oracles, name)), name


def _resolves(dotted):
    """``name``, ``Class.attr`` or ``bs.name`` in ``blipsim``; a dataclass
    field counts as an attribute of its class."""
    head, *attrs = re.sub(r"^(bs|blipsim)\.", "", dotted).split(".")
    obj = getattr(blipsim, head, None)
    for attr in attrs:
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        obj = getattr(obj, attr, None) if attr not in fields else attr
    return obj is not None


def test_readme_entry_points_name_only_existing_functions():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    names = [
        span for span in re.findall(r"`([^`]+)`", section)
        if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span)
    ]
    assert "spectral_expectations" in names
    assert [name for name in names if not _resolves(name)] == []


def test_readme_entry_points_example_gives_its_commented_value():
    """The section's ``python`` block, run as written, ends on the value its last comment gives."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    *body, last = re.search(r"```python\n(.*?)```", section, re.S).group(1).strip().splitlines()
    expression, value = last.split("#")
    namespace = {}
    exec("\n".join(body), namespace)
    assert math.isclose(eval(expression, namespace), float(value), rel_tol=1e-9), last
