"""Start-up cost and the package's export surface.

Every ``pcsft run`` is a fresh process, so what ``import pcsft`` loads is
paid on every run. scipy is loaded only by the one call that needs it:
``gaussian.sample`` (``scipy.special.ndtri``). ``dynamics.linear_flow``
computes its "expm" flow in numpy, so no run loads ``scipy.linalg``,
whose own BLAS library would otherwise run beside numpy's. Each stage is
checked in one fresh interpreter, because the test process has scipy
loaded.

``pcsft/__init__.py`` re-exports exactly the ``__all__`` entries of its
modules, so a name deleted from a module cannot be left behind in either.
Every one of those names must be read by the library, ``perfbench/`` or
the acceptance gate, so none is public for its own unit tests alone.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pcsft

# tolerance constants stay in pcsft.symplectic, not the package namespace
NOT_REEXPORTED = {"DEFAULT_TOL", "FD_TOL"}

SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

stages = {}
import pcsft, pcsft.cli
stages["import"] = loaded()

configs, out = json.loads(sys.argv[1]), sys.argv[2]
status = []
for name, config in configs.items():
    status.append(pcsft.cli.main(["run", config, "--out", out]))
    stages[name] = loaded()

import numpy as np
from pcsft import BlockOperator, GaussianState, QuadraticHamiltonian, linear_flow, sample
linear_flow(QuadraticHamiltonian(BlockOperator(np.diag([1.0, 4.0]))), 0.3, "expm")
stages["expm"] = loaded()

sample(GaussianState(np.eye(2)), seed=1, count=3)
stages["sample"] = loaded()
print(json.dumps({"status": status, "stages": stages}))
"""


def test_scipy_loads_only_at_first_use(tmp_path):
    # schrodinger-equivalence compares the spectral and "expm" flows
    configs = {}
    for name in ("von-neumann-square", "schrodinger-equivalence"):
        configs[name] = str(tmp_path / f"{name}.json")
        Path(configs[name]).write_text(json.dumps({"experiment": name, "seed": 1}))
    env = {**os.environ, "PYTHONPATH": str(Path(pcsft.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(configs), str(tmp_path / "reports")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    stages = result["stages"]
    assert result["status"] == [0, 0]
    assert stages["import"] == []
    assert stages["von-neumann-square"] == []
    assert stages["schrodinger-equivalence"] == []
    assert stages["expm"] == []
    assert "scipy.special" in stages["sample"]
    assert "scipy.linalg" not in stages["sample"]


def test_every_public_name_resolves_and_is_reexported():
    declared = set()
    for info in pkgutil.iter_modules(pcsft.__path__):
        module = importlib.import_module(f"pcsft.{info.name}")
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), f"pcsft.{info.name}.__all__ repeats a name"
        for name in names:
            assert hasattr(module, name), f"pcsft.{info.name}.__all__ names missing {name!r}"
            declared.add(name)
    exported = {
        name
        for name, value in vars(pcsft).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared - NOT_REEXPORTED


def _reads(path: Path) -> set:
    """Names a file reads as ast Name or Attribute loads (docstrings and
    imports do not count), leaving out each top-level definition's
    references to its own name."""
    reads = set()
    for statement in ast.parse(path.read_text()).body:
        own = set()
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {statement.name}
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            own = {t.id for t in targets if isinstance(t, ast.Name)}
        found = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        reads |= found - own
    return reads


def test_every_public_name_has_a_reader():
    # a public name is read by the library, the benchmark or the
    # acceptance gate, not by its own unit tests alone
    package = Path(pcsft.__file__).resolve().parent
    root = package.parent.parent
    readers = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    readers += sorted((root / "perfbench").glob("*.py"))
    readers.append(root / "tests" / "test_acceptance.py")
    read = set().union(*(_reads(p) for p in readers))
    unread = []
    for info in pkgutil.iter_modules(pcsft.__path__):
        module = importlib.import_module(f"pcsft.{info.name}")
        unread += [f"pcsft.{info.name}.{name}" for name in getattr(module, "__all__", ()) if name not in read]
    assert not unread, f"public names with no reader: {unread}"
