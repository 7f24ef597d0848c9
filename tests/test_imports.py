"""What a process imports: package ``__init__``s map names to submodules
and import nothing, so every check here runs in a fresh interpreter."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from repro.gbdt.binning import sorted_unique

PACKAGES = (
    "repro", "repro.core", "repro.obs", "repro.sim", "repro.serve",
    "repro.cluster", "repro.trace", "repro.cache", "repro.opt", "repro.gbdt",
    "repro.features", "repro.flow", "repro.resilience",
)


def _fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter."""
    paths = [str(Path(__file__).resolve().parents[1] / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_repro_loads_only_the_helper():
    loaded = _fresh(
        "import json, sys; import repro; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert loaded == ["repro", "repro._lazy"]


def test_shard_worker_leaves_the_serving_stack_out():
    unwanted = [
        "asyncio", "http.server", "subprocess", "numpy.ma",
        "repro.serve", "repro.sim", "repro.opt",
    ]
    loaded = _fresh(
        "import json, sys; import repro.cluster.worker; "
        f"print(json.dumps(sorted(set({unwanted!r}) & set(sys.modules))))"
    )
    assert loaded == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    """Each package on its own, so a name that only resolves after some
    other package has loaded its submodules shows up here."""
    code = f"""
import importlib, json
package = importlib.import_module({package!r})
listed = dir(package)
missing = [name for name in package.__all__ if name not in listed]
for name in package.__all__:
    getattr(package, name)
try:
    package.LFOOnlnie
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({{"missing": missing, "error": error,
                  "n": len(package.__all__)}}))
"""
    found = _fresh(code)
    assert found["n"] > 0
    assert found["missing"] == []
    assert found["error"] == f"module {package!r} has no attribute 'LFOOnlnie'"


@pytest.mark.parametrize(
    ("package", "submodule"),
    [("repro", "_native"), ("repro.core", "lfo"), ("repro.obs", "serve")],
)
def test_a_submodule_name_resolves_to_the_submodule(package, submodule):
    same = _fresh(
        f"import json, sys; import {package} as p; "
        f"m = p.{submodule}; "
        f"print(json.dumps(m is sys.modules[{package + '.' + submodule!r}]))"
    )
    assert same is True


def test_declared_dependencies_are_the_imported_ones():
    """Every third-party package that ``src/repro`` imports anywhere (a
    function-local import counts) is declared in ``pyproject.toml``, and
    every declared one is imported."""
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"repro"}
    with open(root / "pyproject.toml", "rb") as file:
        declared = tomllib.load(file)["project"]["dependencies"]
    assert imported == {
        re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in declared
    }


def test_binning_and_thresholds_leave_numpy_ma_out():
    """numpy 2.4's ``np.unique`` imports ``numpy.ma`` on its first call
    (~10 ms, +1.3 MB); a fit and a model's thresholds must not make it,
    and must still give ``np.unique``'s floats."""
    code = """
import json, sys
import numpy as np
from repro.gbdt import BinMapper, GBDTClassifier, GBDTParams
rng = np.random.default_rng(3)
wide = np.concatenate([np.zeros(400), rng.integers(0, 300, 600)]).astype(float)
X = np.column_stack([wide, rng.integers(0, 4, 1000).astype(float)])
y = (wide > 150).astype(float)
mapper = BinMapper(max_bins=16).fit(X)
model = GBDTClassifier(GBDTParams(num_iterations=5)).fit(X, y)
thresholds = model.compiled().feature_thresholds(0)
loaded = "numpy.ma" in sys.modules
from repro.gbdt.binning import _sorted_percentiles
cuts = _sorted_percentiles(np.sort(wide)[None, :], 16)[0]
nodes = model.compiled()._nodes
tested = nodes["threshold"][
    (nodes["kid_le"] != np.arange(len(nodes))) & (nodes["feature"] == 0)
]
print(json.dumps({
    "loaded": loaded,
    "cut_repeats": len(cuts) - len(np.unique(cuts)),
    "threshold_repeats": len(tested) - len(np.unique(tested)),
    "bounds": mapper.upper_bounds[0].tobytes().hex(),
    "unique_bounds": np.unique(cuts).tobytes().hex(),
    "thresholds": thresholds.tobytes().hex(),
    "unique_thresholds": np.unique(tested).tobytes().hex(),
}))
"""
    found = _fresh(code)
    assert found["loaded"] is False
    assert found["cut_repeats"] > 0 and found["threshold_repeats"] > 0
    assert found["bounds"] == found["unique_bounds"]
    assert found["thresholds"] == found["unique_thresholds"]


@pytest.mark.parametrize(
    "values",
    [
        np.array([3.0, 1.0, 3.0, -0.5, 1.0, np.inf, 1.0]),
        np.array([0.0, 0.0, 1.5, 1.5, 2.0, np.inf, np.inf]),
        # A sorted run of zeros of both signs: the sort picks the one kept.
        np.sort(np.resize([0.0, -0.0, 0.0, -0.0, -0.0, 1.0, -1.0], 300)),
        np.array([2.0]),
        np.array([], dtype=np.float64),
    ],
)
def test_sorted_unique_is_np_unique(values):
    assert sorted_unique(values).tobytes() == np.unique(values).tobytes()
