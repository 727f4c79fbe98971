"""The public API: its full list of names, the part perfbench/ uses, and no dead private code.

perfbench imports names from ``qcorr`` and calls them with the shapes below;
an API trim that breaks either makes every benchmark run fail.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import qcorr
from qcorr.measures import X_PATTERN_TOL

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(qcorr.__file__).resolve().parent

# Growing or trimming the public API means editing this list on purpose.
PUBLIC_NAMES = [
    "DEFAULT_SEARCH",
    "DensityMatrix",
    "DimensionError",
    "MeasureReport",
    "ProbTable2x2",
    "QcorrError",
    "RecordError",
    "SearchConfig",
    "StateError",
    "VerifyResult",
    "XStateParams",
    "bell_diagonal",
    "bloch_vectors",
    "cc_state",
    "classical_cov",
    "correlation_distance",
    "correlation_tensor",
    "covariance_matrix",
    "cq_state",
    "d1_oracle",
    "d1_x_state",
    "disturbance_norms",
    "format_line",
    "full_report",
    "is_x_shaped",
    "mmc",
    "mmc_oracle",
    "negativity",
    "partial_trace",
    "partial_transpose",
    "pauli",
    "projector_pair",
    "pure_state",
    "qubit_state",
    "report_to_record",
    "rho_d",
    "rho_d_smax",
    "rho_theta",
    "run_checks",
    "singular_values_3",
    "state_from_record",
    "state_to_record",
    "sweep_from_record",
    "x_state",
]


def test_public_names_pinned():
    assert sorted(qcorr.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(qcorr, name), name


def test_search_config_fields_pinned():
    # Search settings only: the ensemble seed is verify's, and no oracle draws a random number.
    assert [f.name for f in dataclasses.fields(qcorr.SearchConfig)] == ["coarse_grid", "refine_iters"]


def test_only_d1_oracle_takes_a_search_config():
    # One path for search settings: mmc_oracle needs none, and production takes none.
    takers = [
        name
        for name in qcorr.__all__
        if inspect.isfunction(obj := getattr(qcorr, name))
        and any("SearchConfig" in str(p.annotation) for p in inspect.signature(obj).parameters.values())
    ]
    assert takers == ["d1_oracle"]
    assert list(inspect.signature(qcorr.mmc_oracle).parameters) == ["rho"]


def _qcorr_imports(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every ``from qcorr... import name`` in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qcorr"
        for alias in node.names
    }


@pytest.mark.parametrize("script", ["workloads.py", "streams.py"])
def test_perfbench_imports_exist(script):
    imports = _qcorr_imports(PERFBENCH / script)
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_call_shapes():
    n_theta, n_phi = qcorr.DEFAULT_SEARCH.coarse_grid
    assert n_theta > 0 and n_phi > 0
    assert isinstance(X_PATTERN_TOL, float)

    rho = qcorr.bell_diagonal(0.5, -0.3, 0.2)
    assert qcorr.d1_oracle(rho) == pytest.approx(0.3, abs=2e-3)
    assert qcorr.mmc_oracle(rho) == pytest.approx(0.5, abs=1e-12)

    # The layers perfbench times one by one: a raw matrix only where it passes rho.mat.
    assert qcorr.DensityMatrix(rho.mat).mat.tobytes() == rho.mat.tobytes()
    assert qcorr.is_x_shaped(rho.mat, X_PATTERN_TOL) is True
    a, b = qcorr.bloch_vectors(rho)
    assert a.shape == b.shape == (3,)
    q = qcorr.covariance_matrix(rho)
    assert qcorr.singular_values_3(q).tolist() == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)
    assert qcorr.negativity(rho) >= 0.0

    report = qcorr.full_report(rho)
    assert (report.d1, report.d1_method) == (pytest.approx(0.3, abs=1e-12), "closed_form")

    result = qcorr.d1_x_state(qcorr.XStateParams.from_density_matrix(rho))
    assert isinstance(result, tuple) and len(result) == 2
    assert result == (pytest.approx(0.3, abs=1e-12), "closed_form")

    thetas = np.array([0.0, np.pi / 8.0])
    phis = np.array([0.0, np.pi / 2.0])
    norms = qcorr.disturbance_norms(rho.mat, thetas, phis)
    assert norms.shape == (2,)

    checks = qcorr.run_checks(prefix="rho_d.spot")
    assert [r.check_id for r in checks] == ["rho_d.spot_d1", "rho_d.spot_mmc"]
    assert all(r.passed for r in checks)


def _imported_modules(path: Path):
    """Each module a file imports, and each name it imports from one, as dotted paths.

    Relative imports resolve within the package: ``from .x import y`` gives
    ``qcorr.x`` and ``qcorr.x.y``, ``from . import x`` gives ``qcorr.x``.
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["qcorr" if node.level else "", node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_measures_import_nothing_from_the_oracles():
    # The oracles check production d1, so production must not run them.
    imported = set(_imported_modules(SRC / "measures.py"))
    assert "qcorr.states" in imported
    assert not [m for m in imported if m == "qcorr.oracles" or m.startswith("qcorr.oracles.")]


def _names_used(path: Path) -> set[str]:
    """Every dotted path the file imports and every name or attribute it reads."""
    names = set(_imported_modules(path))
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_lapack_gufuncs_only_behind_the_states_seam():
    # Production reaches numpy's LAPACK gufuncs through states._eigvalsh and
    # states._eigh alone; the oracles check production, so they keep to
    # public np.linalg and stay off the seam.
    users = {
        path.name
        for path in SRC.glob("*.py")
        if any("_umath_linalg" in name.split(".") for name in _names_used(path))
    }
    assert users == {"states.py"}
    oracle_names = {name.split(".")[-1] for name in _names_used(SRC / "oracles.py")}
    assert not oracle_names & {"_eigvalsh", "_eigh"}


def _private_definitions(tree: ast.Module):
    """(name, statement) for every module-level function, class or constant named _x."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def test_every_private_name_is_used_in_the_package():
    # A private helper that only the tests call belongs in the tests.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    loads = [
        (node.id if isinstance(node, ast.Name) else node.attr, stmt)
        for tree in trees.values()
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    unused = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name, definition in _private_definitions(tree)
        if not any(used == name and stmt is not definition for used, stmt in loads)
    ]
    assert unused == []
