import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sunharm
from sunharm.cli import main
from sunharm.verify import make_document

import reference

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

#: Names that left the package, by the module that defined them: group-level,
#: dense and tensor references now in tests/reference.py, among them the
#: matrix of rho on a whole symmetric power, the imaginary unit, the hook
#: projection, the parts of a cocycle on any tangent, the n = 1 split by
#: kernel solves, the tensor calculus of the polarization section, the
#: two-form operators and P split by tangent for the matrix form of the
#: invariance identity, and deleted code, among it the dense coordinate-vector
#: path, the n = 1 sub-basis combination, the pluggable rational type and
#: the per-module scalar coercions that ``gq`` replaced.  The tensor types
#: and ``rho_apply`` left too, for the coefficient map; under ``checks`` are
#: the tensor names it imported for its two witnesses, and the names it built
#: tangents with before it read ``harmonic._tangent_action``; ``harmonic``
#: bound ``xi_plus``, ``xi_minus`` and ``e_vec`` too until it built its
#: tangents as matrix units.  The four per-lemma checks left the package
#: root too: ``lemma_battery``, which validates the case and builds their
#: operators, is their one entry point, and the operator table it builds
#: has no cache (``lru_cache``).
GONE = {
    "symrep": (
        "substitute", "_poly_mul", "group_matrix", "k_group_action", "inner",
        "pair", "power_of_vector", "project_grade", "_matrix_of", "_nonzero_entries",
        "raise_weighted", "derivative", "shift_down", "multiply_var", "polarization",
        "_as_scalar", "_CoeffPoly", "SymTensor", "DualSymTensor", "rho_apply",
        "rho_matrix_restricted", "rho_matrix",
    ),
    "harmonic": (
        "transform_cocycle", "Vector", "symmetric_component_membership",
        "_uniform_grade", "plus_part", "minus_part", "_linear_part", "TwoForm",
        "t_op", "tstar_op", "polarization_blocks", "_bracket_mix",
        "xi_plus", "xi_minus", "e_vec", "_map_matrix",
    ),
    "checks": (
        "part_sub_basis", "split_halves", "SymTensor", "rho_apply", "_action",
        "xi_plus", "xi_minus", "e_vec", "rho_matrix_restricted",
        "check_operator_grading", "check_dual_symmetry", "check_symmetric_forcing",
        "check_contraction_isometry", "lru_cache",
    ),
    "linalg": ("det", "dump_text", "rref", "rank_of_rows", "_sparse_rows", "_entry"),
    "exactfield": ("dump_entry", "Rational", "_BACKEND", "I"),
}

#: The names of the deleted module ``sun1``: the group-level and dense
#: references, and the complex directions of p, which tests/reference.py
#: keeps; its ``k_generators`` moved to ``harmonic``, built from matrix
#: units like the tangents.
SUN1 = (
    "is_unitary", "embed_k", "adjoint_on_p_plus", "canonical_weight",
    "unitary_corpus", "tangent_samples", "p_basis", "bracket", "is_compact",
    "is_xi_shape", "is_xi_plus_shape", "LieElement", "classify_kind",
    "is_xi_minus_shape", "group_inverse", "k_basis", "h0", "xi", "scale_vec",
    "in_su", "compact_element", "j_form", "_vec",
    "e_vec", "xi_plus", "xi_minus", "_p_element",
)

#: Methods that left the package's classes for tests/reference.py.
GONE_MEMBERS = {
    sunharm.ExactMatrix: (
        "identity", "column", "copy_rows", "apply", "conj_transpose",
        "__add__", "__sub__", "__neg__",
    ),
    sunharm.Cocycle: ("evaluate", "plus_values", "minus_values", "value"),
    sunharm.RepContext: ("value_class", "zero_value"),
    reference.SymTensor: ("to_vector",),
}


def test_one_version(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    cli_version = capsys.readouterr().out.split()[-1]
    (toml_version,) = re.findall(
        r'^version = "([^"]+)"$', PYPROJECT.read_text(), re.MULTILINE
    )
    report_version = make_document("verify", {}, [])["version"]
    assert cli_version == sunharm.__version__ == report_version == toml_version


def test_public_surface():
    assert len(set(sunharm.__all__)) == len(sunharm.__all__)
    for name in sunharm.__all__:
        assert hasattr(sunharm, name), name
    namespace = {}
    exec("from sunharm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(sunharm.__all__)
    assert importlib.util.find_spec("sunharm.sun1") is None
    for name in SUN1:
        assert not hasattr(sunharm, name), name
    for module, names in GONE.items():
        mod = importlib.import_module(f"sunharm.{module}")
        for name in names:
            if name not in sunharm.__all__:
                assert not hasattr(sunharm, name), name
            assert not hasattr(mod, name), f"{module}.{name}"
    for cls, names in GONE_MEMBERS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    # the two kernel checks trust the rows of P they are handed, so they
    # stay in harmonic for verify_case, which builds P once per case
    for name in ("classify", "kernel_is_invariant"):
        assert not hasattr(sunharm, name), name
        assert hasattr(sunharm.harmonic, name), name
    assert not hasattr(sunharm.harmonic.polarization_rows, "cache_info")
    # matrices are built from sparse rows only: no dense constructor
    with pytest.raises(TypeError):
        sunharm.ExactMatrix([[1]])


def test_import_loads_no_pool_and_no_dataclasses():
    """A fresh ``import sunharm``, and a serial sweep after it, load no
    process pool (``concurrent.futures``, ``multiprocessing``) and no
    ``dataclasses`` or ``inspect``.  The child imports this tree's source and
    runs without ``site`` (-S), so nothing else imports them first."""
    root = str(Path(sunharm.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([root] + [p for p in inherited if p]))
    code = (
        "import sys\n"
        "heavy = ('concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "print(loaded())\n"
        "import sunharm\n"
        "print(sunharm.__file__)\n"
        "print(loaded())\n"
        "sunharm.run_sweep(2, 1, jobs=1)\n"
        "print(loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    before, path, after, swept = out.stdout.splitlines()
    assert Path(path).resolve() == Path(sunharm.__file__).resolve()
    assert before == after == swept == "[]"


def test_only_the_harmonic_kernel_solves():
    """``harmonic_kernel`` is the one kernel solve: besides ``linalg``, which
    defines ``kernel_basis``, and the package root, which exports it, only
    ``harmonic`` binds the name."""
    binders = {"__init__"} if hasattr(sunharm, "kernel_basis") else set()
    for info in pkgutil.iter_modules(sunharm.__path__):
        mod = importlib.import_module(f"sunharm.{info.name}")
        if hasattr(mod, "kernel_basis"):
            binders.add(info.name)
    assert binders == {"__init__", "linalg", "harmonic"}


def _reads(tree: ast.Module) -> dict:
    """The names a module reads, as bare names or as attributes: those in
    each top-level definition under its name, the rest under None."""
    out: dict = {}
    for node in tree.body:
        defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        names = out.setdefault(node.name if defines else None, set())
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return out


def test_package_holds_only_what_it_runs():
    """Every top-level function or class of the package is called from the
    package, exported in ``sunharm.__all__``, the console script, or
    imported by ``perfbench/``; only ``linalg.same_span`` needs the last."""
    package = Path(sunharm.__file__).parent
    reads = {p.stem: _reads(ast.parse(p.read_text())) for p in package.glob("*.py")}
    perfbench = set()
    for p in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sunharm"):
                perfbench.update(alias.name for alias in node.names)
    script = re.search(r'^sunharm = "sunharm\.cli:(\w+)"$', PYPROJECT.read_text(), re.M)
    exported = set(sunharm.__all__) | {script.group(1)}
    only_perfbench = set()
    for module, defs in reads.items():
        for name in filter(None, defs):
            called = any(
                name in names
                for other, od in reads.items()
                for key, names in od.items()
                if (other, key) != (module, name)
            )
            if called or name in exported:
                continue
            assert name in perfbench, f"{module}.{name} is not run by the package"
            only_perfbench.add(f"{module}.{name}")
    assert only_perfbench == {"linalg.same_span"}
