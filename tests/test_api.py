"""The public surface: each module's ``__all__`` names live objects, the
package re-exports every one of them, and removed names stay removed."""

import ast
import dataclasses
import importlib
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mimo_recal as mr
from tests.conftest import package_env

ROOT = Path(__file__).resolve().parents[1]

MODULES = ("numerics", "hardware", "channel", "precoding", "analysis", "calibration")

# superseded by transmit_block, mu_all, psi_vector,
# estimate_poly_coeffs_anchored, sindr_zf_closed_all, draw_channels (which
# takes the amplitude phi and fills an array), bussgang_decompose and the
# _kernels special functions behind bussgang_mu/bussgang_lambda.  The paper's
# pair-ratio LS (assemble_psi_matrix, estimate_poly_coeffs,
# estimate_poly_coeffs_from_records) is kept only as the dense test reference
# in tests/conftest.py.  ibo_db and sigma_from_ibo had no caller; the
# back-off is set through a_sat_for_ibo.  zf_precoder and uplink_channel only
# renamed _kernels.zf_apply and _kernels.uplink, and beta_zf_empirical is
# criterion 5's oracle in tests/conftest.py.  CellGeometry's fields only ever
# took their defaults, now the channel module's constants, and
# training_overhead had one caller, calibrate.
REMOVED = ("transmit_downlink", "DownlinkOutcome", "apply_calibration", "Precoder",
           "orth_poly_psi", "assemble_psi_matrix", "estimate_poly_coeffs",
           "estimate_poly_coeffs_from_records", "sindr_zf_closed",
           "ChannelRealization", "draw_channel", "zf_bussgang", "erfc", "erfcx",
           "exp_integral_ei", "exp_integral_ei_scaled", "ibo_db", "sigma_from_ibo",
           "zf_precoder", "uplink_channel", "beta_zf_empirical", "CellGeometry",
           "training_overhead")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist_and_are_reexported(module):
    mod = importlib.import_module(f"mimo_recal.{module}")
    for name in mod.__all__:
        obj = getattr(mod, name)  # a stale entry raises AttributeError here
        assert getattr(mr, name) is obj, f"mimo_recal does not re-export {module}.{name}"


def test_package_exports_only_module_names():
    exported = {name for module in MODULES
                for name in importlib.import_module(f"mimo_recal.{module}").__all__}
    public = {name for name, obj in vars(mr).items()
              if not name.startswith("_") and not isinstance(obj, type(mr))}
    assert public == exported


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(mr, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"mimo_recal.{module}"), name)


@pytest.mark.parametrize("module, holder, field, allowed", [
    ("calibration", mr.TrainingSet, "plan", ()),
    # perfbench's zf_ideal_estimate passes a0 to estimate_sindr_mc by position
    ("analysis", mr.SystemHardware, "a0", ("estimate_sindr_mc",)),
])
def test_no_function_takes_a_field_beside_its_holder(module, holder, field, allowed):
    # a training set carries its pilot plan and the hardware its a0, so an
    # argument beside them could only repeat the field or disagree with it
    mod = importlib.import_module(f"mimo_recal.{module}")
    takes = []
    for name in mod.__all__:
        fn = getattr(mod, name)
        if inspect.isfunction(fn):
            params = inspect.signature(fn, eval_str=True).parameters
            if field in params and any(p.annotation is holder for p in params.values()):
                takes.append(name)
    assert takes == list(allowed)


def test_training_levels_and_model_order_are_not_stored_twice():
    assert not hasattr(mr.TrainingSet, "level")
    assert "order" not in {f.name for f in dataclasses.fields(mr.PolyMismatch)}


# imports no code reads, each kept for the perfbench test that pins it
UNUSED_IMPORTS = {
    # perfbench/tests/test_tracer.py::test_install_patches_every_from_import_binding
    # checks that the tracer rebinds analysis.bussgang_mu
    ("analysis", "bussgang_mu"),
    # perfbench/tests/test_tracer.py::test_install_patches_every_from_import_binding
    # checks that the tracer rebinds cli.slp_solve
    ("cli", "slp_solve"),
}


def test_no_unused_imports():
    # a name a module imports and never reads is dead code, and a pinned name
    # that starts being read leaves the list
    unused = set()
    for path in sorted(Path(mr.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused.update((path.stem, name) for name in imported - read)
    assert unused == UNUSED_IMPORTS


def test_package_comes_from_the_first_pythonpath_entry_that_holds_it():
    # an exported PYTHONPATH wins over the checkout's src/, which is only
    # the fallback
    entries = [Path(p).resolve() for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    holders = [p for p in entries if (p / "mimo_recal" / "__init__.py").is_file()]
    want = holders[0] if holders else ROOT / "src"
    assert Path(mr.__file__).resolve().parents[1] == want


def test_pytest_tests_the_tree_that_pythonpath_names(tmp_path):
    # a copy of the package on PYTHONPATH is the one the suite imports
    shutil.copytree(Path(mr.__file__).parent, tmp_path / "mimo_recal",
                    ignore=shutil.ignore_patterns("__pycache__"))
    test = "tests/test_api.py::test_package_comes_from_the_first_pythonpath_entry_that_holds_it"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": str(tmp_path)},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr


def test_benchmark_tests_pass_on_this_tree():
    # the benchmark's own tests call the library (HpaModel among it), so a
    # change to the package that breaks them must fail here.  They run in a
    # fresh interpreter, as perfbench/tests and tests both import as "tests";
    # perfbench/tests/conftest.py puts this checkout's src/ first on sys.path
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "perfbench/tests"],
                         cwd=ROOT, env=package_env(), capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
