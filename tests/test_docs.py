"""The README names only what the library has."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import unitlat

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(unitlat.__path__)}
# backticked `module.name` with module a unitlat module; file names such
# as `quartic.py` are not attributes
NAMED = sorted({m.groups() for m in re.finditer(
    r"`([a-z_]+)\.([A-Za-z_]\w*)`", README)
    if m.group(1) in MODULES and m.group(2) != "py"})


def test_readme_names_library_attributes():
    assert len(NAMED) >= 20


@pytest.mark.parametrize("module,name", NAMED,
                         ids=[".".join(n) for n in NAMED])
def test_readme_name_resolves(module, name):
    assert hasattr(importlib.import_module("unitlat." + module), name)


@pytest.mark.parametrize("name", ["automorphism_bounds",
                                  "reconstruct_rational", "mpf_to_fraction",
                                  "u_l_powers", "integer_matrix"])
def test_readme_drops_removed_names(name):
    # helpers of the numeric reconstruction of sigma, replaced by the
    # exact trace matrix solve, and the second forms of sigma and of the
    # +-u_l^k table, replaced by one integer form of each
    assert name not in README
