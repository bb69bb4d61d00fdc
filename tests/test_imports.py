"""Start-up loads only the standard library: numpy is for ``verify`` alone
and nothing loads scipy."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revshare
from revshare import oracle

# the fresh interpreter imports the same revshare this suite tests
_SRC = str(Path(revshare.__file__).parents[1])


@pytest.mark.parametrize("module", ["revshare", "revshare.cli"])
def test_import_loads_neither_numpy_nor_scipy(module):
    code = (f"import sys, {module}; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_minimize_resolves_lazily_to_scipy():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    assert "minimize" not in vars(oracle)
    assert oracle.minimize is scipy_optimize.minimize


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        oracle.no_such_name
