"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import closurelab
from closurelab import actions, stabchain


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from closurelab import *", namespace)
    assert len(set(closurelab.__all__)) == len(closurelab.__all__)
    for name in closurelab.__all__:
        assert namespace[name] is getattr(closurelab, name)


def test_removed_names_stay_removed():
    # tuple orbits are read from canonical images only, and the module
    # wrappers of PermGroup methods are gone
    for name in ("tuple_transporter", "order", "contains", "pointwise_stabilizer"):
        assert name not in closurelab.__all__
        assert not hasattr(closurelab, name)
        assert not hasattr(stabchain, name)
    assert not hasattr(stabchain.PermGroup, "tuple_transporter")
    assert not hasattr(actions, "orbits")


def test_import_leaves_dataclasses_unloaded():
    # the result types are Records, so importing the package and its command
    # line compiles no generated methods and loads no dataclasses module; -S
    # keeps site-packages' start-up hooks out of the count
    code = "import sys, closurelab, closurelab.cli; print(sorted(m for m in sys.modules if 'dataclass' in m))"
    env = dict(os.environ, PYTHONPATH=str(Path(closurelab.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
