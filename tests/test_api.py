"""The package's public surface."""

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
