"""The package's public surface: every exported name exists, once."""

import hybrid_volterra


def test_all_names_resolve_once():
    names = hybrid_volterra.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [n for n in names if not hasattr(hybrid_volterra, n)]
    assert not missing, f"exported but undefined: {missing}"
