import formcalc


def test_star_import_exports_exactly_all():
    # a stale __all__ entry would otherwise surface only at a user's star import
    namespace = {}
    exec("from formcalc import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(formcalc.__all__)
    assert len(formcalc.__all__) == len(set(formcalc.__all__))
    assert all(namespace[name] is getattr(formcalc, name) for name in formcalc.__all__)
    assert "ExpPoly" not in namespace
