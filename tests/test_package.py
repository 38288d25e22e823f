"""The lazy package: `nccalc` and `nccalc.cli` resolve names on first access."""

import importlib
import pkgutil

import pytest

import nccalc
import nccalc.cli


def test_every_exported_name_is_its_defining_module_object():
    exported = set()
    for module, names in nccalc._EXPORTS.items():
        defining = importlib.import_module(f"nccalc.{module}")
        for name in names:
            assert getattr(nccalc, name) is getattr(defining, name), name
        exported.update(names)
    assert sorted(exported) == nccalc.__all__


def test_dir_covers_all():
    assert set(nccalc.__all__) <= set(dir(nccalc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nccalc.no_such_name
    assert not hasattr(nccalc, "no_such_name")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        nccalc.cli.no_such_name


def test_star_import_binds_all():
    namespace = {}
    exec("from nccalc import *", namespace)
    assert {name: namespace[name] for name in nccalc.__all__} == \
        {name: getattr(nccalc, name) for name in nccalc.__all__}


@pytest.mark.parametrize("module, names", [
    ("geometry", ("curvature", "levi_civita_check", "metric_compatibility",
                  "metric_invariance_conditions", "torsion", "torsion_free_conditions")),
    ("files", ("load_calculus", "load_connection", "load_metric", "serialize_calculus")),
])
def test_cli_resolves_the_names_it_imports_per_command(module, names):
    """The benchmark's tracer reads nccalc.cli.torsion; the geometry and file
    names resolve on access although cli imports them inside its commands."""
    defining = importlib.import_module(f"nccalc.{module}")
    for name in names:
        assert getattr(nccalc.cli, name) is getattr(defining, name), name


def test_every_lazily_re_exported_name_is_its_defining_module_object():
    """Each module that resolves names of another on first access (PEP 562)
    names, for each, the module that defines it; the name resolves to that
    module's object, so a moved name keeps working from its old module."""
    modules = [nccalc, *(importlib.import_module(m.name)
                         for m in pkgutil.walk_packages(nccalc.__path__, "nccalc."))]
    tables = {m.__name__: m.__getattr__.exports for m in modules if hasattr(m, "__getattr__")}
    assert set(tables) == {"nccalc", "nccalc.algebra", "nccalc.calculus", "nccalc.cli",
                           "nccalc.files", "nccalc.presets", "nccalc.presets.catalog",
                           "nccalc.scalar"}
    for module, exports in tables.items():
        for sub, names in exports.items():
            defining = importlib.import_module(f"nccalc.{sub}")
            for name in names:
                obj = vars(defining)[name]
                assert getattr(importlib.import_module(module), name) is obj, (module, name)
                assert getattr(obj, "__module__", defining.__name__) == defining.__name__, \
                    (module, name)
