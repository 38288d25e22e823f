"""The lazy package: `nccalc` and `nccalc.cli` resolve names on first access."""

import importlib

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
