"""nccalc: exact differential calculi on finitely presented algebras.

The engine builds first-order (and, where the direction structure allows,
higher-order) differential calculi from a set of algebra automorphisms or
from twisted inner derivations, with all arithmetic exact over the field
of rational functions in declared parameters.

`import nccalc` loads no submodule: each name below is imported from its
module on first access (PEP 562), so a command pays only for what it uses.
"""

_EXPORTS = {
    "algebra": ("AlgebraError", "AlgebraMorphism", "NCPoly", "Presentation",
                "check_local_confluence", "identity_morphism", "unit_inverse", "verify_morphism"),
    "calculus": ("CalculusError", "CalculusSpec", "DirectionSet", "GradedForm",
                 "InconsistentCalculus", "TwoFormStructure", "constants", "delta",
                 "differential", "d_form", "graded_commutator", "move_left", "move_right",
                 "parse_form", "two_form_structure", "vartheta", "verify_twisted_two_forms"),
    "geometry": ("Connection", "LTensor", "Metric", "curvature", "levi_civita_check",
                 "metric_compatibility", "metric_invariance_conditions", "nabla_one_form",
                 "torsion", "torsion_free_conditions"),
    "linalg": ("normal_words", "solve_theta_in_differentials"),
    "presets.catalog": ("PRESET_IDS", "load_preset"),
    "presets.tensors": ("tensor_product",),
    "scalar": ("Scalar", "ScalarError", "ZeroDenominator", "params", "parse_scalar"),
    "suites": ("check_differentiability", "is_central_one_form", "verify_inner_identities"),
}


def _lazy_attributes(module, exports):
    """A PEP 562 module `__getattr__` for `module`: exports maps a submodule
    of nccalc to names it defines, each imported from it on every access.
    The map is kept as the function's `exports`."""
    module_of = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name):
        sub = module_of.get(name)
        if sub is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        # the import statement's path, so `-X importtime` lists the module
        return getattr(__import__(f"{__name__}.{sub}", fromlist=[name]), name)

    __getattr__.exports = exports
    return __getattr__


__getattr__ = _lazy_attributes(__name__, _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __dir__():
    return sorted(set(globals()) | set(__all__))
