"""The preset catalog: every worked example as a calculus spec.

Each example is stated by its automorphisms, under the rules of an
`[automorphisms]` line of a definition file: one `(images, inverse
images)` pair per direction, and a generator without an image is fixed.
An image of g^-1 may be stated under the key `g^-1`; it is then checked,
not searched for.  `_calculus` verifies each pair and names the spec
after its presentation.  The builders live in one module per family of
examples: `_BUILDERS` names each preset's family and builder, so a load
imports that family only.  A load builds and
checks what the calculus needs: the automorphisms, local confluence and
the 2-form structure.  Fixtures (`presets.fixtures`) and extras (the z3
quotient algebra, the GL_pq(2) frame) wait for their first reader.
"""

from __future__ import annotations

import functools

from .. import _lazy_attributes
from ..algebra import check_local_confluence, verify_morphism
from ..calculus import CalculusSpec, DirectionSet
from ..scalar import parse_scalar
from .base import PresetBundle, PresetError

# preset id -> (family module, builder in it)
_BUILDERS = {
    "poly_shift_S12": ("shifts", "_build_S12"), "poly_shift_sym": ("shifts", "_build_sym"),
    "quantum_plane_a": ("planes", "_build_qplane_a"),
    "quantum_plane_b": ("planes", "_build_qplane_b"),
    "quantum_plane_c": ("planes", "_build_qplane_c"),
    "quantum_torus": ("planes", "_build_quantum_torus"),
    "heisenberg": ("heisenberg", "_build_heisenberg"),
    "h_plane": ("heisenberg", "_build_h_plane"), "h_plane_r1": ("heisenberg", "_build_h_plane_r1"),
    "z3_root_of_unity": ("z3", "_build_z3"),
    "group_lattice_z3": ("lattices", "_build_lattice_z3"),
    "group_lattice_s3": ("lattices", "_build_lattice_s3"),
    "twisted_heisenberg_2": ("twisted", "_build_twisted_h2"),
    "twisted_heisenberg_3": ("twisted", "_build_twisted_h3"),
    "glpq2": ("glpq2", "_build_glpq2"),
    "tensor_qplane": ("tensors", "_build_tensor_qplane"),
    "tensor_hplane": ("tensors", "_build_tensor_hplane"),
}

PRESET_IDS = tuple(sorted(_BUILDERS))

__getattr__ = _lazy_attributes(__name__, {"presets.lattices": ("make_group_lattice",)})


@functools.lru_cache(maxsize=None)
def load_preset(id_) -> PresetBundle:
    try:
        family, builder = _BUILDERS[id_]
    except KeyError:
        raise PresetError(f"unknown preset {id_!r}; known: {', '.join(PRESET_IDS)}") from None
    # the import statement's path, so `-X importtime` lists the family
    bundle = getattr(__import__(f"{__package__}.{family}", fromlist=[builder]), builder)()
    if not isinstance(bundle, PresetBundle):  # a spec, or a bundle when the preset has extras
        bundle = PresetBundle(bundle)
    conf = check_local_confluence(bundle.presentation)
    if not conf.ok:
        raise PresetError(f"preset {id_} presentation is not locally confluent:\n{conf}")
    return bundle


def _calculus(pres, directions, automorphisms, **options):
    """The calculus named after pres, with the automorphism of each label
    verified from its (images, inverse images) pair."""
    autos = {label: verify_morphism(pres, images, inverse_images=inverse)
             for label, (images, inverse) in automorphisms.items()}
    return CalculusSpec(pres, directions, autos, name=pres.name, **options)


def _scaling(pres, scales):
    """g -> c*g for each generator g with its scale c (text) in scales, and
    the inverse g -> c^-1*g: one (images, inverse images) pair."""
    factor = {c: parse_scalar(c, pres.params) for c in dict.fromkeys(scales.values())}
    inverse = {c: f.inverse() for c, f in factor.items()}
    return ({g: pres.gen(g) * factor[c] for g, c in scales.items()},
            {g: pres.gen(g) * inverse[c] for g, c in scales.items()})


def _plane():
    return DirectionSet.from_group({"1": (1, 0), "2": (0, 1)},
                                   lambda a, b: (a[0] + b[0], a[1] + b[1]), (0, 0))
