"""Ready-made bundles for every worked example, with golden fixtures."""

from .. import _lazy_attributes
from .base import Fixture, PresetBundle, PresetError
from .catalog import PRESET_IDS, load_preset

__getattr__ = _lazy_attributes(__name__, {"presets.lattices": ("make_group_lattice",)})

__all__ = ["Fixture", "PresetBundle", "PresetError", "PRESET_IDS",
           "load_preset", "make_group_lattice"]
