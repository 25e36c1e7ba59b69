"""Finite simplicial complexes as limits of towers of finite posets.

The package builds, for a finite simplicial complex, the sequence of finite
posets on the vertices of its iterated barycentric subdivisions, the bonding
maps between levels, and an exact thread codec between points of the
realization and coherent sequences through the levels.  Everything is exact:
rational barycentric coordinates, integer homology, deterministic canonical
orderings.

Importing the package runs none of its submodules.  It registers each
submodule that defines a public name in ``sys.modules``, and as an attribute
here, as a lazy module (``importlib.util.LazyLoader``) that runs on its first
attribute read, and each public name below is read from its submodule on
first access (PEP 562).  So a caller that reads only ``poset_tower.tower``
does not pay to load homology, approx or verify, and ``sys.modules`` and
``poset_tower.verify`` still hold those submodules, as they did when the
package imported them all.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "complexes": ("RationalPoint", "Simplex", "SimplicialComplex", "dist_sq", "link",
                  "open_star", "star", "support", "validate_complex"),
    "posets": ("FinitePoset", "PosetMap", "are_isomorphic", "check_order_isomorphism", "core",
               "face_poset", "is_order_preserving", "min_open", "order_complex", "to_dot",
               "up_set"),
    "subdivision": ("SubdividedComplex", "embed_point", "lift_point", "mesh_sq_bound",
                    "sd_coordinates", "stage_vertex_label", "subdivide"),
    "tower": ("DecodedRegion", "ThreadPrefix", "Tower", "TowerLevel", "basic_preimage", "bond",
              "build_level", "decode_thread", "encode_thread", "image_of_open",
              "project_point", "separation_stage", "validate_thread"),
    "homology": ("BettiProfile", "ChainComplexZ", "betti", "chain_complex"),
    "approx": ("PLMap", "SimplicialMap", "SystemMorphism", "approximate",
               "carrier_homotopy_check", "check_naturality", "homotopy_sample_points",
               "induce_level_map", "iterated_sd_map", "limit_map", "require_simplicial",
               "sd_map", "validate_simplicial"),
    "verify": ("VerificationReport", "verify_all", "verify_suite"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def _lazy(name: str):
    """Submodule ``name``, registered in ``sys.modules`` to run on its first attribute read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[spec.name] = module
    return module


for _module in dict.fromkeys(_EXPORTS.values()):
    globals()[_module] = _lazy(_module)


def __getattr__(name):
    """Read a public name from its submodule on first access and bind it here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
