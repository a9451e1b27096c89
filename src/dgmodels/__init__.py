"""Minimal models of dg modules over Sullivan algebras, and circle-action reports.

The exported names load lazily (PEP 562): the first access to a name
imports the module that defines it, so `import dgmodels` alone loads none
of the package's modules.
"""

from importlib import import_module

# exported name -> the module that defines it
_EXPORTS = {
    "SullivanPresentation": "cdga",
    "parse_polynomial": "cdga",
    "trivial_algebra": "cdga",
    "verify_cdga": "cdga",
    "BasicData": "action",
    "action_report": "circle",
    "almost_free_model": "circle",
    "dimc_relation": "circle",
    "equivariant_les": "circle",
    "equivariant_model": "circle",
    "extension_of_scalars_check": "circle",
    "formality_check": "circle",
    "localization_check": "circle",
    "model_of_fixed_set": "circle",
    "model_of_total_space": "circle",
    "naive_structure": "circle",
    "poincare_relations": "circle",
    "semifree_s3_models": "circle",
    "shared_basis_check": "circle",
    "smith_gysin_inequality": "circle",
    "DgModuleMap": "dgmodule",
    "FreeDgModule": "dgmodule",
    "TabulatedDgModule": "dgmodule",
    "algebra_module": "dgmodule",
    "betti_table": "dgmodule",
    "cone": "dgmodule",
    "cone_les": "dgmodule",
    "free_cone": "dgmodule",
    "map_from_generator_images": "dgmodule",
    "module_cohomology": "dgmodule",
    "shift": "dgmodule",
    "tabulate": "dgmodule",
    "verify_dgmodule": "dgmodule",
    "verify_minimal": "dgmodule",
    "DegreeWindowError": "errors",
    "InconclusiveWindowError": "errors",
    "PreconditionError": "errors",
    "ValidationError": "errors",
    "FIXTURES": "fixtures",
    "fixture": "fixtures",
    "InputDocument": "io",
    "load_document": "io",
    "loads_document": "io",
    "from_complexes": "minmodel",
    "lift_section": "minmodel",
    "minimal_factorization": "minmodel",
    "minimal_model": "minmodel",
    "model_of_morphism": "minmodel",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
