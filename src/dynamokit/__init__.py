"""Numerical toolkit for stretch-twist dynamo constructions.

Four building blocks, each usable on its own:

- maps: linear torus maps (cat / shear / twist families), exact 2x2
  classification, orbits, frozen-field transport and growth rates.
- frenet: Frenet-Serret frame integration, twist angle and tube stretch.
- tube: twisted-flux-tube metric, compact radial operator, flow residuals,
  the poloidal/toroidal ratio quadratics, and pressure / vorticity /
  alpha-effect diagnostics.
- filament: thin-filament induction matrix, growth-rate solver and dynamo
  regime classification.

The dynamokit command-line tool (dynamokit.cli) writes deterministic
CSV/JSON reports and static SVG plots for all four.
"""

__version__ = "0.1.0"

# The modules whose __all__ the package re-exports, each imported on first use
_KERNELS = ("maps", "frenet", "tube", "filament")


def __getattr__(name: str):  # PEP 562: called for each name not bound here yet
    if name in {*_KERNELS, "cli", "finitediff", "reports"}:
        __import__(f"{__name__}.{name}")  # unlike importlib.import_module, -X importtime shows it
        return globals()[name]  # the import binds it here
    if name == "__all__":  # finitediff too, as tube's import bound it beside the kernels
        return sorted({*_KERNELS, "finitediff"}.union(*(__getattr__(k).__all__ for k in _KERNELS)))
    for module in () if name.startswith("_") else map(__getattr__, _KERNELS):
        if name in module.__all__:  # the kernel that declares it
            globals()[name] = value = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
