"""Gap sets of numerical semigroups: enumeration, invariants, maps, tallies.

The public names load on first use (PEP 562), each from its own submodule,
so importing the package, or one submodule such as `gapsets.cli`, runs only
the modules it needs.
"""

from importlib import import_module

# submodule -> the public names it provides
_EXPORTS = {
    "core": (
        "CanonicalPartition",
        "Gapset",
        "GapsetRejection",
        "InvariantRecord",
        "as_candidate",
        "canonical_partition",
        "gapset",
        "hyperelliptic_gapset",
        "invariants",
        "is_m_extension",
        "is_m_set",
        "kappa_and_alpha",
        "ordinary_gapset",
        "validate_gapset",
    ),
    "enumeration": ("enumerate_gapsets",),
    "maps": (
        "BijectionReport",
        "WidenImage",
        "classify_widest_pair",
        "narrow_max_gap",
        "shift_blocks",
        "verify_bijection",
        "widen_max_gap",
    ),
    "tally": (
        "CountGrid",
        "DiagonalSequence",
        "StabilizationReport",
        "build_count_grid",
        "diagonal_sequence",
        "stabilization_check",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that provides `name` (or is `name`) and keep the
    result in the package namespace, so each name is resolved once."""
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
