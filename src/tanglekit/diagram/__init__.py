"""Planar diagram engine: construction, surgery, invariants, rewriting.

The re-exports below resolve on first use (PEP 562): ``from
tanglekit.diagram import simplify`` imports ``rewrite`` and its own
imports, not every submodule, so a command pays to compile only the
submodules it runs.
"""

from importlib import import_module

_SUBMODULE = {
    "Component": "core",
    "LinkId": "identify",
    "TangleDiagram": "core",
    "add_boundary_twists": "surgery",
    "apply_r1_add": "rewrite",
    "apply_r2_add": "rewrite",
    "apply_r3": "rewrite",
    "bracket_skein": "invariants",
    "bracket_state_sum": "invariants",
    "cap": "surgery",
    "close_numerator": "surgery",
    "close_with": "surgery",
    "close_with_x_arcs": "surgery",
    "crossing_budget": "invariants",
    "emit_pd": "pdcode",
    "fingerprint": "invariants",
    "goeritz_determinant": "invariants",
    "horizontal_twists": "build",
    "identify_link": "identify",
    "infinity_tangle": "build",
    "linking_matrix": "invariants",
    "linking_number": "invariants",
    "parse_pd": "pdcode",
    "r3_triangles": "rewrite",
    "rational_tangle_diagram": "build",
    "recover_fraction": "identify",
    "remove_string": "surgery",
    "simplify": "rewrite",
    "trivial_tangle": "build",
    "vertical_twists": "build",
    "writhe": "invariants",
    "zero_tangle": "build",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{submodule}", __name__), name)
