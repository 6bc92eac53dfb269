"""Versioned fixtures: the named example curves and moment polygons, and
the one parser of curve and polytope input."""

from __future__ import annotations

import json
from importlib import resources

from .polyhedral import load_polytope_json, regular_subdivision
from .toric import DelzantPolygon
from .tropical import load_curve_json, tropical_hypersurface


def _load(name):
    ref = resources.files("troplag").joinpath(f"fixtures/{name}.json")
    with ref.open("r") as fh:
        return json.load(fh)


def fixture_names():
    out = []
    for ref in resources.files("troplag").joinpath("fixtures").iterdir():
        if ref.name.endswith(".json"):
            out.append(ref.name[:-5])
    return sorted(out)


def load_input(data, default_zero=False):
    """{"curve": TropicalComplex, "polygon": DelzantPolygon or None} of a
    parsed JSON object: a lifted polytope (a "lifting" entry or type
    "polytope") gives the dual curve of its subdivision, anything else is
    read as a curve."""
    if "lifting" in data or data.get("type") == "polytope":
        poly, nu = load_polytope_json(data, default_zero=default_zero)
        curve = tropical_hypersurface(regular_subdivision(poly, nu))
    else:
        curve = load_curve_json(data)
    pg = data.get("polygon")
    if pg == "quadrant":
        polygon = DelzantPolygon.quadrant()
    else:
        polygon = None if pg is None else DelzantPolygon.from_vertices(pg)
    return {"curve": curve, "polygon": polygon}


def load_fixture(name):
    return load_input(_load(name))

