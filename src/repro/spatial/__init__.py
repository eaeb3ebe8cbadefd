"""Spatial substrate: geometry, space-filling curves, range decomposition.

The Bx-tree and PEB-tree both linearize 2-D locations with a
proximity-preserving space-filling curve (the paper uses the Z-curve [22])
over a regular grid, and convert (enlarged) query rectangles into sets of
consecutive curve-value intervals.  This package provides:

* :mod:`repro.spatial.geometry` — points, rectangles, overlap areas;
* :mod:`repro.spatial.zcurve` — Morton encode/decode;
* :mod:`repro.spatial.hilbert` — Hilbert encode/decode (ablation extension);
* :mod:`repro.spatial.curves` — the pluggable curve, and the one
  rectangle -> maximal-interval decomposition (a quadtree descent that
  serves every curve);
* :mod:`repro.spatial.decompose` — the interval type and interval-list
  merge and difference;
* :mod:`repro.spatial.grid` — continuous space <-> integer cell mapping;
* :mod:`repro.spatial.union` — exact measure of rectangle unions (used by
  the multi-policy compatibility extension).
"""

from repro.spatial.curves import CURVES, HILBERT, ZCURVE, make_curve
from repro.spatial.geometry import Rect
from repro.spatial.grid import Grid
from repro.spatial.hilbert import hilbert_decode, hilbert_encode
from repro.spatial.union import intersection_area, interval_union_length, union_area
from repro.spatial.zcurve import z_decode, z_encode

__all__ = [
    "CURVES",
    "Grid",
    "HILBERT",
    "Rect",
    "ZCURVE",
    "make_curve",
    "hilbert_decode",
    "hilbert_encode",
    "intersection_area",
    "interval_union_length",
    "union_area",
    "z_decode",
    "z_encode",
]
