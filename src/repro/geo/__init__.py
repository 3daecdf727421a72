"""Geospatial substrate: points, bounding boxes, grids, and trajectories.

The paper discretises the continuous two-dimensional location domain into a
uniform ``K x K`` grid (Section III-B, "Geospatial Discretization").  This
package provides that discretisation plus the trajectory containers every
other layer builds on.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "BoundingBox": "point",
    "Point": "point",
    "Grid": "grid",
    "Trajectory": "trajectory",
    "CellTrajectory": "trajectory",
    "euclidean": "distance",
    "haversine_km": "distance",
    "path_length": "distance",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
