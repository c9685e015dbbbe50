"""Counting topologically persistent holes in noisy planar point clouds."""

from .delaunay import (
    AllCollinearError,
    Cloud,
    DroppedPointsWarning,
    DuplicatePointsWarning,
    TooFewPointsError,
)
from .diagrams import Diagram
from .forest import hole_persistence

__version__ = "0.1.0"
