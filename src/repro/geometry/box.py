"""3D bounding boxes for perception observations.

Boxes follow the convention used by AV perception datasets (e.g. the Lyft
Level 5 dataset): a box is parameterized by its center ``(x, y, z)``, its
size ``(length, width, height)``, and a yaw angle about the vertical axis.
``length`` extends along the box's heading, ``width`` across it, and
``height`` along z. All units are meters and radians.

The box is the fundamental geometric observation type consumed by every
layer above this one (association, LOA features, baselines), so it is kept
immutable and cheap to copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Box3D", "wrap_angle", "wrap_angles", "box_from_dict"]

# A module global, not ``math.inf``: the size check runs once per box
# on the scene-decoding path, and the attribute lookup doubled its cost.
_INF = math.inf


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to the interval ``[-pi, pi)``.

    >>> wrap_angle(math.pi)
    -3.141592653589793
    >>> wrap_angle(0.0)
    0.0
    """
    return float((theta + math.pi) % (2.0 * math.pi) - math.pi)


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized :func:`wrap_angle` (same formula, element-wise)."""
    return (np.asarray(theta, dtype=float) + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class Box3D:
    """An oriented 3D bounding box.

    Attributes:
        x, y, z: Center coordinates in meters. ``z`` is the center height.
        length: Extent along the heading direction (meters, positive).
        width: Extent across the heading direction (meters, positive).
        height: Vertical extent (meters, positive).
        yaw: Heading angle in radians, wrapped to ``[-pi, pi)``.
    """

    x: float
    y: float
    z: float
    length: float
    width: float
    height: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        # Chained comparisons reject NaN and inf too (``nan <= 0`` is
        # false), without a function call per box.
        if not (
            0 < self.length < _INF
            and 0 < self.width < _INF
            and 0 < self.height < _INF
        ):
            raise ValueError(
                "box dimensions must be positive, got "
                f"(l={self.length}, w={self.width}, h={self.height})"
            )
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def center(self) -> np.ndarray:
        """Center as a ``(3,)`` array."""
        return np.array([self.x, self.y, self.z], dtype=float)

    @property
    def center_xy(self) -> np.ndarray:
        """Bird's-eye-view center as a ``(2,)`` array."""
        return np.array([self.x, self.y], dtype=float)

    @property
    def volume(self) -> float:
        """Box volume in cubic meters."""
        return self.length * self.width * self.height

    @property
    def bev_area(self) -> float:
        """Footprint area in square meters."""
        return self.length * self.width

    @property
    def z_min(self) -> float:
        return self.z - self.height / 2.0

    @property
    def z_max(self) -> float:
        return self.z + self.height / 2.0

    def distance_to(self, point: Sequence[float] | np.ndarray) -> float:
        """Euclidean BEV distance from the box center to ``point``.

        ``point`` may be 2D or 3D; only x/y are used. This matches the
        "distance to AV" feature in the paper, which is a ground-plane
        distance.
        """
        px, py = float(point[0]), float(point[1])
        return math.hypot(self.x - px, self.y - py)

    def distance_to_box(self, other: "Box3D") -> float:
        """Center-to-center BEV distance to another box."""
        return self.distance_to(other.center_xy)

    # ------------------------------------------------------------------
    # Corner geometry
    # ------------------------------------------------------------------
    def bev_corners(self) -> np.ndarray:
        """Footprint corners as a ``(4, 2)`` array, counter-clockwise.

        Corner order: front-left, rear-left, rear-right, front-right in the
        box frame, rotated by yaw and translated to the world frame.
        """
        half_l = self.length / 2.0
        half_w = self.width / 2.0
        local = np.array(
            [
                [half_l, half_w],
                [-half_l, half_w],
                [-half_l, -half_w],
                [half_l, -half_w],
            ],
            dtype=float,
        )
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]], dtype=float)
        return local @ rot.T + self.center_xy

    def corners_3d(self) -> np.ndarray:
        """All eight corners as an ``(8, 3)`` array (bottom four first)."""
        bev = self.bev_corners()
        bottom = np.column_stack([bev, np.full(4, self.z_min)])
        top = np.column_stack([bev, np.full(4, self.z_max)])
        return np.vstack([bottom, top])

    def contains_point_bev(self, point: Sequence[float] | np.ndarray) -> bool:
        """Whether a 2D point lies inside the box footprint (inclusive)."""
        px, py = float(point[0]), float(point[1])
        dx, dy = px - self.x, py - self.y
        c, s = math.cos(-self.yaw), math.sin(-self.yaw)
        local_x = c * dx - s * dy
        local_y = s * dx + c * dy
        eps = 1e-12
        return (
            abs(local_x) <= self.length / 2.0 + eps
            and abs(local_y) <= self.width / 2.0 + eps
        )

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def translated(self, dx: float, dy: float, dz: float = 0.0) -> "Box3D":
        """Return a copy shifted by ``(dx, dy, dz)``."""
        return replace(self, x=self.x + dx, y=self.y + dy, z=self.z + dz)

    def rotated(self, dyaw: float) -> "Box3D":
        """Return a copy with yaw increased by ``dyaw`` (wrapped)."""
        return replace(self, yaw=wrap_angle(self.yaw + dyaw))

    def scaled(self, factor: float) -> "Box3D":
        """Return a copy with all three dimensions scaled by ``factor``."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            length=self.length * factor,
            width=self.width * factor,
            height=self.height * factor,
        )

    def jittered(
        self,
        rng: np.random.Generator,
        pos_sigma: float = 0.0,
        dim_sigma: float = 0.0,
        yaw_sigma: float = 0.0,
    ) -> "Box3D":
        """Return a copy perturbed by Gaussian noise.

        Dimension noise is multiplicative (lognormal-like, clipped to stay
        positive) so a small sigma perturbs small and large boxes
        proportionally — this matches how labeling jitter behaves in
        practice.
        """
        dx, dy, dz = rng.normal(0.0, pos_sigma, size=3) if pos_sigma > 0 else (0, 0, 0)
        dim_factors = (
            np.exp(rng.normal(0.0, dim_sigma, size=3)) if dim_sigma > 0 else (1, 1, 1)
        )
        dyaw = rng.normal(0.0, yaw_sigma) if yaw_sigma > 0 else 0.0
        return Box3D(
            x=self.x + float(dx),
            y=self.y + float(dy),
            z=self.z + float(dz),
            length=max(self.length * float(dim_factors[0]), 1e-3),
            width=max(self.width * float(dim_factors[1]), 1e-3),
            height=max(self.height * float(dim_factors[2]), 1e-3),
            yaw=self.yaw + float(dyaw),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return {
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "length": self.length,
            "width": self.width,
            "height": self.height,
            "yaw": self.yaw,
        }

    @staticmethod
    def from_dict(data: dict) -> "Box3D":
        return Box3D(
            x=float(data["x"]),
            y=float(data["y"]),
            z=float(data["z"]),
            length=float(data["length"]),
            width=float(data["width"]),
            height=float(data["height"]),
            yaw=float(data.get("yaw", 0.0)),
        )


def box_from_dict(data: dict) -> Box3D:
    """Module-level alias of :meth:`Box3D.from_dict` for functional code."""
    return Box3D.from_dict(data)


def centroid(boxes: Iterable[Box3D]) -> np.ndarray:
    """Mean center of a collection of boxes as a ``(3,)`` array."""
    arr = np.array([b.center for b in boxes], dtype=float)
    if arr.size == 0:
        raise ValueError("centroid of an empty box collection is undefined")
    return arr.mean(axis=0)
