"""Unit tests for Box3D."""

import math

import numpy as np
import pytest

from repro.geometry import Box3D, centroid, wrap_angle
from repro.geometry.box import box_from_dict


def make_box(**overrides):
    params = dict(x=1.0, y=2.0, z=0.5, length=4.0, width=2.0, height=1.5, yaw=0.0)
    params.update(overrides)
    return Box3D(**params)


class TestConstruction:
    def test_basic_fields(self):
        box = make_box()
        assert box.x == 1.0
        assert box.length == 4.0
        assert box.yaw == 0.0

    @pytest.mark.parametrize("dim", ["length", "width", "height"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_dimensions_rejected(self, dim, value):
        with pytest.raises(ValueError):
            make_box(**{dim: value})

    @pytest.mark.parametrize("dim", ["length", "width", "height"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_dimensions_rejected(self, dim, value):
        with pytest.raises(ValueError, match="must be positive"):
            make_box(**{dim: value})

    def test_nonfinite_dimensions_rejected_from_dict(self):
        data = make_box().to_dict()
        data["width"] = float("nan")
        with pytest.raises(ValueError):
            box_from_dict(data)

    def test_yaw_wrapped_on_construction(self):
        box = make_box(yaw=3 * math.pi)
        assert -math.pi <= box.yaw < math.pi
        assert box.yaw == pytest.approx(wrap_angle(3 * math.pi))

    def test_frozen(self):
        box = make_box()
        with pytest.raises(Exception):
            box.x = 10.0


class TestDerivedQuantities:
    def test_volume(self):
        assert make_box().volume == pytest.approx(4.0 * 2.0 * 1.5)

    def test_bev_area(self):
        assert make_box().bev_area == pytest.approx(8.0)

    def test_z_extent(self):
        box = make_box(z=1.0, height=2.0)
        assert box.z_min == pytest.approx(0.0)
        assert box.z_max == pytest.approx(2.0)

    def test_center_arrays(self):
        box = make_box()
        np.testing.assert_allclose(box.center, [1.0, 2.0, 0.5])
        np.testing.assert_allclose(box.center_xy, [1.0, 2.0])

    def test_distance_to_point(self):
        box = make_box(x=3.0, y=4.0)
        assert box.distance_to([0.0, 0.0]) == pytest.approx(5.0)

    def test_distance_ignores_z(self):
        box = make_box(x=3.0, y=4.0, z=100.0)
        assert box.distance_to([0.0, 0.0, -50.0]) == pytest.approx(5.0)

    def test_distance_to_box(self):
        a = make_box(x=0.0, y=0.0)
        b = make_box(x=6.0, y=8.0)
        assert a.distance_to_box(b) == pytest.approx(10.0)


class TestCorners:
    def test_axis_aligned_corners(self):
        box = Box3D(x=0, y=0, z=0, length=4, width=2, height=1, yaw=0)
        corners = box.bev_corners()
        expected = {(2, 1), (-2, 1), (-2, -1), (2, -1)}
        got = {tuple(np.round(c, 9)) for c in corners}
        assert got == expected

    def test_rotation_90_degrees_swaps_extents(self):
        box = Box3D(x=0, y=0, z=0, length=4, width=2, height=1, yaw=math.pi / 2)
        corners = box.bev_corners()
        assert np.max(np.abs(corners[:, 0])) == pytest.approx(1.0)
        assert np.max(np.abs(corners[:, 1])) == pytest.approx(2.0)

    def test_corners_ccw(self):
        box = make_box(yaw=0.3)
        corners = box.bev_corners()
        x, y = corners[:, 0], corners[:, 1]
        signed = np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))
        assert signed > 0  # counter-clockwise

    def test_corners_3d_shape_and_heights(self):
        box = make_box(z=1.0, height=2.0)
        corners = box.corners_3d()
        assert corners.shape == (8, 3)
        np.testing.assert_allclose(corners[:4, 2], 0.0)
        np.testing.assert_allclose(corners[4:, 2], 2.0)

    def test_contains_center(self):
        box = make_box(yaw=0.7)
        assert box.contains_point_bev(box.center_xy)

    def test_contains_corner_inclusive(self):
        box = make_box(yaw=0.0)
        for corner in box.bev_corners():
            assert box.contains_point_bev(corner)

    def test_excludes_far_point(self):
        box = make_box()
        assert not box.contains_point_bev([100.0, 100.0])


class TestManipulation:
    def test_translated(self):
        box = make_box().translated(1.0, -2.0, 0.5)
        assert (box.x, box.y, box.z) == (2.0, 0.0, 1.0)

    def test_rotated_wraps(self):
        box = make_box(yaw=math.pi - 0.1).rotated(0.2)
        assert box.yaw == pytest.approx(-math.pi + 0.1)

    def test_scaled(self):
        box = make_box().scaled(2.0)
        assert box.volume == pytest.approx(make_box().volume * 8.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_box().scaled(0.0)

    def test_jittered_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        box = make_box(yaw=0.4)
        assert box.jittered(rng) == box

    def test_jittered_perturbs_with_sigma(self):
        rng = np.random.default_rng(0)
        box = make_box()
        jit = box.jittered(rng, pos_sigma=0.5, dim_sigma=0.1, yaw_sigma=0.1)
        assert jit != box
        assert jit.length > 0 and jit.width > 0 and jit.height > 0

    def test_jittered_deterministic_under_seed(self):
        box = make_box()
        a = box.jittered(np.random.default_rng(7), pos_sigma=0.5)
        b = box.jittered(np.random.default_rng(7), pos_sigma=0.5)
        assert a == b


class TestSerialization:
    def test_roundtrip(self):
        box = make_box(yaw=1.1)
        assert Box3D.from_dict(box.to_dict()) == box

    def test_from_dict_defaults_yaw(self):
        data = make_box().to_dict()
        del data["yaw"]
        assert box_from_dict(data).yaw == 0.0


class TestHelpers:
    def test_wrap_angle_range(self):
        for theta in np.linspace(-20, 20, 101):
            wrapped = wrap_angle(theta)
            assert -math.pi <= wrapped < math.pi
            # Same direction modulo 2*pi.
            assert math.isclose(
                math.cos(theta), math.cos(wrapped), abs_tol=1e-9
            ) and math.isclose(math.sin(theta), math.sin(wrapped), abs_tol=1e-9)

    def test_centroid(self):
        boxes = [make_box(x=0, y=0, z=0), make_box(x=2, y=4, z=2)]
        np.testing.assert_allclose(centroid(boxes), [1.0, 2.0, 1.0])

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])
