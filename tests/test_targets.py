import json
import math

import numpy as np
import pytest

from arccover import (ConfigError, IntervalUnion, box_dimension, covers, make_cantor,
                      make_circle, make_custom, make_finite, measure,
                      parse_target)

LN2_LN3 = math.log(2) / math.log(3)


class TestCircle:
    def test_dimensions(self):
        t = make_circle()
        assert t.dim_H == 1.0 and t.dim_B_upper == 1.0

    def test_covers_anything(self):
        t = make_circle()
        assert covers(t.approx, IntervalUnion([(0.123, 0.921)]))


class TestCantor:
    def test_depth_one(self):
        t = make_cantor(1 / 3, 1)
        assert len(t.approx) == 2
        flat = [x for piece in t.approx.pieces for x in piece]
        assert flat == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0], abs=1e-15)

    def test_dimension_formula(self):
        t = make_cantor(1 / 3, 8)
        assert t.dim_H == pytest.approx(LN2_LN3, abs=1e-12)
        assert t.dim_H == pytest.approx(0.630930, abs=1e-6)

    def test_piece_structure(self):
        t = make_cantor(0.4, 6)
        assert len(t.approx) == 2 ** 6
        widths = t.approx.his - t.approx.los
        assert np.allclose(widths, 0.4 ** 6, rtol=1e-12)

    def test_measure_exact(self):
        for ratio, depth in ((1 / 3, 5), (0.25, 10), (0.45, 14)):
            t = make_cantor(ratio, depth)
            assert measure(t.approx) == pytest.approx((2 * ratio) ** depth, abs=1e-12)

    def test_box_count_slope_matches_dimension(self):
        # independent check: count boxes of the depth-12 approximation over
        # the triadic scales 3^-2 .. 3^-10 and fit; self-similarity gives
        # exactly 2^j boxes at scale 3^-j
        t = make_cantor(1 / 3, 12)
        scales = [3.0 ** -j for j in range(2, 11)]
        est = box_dimension(t.approx, scales)
        assert est.counts.tolist() == [2 ** j for j in range(2, 11)]
        assert est.slope == pytest.approx(LN2_LN3, abs=0.02)

    def test_deep_prefractal_covering_grid(self):
        # 2^20 intervals of length 3^-20, one covering interval each; a
        # width is off by the rounding of its endpoints, up to 1e-16 near 1
        t = make_cantor(1 / 3, 20)
        assert len(t.approx) == 2 ** 20
        assert np.allclose(t.approx.his - t.approx.los, (1 / 3) ** 20, rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cantor(0.6, 3)
        with pytest.raises(ValueError):
            make_cantor(0.0, 3)
        with pytest.raises(ValueError):
            make_cantor(1 / 3, 0)
        with pytest.raises(ValueError):
            make_cantor(1 / 3, 23)

    @pytest.mark.parametrize("depth", [True, 3.0, 2.5])
    def test_depth_must_be_an_integer(self, depth):
        with pytest.raises(ConfigError, match="^target: cantor depth must be an integer >= 1, "
                                              f"got {depth}$") as exc:
            make_cantor(1 / 3, depth)
        assert exc.value.field == "target"

    def test_numpy_depth(self):
        assert make_cantor(1 / 3, np.int64(4)).approx == make_cantor(1 / 3, 4).approx


class TestFinite:
    def test_dimension_zero(self):
        assert make_finite([0.5]).dim_H == 0.0

    def test_point_coverage(self):
        t = make_finite([0.5])
        assert covers(IntervalUnion([(0.4, 0.6)]), t.approx)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_finite([])
        with pytest.raises(ValueError):
            make_finite([0.2, 0.2])
        with pytest.raises(ValueError):
            make_finite([1.5])
        # a config error, not torus's ValueError, also for NaN
        for points in ([math.nan], [0.5, math.nan]):
            with pytest.raises(ConfigError, match=r"^target: points must lie in \[0, 1\)$"):
                make_finite(points)


class TestCustom:
    def test_beta_recorded(self):
        u = IntervalUnion([(0.1, 0.2), (0.6, 0.9)])
        t = make_custom(u, beta=0.8)
        assert t.dim_H is None
        assert t.dim_B_upper == 0.8

    def test_dim_H_recorded(self, tmp_path):
        u = IntervalUnion([(0.1, 0.2), (0.6, 0.9)])
        assert make_custom(u, beta=0.8, dim_H=0.5).dim_H == 0.5
        assert make_custom(u, beta=0.8, dim_H=0.8).dim_H == 0.8
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"intervals": [[0.1, 0.3]], "beta": 0.7, "dim_H": 0.6}))
        assert parse_target(f"custom:{path}").dim_H == 0.6

    @pytest.mark.parametrize("dim_H", [math.nan, math.inf, -math.inf, -0.1, 0.81])
    def test_dim_H_outside_0_beta_refused(self, dim_H):
        u = IntervalUnion([(0.1, 0.2), (0.6, 0.9)])
        with pytest.raises(ConfigError) as err:
            make_custom(u, beta=0.8, dim_H=dim_H)
        assert err.value.field == "target"
        assert "dim_H must be in [0, beta]" in str(err.value)

    def test_finest_scale_is_the_shortest_interval_below_beta_1(self):
        u = IntervalUnion([(0.0, 0.5), (0.625, 0.75), (0.875, 1.0)])
        assert make_custom(u, beta=0.7).finest_scale == 0.125
        assert make_custom(u, beta=0.0).finest_scale == 0.125
        # a union with beta 1 needs no scale guard
        assert make_custom(u, beta=1.0).finest_scale == 0.0


class TestParse:
    def test_circle(self):
        assert parse_target("circle").kind == "circle"

    def test_cantor(self):
        t = parse_target("cantor:0.333333:14")
        assert t.kind == "cantor" and t.finest_scale == 0.333333 ** 14

    def test_points(self):
        t = parse_target("points:0.1,0.2,0.9")
        assert t.kind == "finite" and t.approx.points.tolist() == [0.1, 0.2, 0.9]

    def test_custom_file(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"intervals": [[0.1, 0.3], [0.5, 0.6]], "beta": 0.7}))
        t = parse_target(f"custom:{path}")
        assert t.dim_B_upper == 0.7
        assert measure(t.approx) == pytest.approx(0.3)

    def test_custom_nan_interval_end_refused(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"intervals": [[0.1, 0.2], [0.3, math.nan]], "beta": 1}))
        with pytest.raises(ConfigError, match="interval endpoints must lie in"):
            parse_target(f"custom:{path}")

    def test_errors_name_the_field(self):
        for bad in ("nope", "cantor:0.3", "points:a,b", "custom:/does/not/exist.json"):
            with pytest.raises(ValueError, match="target"):
                parse_target(bad)

