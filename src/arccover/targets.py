"""Target sets on the circle with known dimensions.

A target couples an interval-union approximation with the analytic data
the covering experiments need: its Hausdorff dimension when known and an
upper bound beta on its box dimension, which place the two thresholds of
the phase scan.

A depth-k pre-fractal stands in for a true Cantor set only above its
finest scale ratio**depth: TargetSet.check_horizon, run once per length
rule by each experiment, refuses a horizon arc length at or below 10
times that (below it the pre-fractal, a finite union of intervals,
behaves one-dimensionally and is strictly harder to cover than the
fractal it approximates).  A custom union that claims a box dimension
beta < 1 is held to the same guard, with its shortest interval as the
finest scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_integer
from .torus import FULL_CIRCLE, IntervalUnion


@dataclass(frozen=True)
class TargetSet:
    """Immutable target: kind tag, approximation, dimensions."""

    kind: str
    approx: IntervalUnion
    dim_H: float | None
    dim_B_upper: float
    description: str
    # the finest constructed scale: ratio**depth for a cantor pre-fractal, the
    # shortest interval of a custom union with beta < 1; 0.0 when no scale
    # guard applies
    finest_scale: float = 0.0

    def __post_init__(self):
        if self.dim_H is not None and self.dim_H > self.dim_B_upper + 1e-12:
            raise ValueError("dim_H must not exceed dim_B_upper")

    def check_horizon(self, ell_end: float) -> None:
        """Pre-fractal guard: refuse a horizon arc length `ell_end` at or
        below 10 * finest_scale."""
        bound = 10.0 * self.finest_scale
        if self.finest_scale > 0.0 and ell_end <= bound:
            # a custom union has no depth: its finest scale is its shortest
            # interval, and beta = 1 drops the guard
            fix = ("reduce n_max, shorten the shortest interval or set beta = 1"
                   if self.kind == "custom" else "reduce n_max or increase depth")
            raise ConfigError("target", f"pre-fractal too coarse for this horizon: ell(n_max)="
                              f"{ell_end:.3g} <= 10 * finest_scale = {bound:.3g}; {fix}")


def make_circle() -> TargetSet:
    return TargetSet(
        kind="circle",
        approx=FULL_CIRCLE,
        dim_H=1.0,
        dim_B_upper=1.0,
        description="circle",
    )


def make_cantor(ratio: float, depth: int) -> TargetSet:
    """Depth-k pre-fractal of the self-similar Cantor set with given ratio.

    Starting from [0, 1], each step keeps the left and right sub-blocks of
    relative length `ratio`.  The result is 2**depth intervals of length
    ratio**depth; both dimensions equal ln 2 / ln(1/ratio).
    """
    if not (0.0 < ratio < 0.5):
        raise ConfigError("target", f"cantor ratio must be in (0, 1/2), got {ratio}")
    if not is_integer(depth) or depth < 1:
        raise ConfigError("target", f"cantor depth must be an integer >= 1, got {depth}")
    if depth > 22:
        raise ConfigError(
            "target",
            "cantor depth > 22 would materialize more than 4M pieces; the "
            "horizon guard (ell(n_max) > 10 * ratio**depth) makes such depths "
            "unusable in any experiment this package can run")
    los = np.array([0.0])
    his = np.array([1.0])
    width = 1.0
    for _ in range(depth):
        width *= ratio
        left = los
        right = his - width
        los = np.stack([left, right], axis=1).reshape(-1)
        his = los + width
    approx = IntervalUnion._from_sorted(los, his)
    dim = math.log(2.0) / math.log(1.0 / ratio)
    return TargetSet(
        kind="cantor",
        approx=approx,
        dim_H=dim,
        dim_B_upper=dim,
        description=f"cantor(ratio={ratio:g}, depth={depth})",
        finest_scale=ratio ** depth,
    )


def make_finite(points) -> TargetSet:
    """Finite point target; dimension 0, covered iff every point is hit."""
    pts = np.asarray(list(points), dtype=np.float64)
    if pts.size == 0:
        raise ConfigError("target", "finite target needs at least one point")
    if np.unique(pts).size != pts.size:
        raise ConfigError("target", "finite target points must be distinct")
    # a positive test, which NaN fails
    if not np.all((pts >= 0.0) & (pts < 1.0)):
        raise ConfigError("target", "points must lie in [0, 1)")
    return TargetSet(
        kind="finite",
        approx=IntervalUnion(points=pts),
        dim_H=0.0,
        dim_B_upper=0.0,
        description=f"points({pts.size})",
    )


def make_custom(u: IntervalUnion, beta: float, description: str = "custom",
                dim_H: float | None = None) -> TargetSet:
    """Arbitrary interval-union target with a caller-supplied box bound beta
    and, optionally, Hausdorff dimension dim_H, which places the scan's
    no-cover threshold.

    A union that claims beta < 1 stands in for a fractal only above its
    shortest interval, as a Cantor pre-fractal does above ratio**depth, so
    that length is its finest scale and the scale guard applies; with
    beta = 1 there is none.
    """
    if not (0.0 <= beta <= 1.0):
        raise ConfigError("target", f"beta must be in [0, 1], got {beta}")
    if dim_H is not None and not (0.0 <= dim_H <= beta):
        raise ConfigError("target", f"dim_H must be in [0, beta] = [0, {beta:g}], got {dim_H}")
    if u.is_empty():
        raise ConfigError("target", "custom target must be nonempty")
    finest = float(np.min(u.his - u.los)) if beta < 1.0 and len(u) else 0.0
    return TargetSet(
        kind="custom",
        approx=u,
        dim_H=None if dim_H is None else float(dim_H),
        dim_B_upper=float(beta),
        description=description,
        finest_scale=finest,
    )


def parse_target(spec: str) -> TargetSet:
    """Parse a target specification string.

    Accepted forms:
      circle
      cantor:<ratio>:<depth>
      points:<p1,p2,...>
      custom:<file.json>   (JSON with "intervals": [[lo, hi], ...], "beta"
                            and optionally "dim_H")
    """
    if spec == "circle":
        return make_circle()
    head, _, rest = spec.partition(":")
    if head == "cantor":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ConfigError("target", f"expected cantor:<ratio>:<depth>, got {spec!r}")
        try:
            ratio = float(parts[0])
            depth = int(parts[1])
        except ValueError as exc:
            raise ConfigError("target", f"bad cantor parameters in {spec!r}") from exc
        return make_cantor(ratio, depth)
    if head == "points":
        try:
            pts = [float(p) for p in rest.split(",") if p != ""]
        except ValueError as exc:
            raise ConfigError("target", f"bad point list in {spec!r}") from exc
        return make_finite(pts)
    if head == "custom":
        try:
            with open(rest) as f:
                data = json.load(f)
        except OSError as exc:
            raise ConfigError("target", f"cannot read custom target file {rest!r}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError("target", f"invalid JSON in {rest!r}: {exc}") from exc
        if not isinstance(data, dict) or "intervals" not in data or "beta" not in data:
            raise ConfigError("target", "custom file needs 'intervals' and 'beta'")
        try:
            u = IntervalUnion(pieces=[tuple(p) for p in data["intervals"]])
            beta = float(data["beta"])
            dim_H = float(data["dim_H"]) if "dim_H" in data else None
        except (TypeError, ValueError) as exc:
            raise ConfigError("target", f"bad custom target in {rest!r}: {exc}") from exc
        return make_custom(u, beta, description=f"custom({rest})", dim_H=dim_H)
    raise ConfigError("target", f"unknown specification {spec!r}")
